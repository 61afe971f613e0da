"""Cache hit/miss counts against a Mattson stack-distance LRU oracle.

Mattson et al. (IBM Systems Journal, 1970): an LRU cache of associativity
``ways`` hits a reference exactly when fewer than ``ways`` distinct tags
of the same set were referenced since the previous reference to that
line.  In this hierarchy a level is only consulted on a miss in the
level before it (and every miss fills), so each level sees its
predecessor's miss stream.  The oracle below predicts per-level hits and
misses from the address stream alone — it shares no code with the cache
model — and the tests drive the same loads and stores through
``Core.execute``.
"""

from typing import List, Tuple

from hypothesis import given, settings, strategies as st

from repro.hw.cache import CacheConfig, CacheHierarchy
from repro.hw.core import Core, ExecStop
from repro.hw.pmu import Pmu
from repro.workloads.base import (
    KIND_LOAD,
    KIND_STORE,
    BlockCursor,
    ListProgram,
    Trace,
    TraceBlock,
)

LINE = 64


def stack_distance_level(lines: List[int], sets: int,
                         ways: int) -> Tuple[int, List[int]]:
    """Replay one LRU level's reference stream by stack distance.

    Returns the hit count and the miss stream (the lines the next
    level sees, in order).
    """
    history: List[List[int]] = [[] for _ in range(sets)]
    hits = 0
    misses = []
    for line in lines:
        seen = history[line % sets]
        distinct = set()
        for earlier in reversed(seen):
            if earlier == line:
                break
            distinct.add(earlier)
        else:
            distinct = None              # first reference: cold miss
        if distinct is not None and len(distinct) < ways:
            hits += 1
        else:
            misses.append(line)
        seen.append(line)
    return hits, misses


def stack_distance_hierarchy(lines, geometry):
    """Per-level (hits, misses) for a stream of line numbers."""
    counts = []
    for sets, ways in geometry:
        hits, missed = stack_distance_level(lines, sets, ways)
        counts.append((hits, len(missed)))
        lines = missed
    return counts


def replay_through_core(lines, kinds, geometry, budgets):
    cache = CacheHierarchy(
        [CacheConfig(name, sets * ways * LINE, ways=ways)
         for name, (sets, ways) in zip(("L1D", "L2", "LLC"), geometry)],
        memory_latency_cycles=100,
    )
    core = Core(frequency_hz=1e9, pmu=Pmu(), cache=cache)
    addresses = [line * LINE + line % LINE for line in lines]
    cursor = BlockCursor(ListProgram(
        "trace", [TraceBlock(Trace(addresses, kinds))]))
    for budget in list(budgets) + [10**9]:
        if core.execute(cursor, budget).stop is ExecStop.PROGRAM_DONE:
            break
    return [(level.hits, level.misses) for level in cache.levels]


_traces = st.lists(
    st.tuples(st.integers(0, 40), st.sampled_from((KIND_LOAD, KIND_STORE))),
    min_size=1, max_size=300,
)
_budgets = st.lists(st.integers(min_value=1, max_value=5_000), max_size=10)


class TestStackDistanceOracle:
    @given(_traces, _budgets)
    @settings(max_examples=100, deadline=None)
    def test_fully_associative_l1(self, trace, budgets):
        """A 1-set L1 in front of set-associative L2 and LLC."""
        geometry = ((1, 4), (4, 2), (8, 4))
        lines, kinds = zip(*trace)
        assert (replay_through_core(lines, kinds, geometry, budgets)
                == stack_distance_hierarchy(lines, geometry))

    @given(_traces, _budgets)
    @settings(max_examples=100, deadline=None)
    def test_set_associative_levels(self, trace, budgets):
        """Set-associative L1 and L2 in front of a 1-set LLC."""
        geometry = ((2, 2), (4, 4), (1, 16))
        lines, kinds = zip(*trace)
        assert (replay_through_core(lines, kinds, geometry, budgets)
                == stack_distance_hierarchy(lines, geometry))

    def test_cyclic_sweep_one_line_too_many(self):
        """The textbook LRU pathology: sweeping ways + 1 lines through
        one set misses every time; ways lines hit after the first lap."""
        geometry = ((1, 4), (1, 8), (1, 16))
        for span, l1_hits in ((5, 0), (4, 4 * 9)):
            lines = list(range(span)) * 10
            counts = replay_through_core(lines, [KIND_LOAD] * len(lines),
                                         geometry, [])
            assert counts == stack_distance_hierarchy(lines, geometry)
            assert counts[0][0] == l1_hits
