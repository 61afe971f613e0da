"""Cache hit/miss counts against a Mattson stack-distance LRU oracle.

Mattson et al. (IBM Systems Journal, 1970): an LRU cache of associativity
``ways`` hits a reference exactly when fewer than ``ways`` distinct tags
of the same set were referenced since the previous reference to that
line.  In this hierarchy a level is only consulted on a miss in the
level before it (and every miss fills), so each level sees its
predecessor's miss stream.  The oracle below predicts per-level hits and
misses from the address stream alone — it shares no code with the cache
model — and the tests drive the same loads, stores and flushes through
``Core.execute``.

A flush removes its line from every level, so it ends that line's stack
history at every level: its stack slot becomes a hole, a free way.  A
later reference pushes the entries above it down only as far as the
shallowest hole above it — the set has a free way, so nothing is
evicted — and a hit leaves a hole at its own old slot.  A level of
``ways`` ways then holds exactly the lines in the top ``ways`` stack
slots, holes counted.  Without flushes there are no holes, and this is
the stack-distance rule above.
"""

from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.cache import CacheConfig, CacheHierarchy
from repro.hw.core import Core, ExecStop
from repro.hw.pmu import Pmu
from repro.workloads.base import (
    KIND_FLUSH,
    KIND_LOAD,
    KIND_STORE,
    BlockCursor,
    ListProgram,
    Trace,
    TraceBlock,
)

LINE = 64
HOLE = None


def stack_distance_level(refs: List[Tuple[int, bool]], sets: int,
                         ways: int) -> Tuple[int, int, List[Tuple[int, bool]]]:
    """Replay one LRU level's ``(line, is_flush)`` stream by stack depth.

    Returns the hit count, the miss count and the stream the next
    level sees: every miss and every flush, in order.
    """
    stacks: List[list] = [[] for _ in range(sets)]   # MRU first
    hits = misses = 0
    passed = []
    for line, flush in refs:
        stack = stacks[line % sets]
        depth = stack.index(line) if line in stack else None
        if flush:
            if depth is not None:
                stack[depth] = HOLE
            passed.append((line, True))
            continue
        if depth is not None and depth < ways:
            hits += 1
        else:
            misses += 1
            passed.append((line, False))
        hole = stack.index(HOLE) if HOLE in stack else None
        if hole is not None and (depth is None or hole < depth):
            # The push-down stops at the shallowest hole above the
            # line; the line's own old slot becomes the hole.
            del stack[hole]
            if depth is not None:
                stack[depth - 1] = HOLE
        elif depth is not None:
            del stack[depth]
        stack.insert(0, line)
    return hits, misses, passed


def stack_distance_hierarchy(lines, kinds, geometry):
    """Per-level (hits, misses) for a stream of line numbers."""
    refs = [(line, kind == KIND_FLUSH) for line, kind in zip(lines, kinds)]
    counts = []
    for sets, ways in geometry:
        hits, misses, refs = stack_distance_level(refs, sets, ways)
        counts.append((hits, misses))
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


def _trace_strategy(kinds):
    return st.lists(st.tuples(st.integers(0, 40), st.sampled_from(kinds)),
                    min_size=1, max_size=300)


_traces = _trace_strategy((KIND_LOAD, KIND_STORE))
# Flushes at a sixth of the ops: frequent enough that most traces
# reload flushed lines, and that holes meet later pushes.
_flush_traces = _trace_strategy((KIND_LOAD, KIND_STORE, KIND_LOAD,
                                 KIND_STORE, KIND_LOAD, KIND_FLUSH))
_budgets = st.lists(st.integers(min_value=1, max_value=5_000), max_size=10)


class TestStackDistanceOracle:
    @given(_traces, _budgets)
    @settings(max_examples=100, deadline=None)
    def test_fully_associative_l1(self, trace, budgets):
        """A 1-set L1 in front of set-associative L2 and LLC."""
        geometry = ((1, 4), (4, 2), (8, 4))
        lines, kinds = zip(*trace)
        assert (replay_through_core(lines, kinds, geometry, budgets)
                == stack_distance_hierarchy(lines, kinds, geometry))

    @given(_traces, _budgets)
    @settings(max_examples=100, deadline=None)
    def test_set_associative_levels(self, trace, budgets):
        """Set-associative L1 and L2 in front of a 1-set LLC."""
        geometry = ((2, 2), (4, 4), (1, 16))
        lines, kinds = zip(*trace)
        assert (replay_through_core(lines, kinds, geometry, budgets)
                == stack_distance_hierarchy(lines, kinds, geometry))

    @given(_flush_traces, _budgets)
    @settings(max_examples=100, deadline=None)
    def test_flushes_fully_associative_l1(self, trace, budgets):
        """Flush-bearing traces on the 1-set L1 geometry."""
        geometry = ((1, 4), (4, 2), (8, 4))
        lines, kinds = zip(*trace)
        assert (replay_through_core(lines, kinds, geometry, budgets)
                == stack_distance_hierarchy(lines, kinds, geometry))

    @given(_flush_traces, _budgets)
    @settings(max_examples=100, deadline=None)
    def test_flushes_set_associative_levels(self, trace, budgets):
        """Flush-bearing traces on the 1-set LLC geometry."""
        geometry = ((2, 2), (4, 4), (1, 16))
        lines, kinds = zip(*trace)
        assert (replay_through_core(lines, kinds, geometry, budgets)
                == stack_distance_hierarchy(lines, kinds, geometry))

    @pytest.mark.parametrize("budgets", [[], [1] * 5],
                             ids=["one-slice", "op-per-slice"])
    def test_flushed_line_misses_every_level(self, budgets):
        """Flush+Reload: a reload after the flush misses all the way to
        memory, while a line the flush did not touch still hits — also
        when the reload runs in a later slice than its flush."""
        geometry = ((1, 4), (1, 8), (1, 16))
        lines = [0, 1, 0, 0, 1]
        kinds = [KIND_LOAD, KIND_LOAD, KIND_FLUSH, KIND_LOAD, KIND_LOAD]
        counts = replay_through_core(lines, kinds, geometry, budgets)
        assert counts == stack_distance_hierarchy(lines, kinds, geometry)
        assert counts == [(1, 3), (0, 3), (0, 3)]

    def test_flush_frees_a_way_without_reviving_evicted_lines(self):
        """Two ways: A and B fill, C evicts A, flushing C frees a way.
        Reloading A must miss (it was evicted, not flushed) and fill the
        free way, so B and A then both hit."""
        geometry = ((1, 2), (1, 8), (1, 16))
        a, b, c = 0, 1, 2
        lines = [a, b, c, c, a, b, a]
        kinds = [KIND_LOAD] * 3 + [KIND_FLUSH] + [KIND_LOAD] * 3
        counts = replay_through_core(lines, kinds, geometry, [])
        assert counts == stack_distance_hierarchy(lines, kinds, geometry)
        assert counts[0] == (2, 4)

    def test_cyclic_sweep_one_line_too_many(self):
        """The textbook LRU pathology: sweeping ways + 1 lines through
        one set misses every time; ways lines hit after the first lap."""
        geometry = ((1, 4), (1, 8), (1, 16))
        for span, l1_hits in ((5, 0), (4, 4 * 9)):
            lines = list(range(span)) * 10
            counts = replay_through_core(lines, [KIND_LOAD] * len(lines),
                                         geometry, [])
            assert counts == stack_distance_hierarchy(
                lines, [KIND_LOAD] * len(lines), geometry)
            assert counts[0][0] == l1_hits
