"""Property-based tests: execution conservation under arbitrary slicing.

The central correctness property of the whole reproduction: *how* a
program is sliced by preemption must not change *what* it executes —
total instructions, events, and CPU time are conserved.
"""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.hw.cache import CacheConfig, CacheHierarchy
from repro.hw.core import _FLUSH_LATENCY_CYCLES, Core, ExecStop
from repro.hw.pmu import Pmu, RDPMC_FIXED_FLAG
from repro.workloads.base import (BlockCursor, ListProgram, MemOp, OpKind,
                                  RateBlock, TraceBlock)

LINE = 64


def small_hierarchy(l2_line=LINE, prefetch=False):
    """L1D 4 lines/2-way, L2 16 lines/4-way, LLC 64 lines/8-way."""
    return CacheHierarchy(
        [
            CacheConfig("L1D", 4 * LINE, ways=2, hit_latency_cycles=4),
            CacheConfig("L2", 16 * l2_line, ways=4, line_bytes=l2_line,
                        hit_latency_cycles=12),
            CacheConfig("LLC", 64 * LINE, ways=8, hit_latency_cycles=40),
        ],
        memory_latency_cycles=100,
        prefetch_next_line=prefetch,
    )


def make_core():
    pmu = Pmu()
    pmu.program_counter(0, "LOADS", user=True, kernel=True)
    pmu.program_counter(1, "LLC_MISSES", user=True, kernel=True)
    pmu.enable_fixed(user=True, kernel=True)
    pmu.global_enable()
    return Core(frequency_hz=1e9, pmu=pmu, cache=small_hierarchy())


def run_sliced(program, budgets):
    """Execute a program with the given slice budgets (then to the end);
    returns (instructions, loads, inst_retired, consumed_ns)."""
    core = make_core()
    cursor = BlockCursor(program)
    instructions = 0.0
    consumed = 0
    for budget in budgets:
        result = core.execute(cursor, budget)
        instructions += result.instructions
        consumed += result.consumed_ns
        if result.stop is ExecStop.PROGRAM_DONE:
            break
    else:
        while True:
            result = core.execute(cursor, 10_000_000)
            instructions += result.instructions
            consumed += result.consumed_ns
            if result.stop is ExecStop.PROGRAM_DONE:
                break
    return (
        instructions,
        core.pmu.rdpmc(0),
        core.pmu.rdpmc(RDPMC_FIXED_FLAG | 0),
        consumed,
    )


rate_blocks = st.builds(
    RateBlock,
    instructions=st.floats(min_value=1, max_value=5e4),
    rates=st.fixed_dictionaries({"LOADS": st.floats(min_value=0, max_value=2)}),
    cpi=st.floats(min_value=0.3, max_value=3.0),
)
trace_blocks = st.builds(
    lambda addresses, ipo: TraceBlock(
        ops=[MemOp(address * LINE) for address in addresses],
        instructions_per_op=ipo,
    ),
    addresses=st.lists(st.integers(0, 32), min_size=1, max_size=30),
    ipo=st.floats(min_value=0, max_value=10),
)
programs = st.lists(st.one_of(rate_blocks, trace_blocks),
                    min_size=1, max_size=6).map(
    lambda blocks: ListProgram("prop", blocks)
)
budget_lists = st.lists(st.integers(min_value=50, max_value=20_000),
                        max_size=20)


class TestSlicingConservation:
    @given(programs, budget_lists)
    @settings(max_examples=60, deadline=None)
    def test_slicing_conserves_instructions_and_events(self, program,
                                                       budgets):
        whole = run_sliced(program, [])
        sliced = run_sliced(program, budgets)
        assert sliced[0] == pytest.approx(whole[0], rel=1e-9, abs=1e-6)
        assert sliced[1] == whole[1]                     # LOADS (integer)
        assert abs(sliced[2] - whole[2]) <= 1            # INST floor
        # Time may differ by per-slice rounding only (<=1 ns per slice).
        assert abs(sliced[3] - whole[3]) <= len(budgets) + 1

    @given(programs)
    @settings(max_examples=40, deadline=None)
    def test_repeat_runs_identical(self, program):
        assert run_sliced(program, []) == run_sliced(program, [])


# ---------------------------------------------------------------------------
# Replay equivalence: the segment-batched executor vs a per-op oracle
# ---------------------------------------------------------------------------

def reference_run_trace(core, cursor, block, budget_ns):
    """Per-op reference replay: the semantic definition of a trace slice.

    Walks the slice one op at a time through ``CacheHierarchy.access``
    and ``clflush``, charging ``folded_cycles + latency`` per op and
    checking ``cycles < budget`` before each one, then hands the PMU one
    events dict.  Same contract as ``Core._run_trace``, which it stands
    in for when installed on a core.
    """
    cache = core.cache
    budget_cycles = core.ns_to_cycles(budget_ns)
    event_scale = float(block.event_scale)
    op_instructions = float(block.instructions_per_op + block.event_scale)
    folded_cycles = (op_instructions - 1.0) * block.cpi
    cycles = instructions = loads = stores = flushes = 0.0
    counts = dict.fromkeys(("L1D_MISSES", "L2_MISSES", "LLC_REFERENCES",
                            "LLC_MISSES"), 0.0)
    start = p = cursor.op_index
    while p < len(block.ops) and cycles < budget_cycles:
        address, kind = block.ops[p]
        if kind is OpKind.FLUSH:
            cache.clflush(address)
            cycles += folded_cycles + _FLUSH_LATENCY_CYCLES
            flushes += 1.0
        else:
            result = cache.access(address, is_write=kind is OpKind.STORE)
            cycles += folded_cycles + result.latency_cycles
            if kind is OpKind.STORE:
                stores += event_scale
            else:
                loads += event_scale
            for name in counts:
                counts[name] += result.events.get(name, 0.0)
        instructions += op_instructions
        p += 1
    if p == start:
        return 0.0, 0.0
    core.pmu.accumulate({
        "INST_RETIRED": instructions, "CORE_CYCLES": cycles,
        "REF_CYCLES": cycles * core.tsc_ratio, "LOADS": loads,
        "STORES": stores, "CACHE_FLUSHES": flushes, **counts,
    }, block.privilege)
    cursor.consume_ops(p - start)
    return core.cycles_to_ns(cycles), instructions


def cache_state(cache):
    """Statistics plus the LRU order of every set at every level."""
    stats = cache.stats
    return (
        stats.accesses, stats.hits, stats.misses, stats.flushes,
        stats.prefetches,
        [(level.hits, level.misses,
          [list(entries) for entries in level._sets])
         for level in cache.levels],
    )


def interfere(cache, cursor, action):
    """Touch the cache between slices, as another program would.

    ``action`` is ``(flush, line)``; ``line`` None targets the line the
    program touches next — the adversarial case for every shortcut that
    reasons about the cache state across a slice boundary.
    """
    flush, line = action
    if line is None:
        block = cursor.peek()
        if not isinstance(block, TraceBlock):
            return
        address = int(block.ops.addresses[cursor.op_index])
    else:
        address = line * LINE
    if flush:
        cache.clflush(address)
    else:
        cache.access(address)


def replay(program, budgets, events, interlopers, hierarchy, oracle):
    """Run ``program`` sliced by ``budgets``, applying the
    ``interlopers`` actions in turn between slices (see
    :func:`interfere`).  Returns every externally observable total."""
    pmu = Pmu()
    for index, name in enumerate(events):
        pmu.program_counter(index, name, user=True, kernel=True)
    pmu.enable_fixed(user=True, kernel=True)
    pmu.global_enable()
    core = Core(frequency_hz=1e9, pmu=pmu, cache=hierarchy())
    if oracle:
        core._run_trace = (lambda cursor, block, budget_ns:
                           reference_run_trace(core, cursor, block,
                                               budget_ns))
    cursor = BlockCursor(program)
    instructions = 0.0
    consumed = 0
    budgets = itertools.chain(budgets, itertools.repeat(10_000_000))
    for index, budget in enumerate(budgets):
        result = core.execute(cursor, budget)
        instructions += result.instructions
        consumed += result.consumed_ns
        if result.stop is ExecStop.PROGRAM_DONE:
            break
        if interlopers:
            interfere(core.cache, cursor,
                      interlopers[index % len(interlopers)])
    return (
        instructions,
        consumed,
        tuple(pmu.rdpmc(index) for index in range(len(events))),
        tuple(pmu.rdpmc(RDPMC_FIXED_FLAG | index) for index in range(3)),
        cache_state(core.cache),
    )


# Op patterns chosen to exercise every segment class the plan emits:
# same-line runs (MRU), flush runs over both previously-touched and
# cold lines, reloads whose misses are guaranteed by a preceding flush,
# adjacent lines (so next-line prefetches land on later ops) and plain
# mixed probes.  Each entry is (kind, line, run length); tiling the
# round makes segments repeat across slices.
_round_ops = st.lists(
    st.tuples(st.sampled_from(("load", "store", "flush", "probe")),
              st.integers(0, 24), st.integers(1, 4)),
    min_size=1, max_size=30,
)
_interlopers = st.lists(
    st.tuples(st.booleans(), st.one_of(st.none(), st.integers(0, 24))),
    max_size=4,
)
_events = st.permutations(
    ("LOADS", "STORES", "CACHE_FLUSHES", "L1D_MISSES", "L2_MISSES",
     "LLC_REFERENCES", "LLC_MISSES")).map(lambda names: names[:4])


def _build_trace(round_spec, repeats, ipo, event_scale, cpi):
    ops = []
    for kind, index, length in round_spec:
        if kind == "probe":
            # Page-spaced probe lines (the Flush+Reload shape).
            op = MemOp(0x400_0000 + index * 4096, OpKind.LOAD)
        else:
            op = MemOp(index * LINE, OpKind[kind.upper()])
        ops.extend([op] * length)
    block = TraceBlock(ops=tuple(ops) * repeats,
                       instructions_per_op=float(ipo),
                       event_scale=float(event_scale), cpi=float(cpi))
    return ListProgram("prop-batch", [block])


class TestBatchReplayEquivalence:
    @given(_round_ops,
           st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=6),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=3),
           budget_lists, _interlopers, _events,
           st.booleans(), st.sampled_from((LINE, 2 * LINE)))
    # Slice boundaries that land on a shortcut op, with the line touched
    # in between: a resumed MRU repeat whose line was flushed, and a
    # flush-guarded reload whose line was re-filled.
    @example(round_spec=[("load", 0, 3)], repeats=1, ipo=0, event_scale=1,
             cpi=1, budgets=[50], interlopers=[(True, None)],
             events=("LOADS", "STORES", "CACHE_FLUSHES", "L1D_MISSES"),
             prefetch=False, l2_line=LINE)
    @example(round_spec=[("flush", 0, 1), ("load", 1, 1), ("load", 0, 1)],
             repeats=1, ipo=0, event_scale=1, cpi=1, budgets=[50],
             interlopers=[(False, None)],
             events=("LOADS", "STORES", "CACHE_FLUSHES", "L1D_MISSES"),
             prefetch=False, l2_line=LINE)
    @settings(max_examples=150, deadline=None)
    def test_batch_matches_scalar_bit_for_bit(self, round_spec, repeats,
                                              ipo, event_scale, cpi,
                                              budgets, interlopers, events,
                                              prefetch, l2_line):
        """Segment-batched replay is observationally identical to the
        per-op oracle — instructions, consumed time, every PMU counter,
        the cache statistics and the LRU contents of every set — under
        arbitrary preemption slicing, with cache traffic between
        slices, the prefetcher on or off, and equal or unequal line
        sizes."""
        program = _build_trace(round_spec, repeats, ipo, event_scale, cpi)

        def hierarchy():
            return small_hierarchy(l2_line=l2_line, prefetch=prefetch)

        batch = replay(program, budgets, events, interlopers, hierarchy,
                       oracle=False)
        oracle = replay(program, budgets, events, interlopers, hierarchy,
                        oracle=True)
        assert batch == oracle
