"""Simulated CPU core.

The core turns workload blocks into elapsed time and PMU event counts:

* :class:`~repro.workloads.base.RateBlock` — instructions convert to
  cycles via the block's CPI; events accrue at the block's
  per-instruction rates.
* :class:`~repro.workloads.base.TraceBlock` — each memory operation is
  replayed through the cache hierarchy; its latency is charged and its
  cache events (LLC references/misses, ...) are recorded.  Each
  simulated operation folds in ``event_scale`` real memory instructions
  with spatial locality (the folded accesses hit L1 and cost ``cpi``).
* :class:`~repro.workloads.base.SyscallBlock` — execution stops and the
  block is handed back so the kernel can service the trap.

Execution is *sliced*: the kernel bounds each call by the time of the
next simulation event (timer fire, quantum expiry), and the cursor
resumes mid-block after preemption.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional

import numpy as np

from repro.errors import SimulationError
from repro.hw.cache import CacheHierarchy
from repro.hw.pmu import Pmu
from repro.workloads.base import (
    KIND_FLUSH,
    KIND_STORE,
    BlockCursor,
    RateBlock,
    SyscallBlock,
    TraceBlock,
)

_FLUSH_LATENCY_CYCLES = 40
_EPSILON_NS = 1e-6

# Column order of the per-slice epoch accumulation: retirement and
# time, the memory-instruction mix, then the cache events from L1 out.
# Each counter counts exactly one event, so the order only fixes the
# layout of the PMU's compiled apply list.
_EPOCH_EVENTS = (
    "INST_RETIRED", "CORE_CYCLES", "REF_CYCLES",
    "LOADS", "STORES", "CACHE_FLUSHES",
    "L1D_MISSES", "L2_MISSES", "LLC_REFERENCES", "LLC_MISSES",
)


class _TracePlan(NamedTuple):
    """Precompiled replay plan for one trace under one cache geometry.

    Holds only integers derived from op addresses, the level
    shift/mask geometry and the prefetch flag — never references into a
    live hierarchy — so one plan serves every cache instance with the
    same geometry (each trial builds a fresh hierarchy).  Columns are
    Python lists: replay indexes them one op at a time.
    """

    kindcat: list    # per op: 0 probe, 1 MRU repeat, 2 flush, 3 sure miss
    seg_end: list    # end of the maximal same-category run holding the op
    guard_min: list  # guaranteed-miss guard, suffix-min over its run
    se1: list        # per-level set index and tag
    tg1: list
    se2: list
    tg2: list
    se3: list
    tg3: list
    pre_store: list  # prefix counts of stores / flushes (length n + 1)
    pre_flush: list


def _trace_plan(addresses: np.ndarray, kinds: np.ndarray,
                key: tuple) -> _TracePlan:
    """Compile the replay plan for one trace.

    A pure function of the trace's address and kind columns and
    ``key``: the hierarchy's ``(line shift, set mask, tag shift)`` per
    level followed by its next-line prefetch flag.  With the prefetcher
    on, the plan emits no MRU and no guaranteed-miss ops: a prefetch
    fill can install the line the guard proved absent (and, in a
    degenerate geometry, evict the MRU line), so every access probes.
    """
    s1, m1, t1, s2, m2, t2, s3, m3, t3, prefetch = key
    n = len(addresses)
    line1 = addresses >> s1
    line2 = addresses >> s2
    line3 = addresses >> s3
    flushes = kinds == KIND_FLUSH
    accesses = ~flushes
    kindcat = np.where(flushes, 2, 0).astype(np.int8)
    # MRU mask: an access whose predecessor is an access to the same L1
    # line is a guaranteed hit (the line is most-recently-used and the
    # shortcut mutates nothing).  The first op of each execution slice
    # is forced down the probe path at replay time, because another
    # program may have touched the line between slices.
    if n > 1 and not prefetch:
        mru = accesses[1:] & accesses[:-1] & (line1[1:] == line1[:-1])
        kindcat[1:][mru] = 1

    # Guaranteed-miss analysis (Flush+Reload's reload pass): an access
    # whose most recent same-line predecessor *within this trace* is a
    # flush must miss every level — provided the flush executed in the
    # same slice, because nothing else can run (and so nothing can
    # re-insert the line) between two ops of one replay call.  guard[i]
    # records that flush's op index (-1 when the guarantee cannot be
    # made statically); replay checks guard >= slice start at run time.
    # Only valid when every level shares one line size, so "same line"
    # means the same bytes at every level.  An MRU op's predecessor is
    # a same-line access, so no MRU op is ever guarded.
    guard = np.full(n, -1, dtype=np.int64)
    if s1 == s2 == s3 and n > 1 and not prefetch:
        # A stable sort by line puts each op right after its most
        # recent same-line predecessor.
        order = np.argsort(line1, kind="stable")
        by_line = line1[order]
        same = by_line[1:] == by_line[:-1]
        previous = np.full(n, -1, dtype=np.int64)
        previous[order[1:][same]] = order[:-1][same]
        guarded = accesses & (previous >= 0) & flushes[previous]
        guard[guarded] = previous[guarded]
        kindcat[guarded] = 3

    # Segment table: for every op, the end of the maximal run of ops of
    # its category, so replay consumes flush/MRU/guaranteed-miss runs
    # in O(1) and walks probe runs in one tight inner loop.
    boundaries = np.flatnonzero(kindcat[1:] != kindcat[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [n]))
    lengths = ends - starts
    seg_end = np.repeat(ends, lengths)
    # Suffix-min of guard over each run: the whole remainder of a
    # guaranteed-miss run is provably absent iff every member's flush
    # happened at or after the slice start.  Offsetting each run by a
    # multiple of a span wider than guard's range [-1, n) makes one
    # reversed running minimum restart at every run boundary.
    span = n + 2
    offset = np.repeat(np.arange(len(starts), dtype=np.int64) * span,
                       lengths)
    guard_min = np.minimum.accumulate((guard + offset)[::-1])[::-1] - offset

    pre_store = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(kinds == KIND_STORE, out=pre_store[1:])
    pre_flush = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(flushes, out=pre_flush[1:])
    return _TracePlan(
        kindcat=kindcat.tolist(),
        seg_end=seg_end.tolist(),
        guard_min=guard_min.tolist(),
        se1=(line1 & m1).tolist(), tg1=(line1 >> t1).tolist(),
        se2=(line2 & m2).tolist(), tg2=(line2 >> t2).tolist(),
        se3=(line3 & m3).tolist(), tg3=(line3 >> t3).tolist(),
        pre_store=pre_store.tolist(),
        pre_flush=pre_flush.tolist(),
    )


def _commit_stats(cache: CacheHierarchy, n_flush: int, n_access: int,
                  l1h: int, l1m: int, l2h: int, l2m: int, l3h: int,
                  l3m: int) -> None:
    """Add one replay slice's counts to the cache statistics."""
    stats = cache.stats
    stats.flushes += n_flush
    if n_access:
        stats.accesses += n_access
        misses = stats.misses
        misses["memory"] += l3m
        for (level, *_, name), hit, miss in zip(
                cache._descriptors, (l1h, l2h, l3h), (l1m, l2m, l3m)):
            level.hits += hit
            level.misses += miss
            stats.hits[name] += hit
            misses[name] += miss


class ExecStop(enum.Enum):
    """Why :meth:`Core.execute` returned."""

    BUDGET = "budget"              # time slice exhausted
    PROGRAM_DONE = "program-done"  # block stream exhausted
    SYSCALL = "syscall"            # program trapped into the kernel


@dataclass
class ExecResult:
    """Outcome of one execution slice."""

    consumed_ns: int
    instructions: float
    stop: ExecStop
    syscall: Optional[SyscallBlock] = None


class Core:
    """One CPU core: executes block streams against a PMU and caches."""

    def __init__(self, frequency_hz: float, pmu: Pmu, cache: CacheHierarchy,
                 tsc_ratio: float = 1.0) -> None:
        if frequency_hz <= 0:
            raise SimulationError("core frequency must be positive")
        if len(cache.levels) != 3:
            # The trace executor is unrolled over L1D/L2/LLC: a per-level
            # loop costs the miss path, which is the hot path.
            raise SimulationError(
                f"the core needs a 3-level cache hierarchy (L1D, L2, LLC), "
                f"got {len(cache.levels)} level(s)")
        self.frequency_hz = frequency_hz
        self.pmu = pmu
        self.cache = cache
        self.tsc_ratio = tsc_ratio
        self._ns_per_cycle = 1e9 / frequency_hz

    def cycles_to_ns(self, cycles: float) -> float:
        return cycles * self._ns_per_cycle

    def ns_to_cycles(self, ns: float) -> float:
        return ns / self._ns_per_cycle

    def execute(self, cursor: BlockCursor, budget_ns: int) -> ExecResult:
        """Run the program at ``cursor`` for at most ``budget_ns``.

        A trace operation whose latency straddles the budget boundary is
        completed (slight overshoot), mirroring how a real CPU cannot
        abandon an in-flight memory access; callers advance the clock by
        the *actual* consumed time.
        """
        if budget_ns < 0:
            raise SimulationError(f"negative execution budget {budget_ns}")
        consumed = 0.0
        instructions = 0.0
        while consumed < budget_ns - _EPSILON_NS:
            block = cursor.peek()
            if block is None:
                return ExecResult(int(round(consumed)), instructions,
                                  ExecStop.PROGRAM_DONE)
            if isinstance(block, SyscallBlock):
                cursor.advance()
                return ExecResult(int(round(consumed)), instructions,
                                  ExecStop.SYSCALL, syscall=block)
            if isinstance(block, RateBlock):
                step_ns, step_instr = self._run_rate(
                    cursor, block, budget_ns - consumed
                )
            elif isinstance(block, TraceBlock):
                step_ns, step_instr = self._run_trace(
                    cursor, block, budget_ns - consumed
                )
            else:  # pragma: no cover - the Block union is closed
                raise SimulationError(f"unknown block type {type(block).__name__}")
            consumed += step_ns
            instructions += step_instr
            if step_ns <= 0 and step_instr <= 0:
                # Zero-width block (e.g. empty trace); skip it.
                cursor.advance()
        return ExecResult(int(round(consumed)), instructions, ExecStop.BUDGET)

    # ------------------------------------------------------------------
    def _run_rate(self, cursor: BlockCursor, block: RateBlock,
                  budget_ns: float) -> tuple:
        cycles_available = self.ns_to_cycles(budget_ns)
        instr_possible = cycles_available / block.cpi
        take = min(block.instructions, instr_possible)
        if take <= 0:
            cursor.consume_instructions(block.instructions)
            return 0.0, 0.0
        cycles = take * block.cpi
        events: Dict[str, float] = {
            name: rate * take for name, rate in block.rates.items()
        }
        events["INST_RETIRED"] = take
        events["CORE_CYCLES"] = cycles
        events["REF_CYCLES"] = cycles * self.tsc_ratio
        self.pmu.accumulate(events, block.privilege)
        cursor.consume_instructions(take)
        return self.cycles_to_ns(cycles), take

    def _run_trace(self, cursor: BlockCursor, block: TraceBlock,
                   budget_ns: float) -> tuple:
        """Segment-batched trace replay, the core's one trace executor.

        Replays the slice as precompiled *segments* instead of ops:
        maximal same-line (MRU) runs retire in O(1) with an exact
        closed-form budget cut, guaranteed-miss runs skip their
        membership probes, and flush and probe ops read their set
        indices and tags from the plan's precomputed columns instead
        of re-deriving them from the address.  Statistics accumulate
        in flat locals flushed once per slice, and the PMU receives one
        epoch-accumulation call.

        The semantic definition is a per-op walk over
        :meth:`CacheHierarchy.access` / :meth:`CacheHierarchy.clflush`
        that charges ``folded_cycles + latency`` per op and checks
        ``cycles < budget`` before each one.  Every cache mutation here
        happens with the same semantics as that walk (MRU shortcuts
        mutate nothing; a probe that misses a level fills it at once,
        which the walk does after probing — levels are separate sets,
        so the order is unobservable).  Costs accumulate as floats: run
        segments charge ``n * cost`` where the walk adds ``cost`` n
        times, which agree exactly whenever the costs are integral
        (sums of integers below 2**53 are exact).
        """
        budget_cycles = self.ns_to_cycles(budget_ns)
        event_scale = float(block.event_scale)
        # Per-op retired instructions: flush and access ops both retire
        # instructions_per_op + event_scale (the flush itself or the
        # probing access plus the folded line-local accesses).
        op_instructions = float(block.instructions_per_op + block.event_scale)
        folded_cycles = (op_instructions - 1.0) * block.cpi
        cache = self.cache
        prefetch = cache.prefetch_next_line
        d1, d2, d3 = cache._descriptors
        level1, s1, m1, t1, sets1, w1, _n1 = d1
        level2, s2, m2, t2, sets2, w2, _n2 = d2
        level3, s3, m3, t3, sets3, w3, _n3 = d3
        plan = block.ops.derive((s1, m1, t1, s2, m2, t2, s3, m3, t3, prefetch),
                                _trace_plan)
        cost_mru = folded_cycles + level1.config.hit_latency_cycles
        cost_l2 = folded_cycles + level2.config.hit_latency_cycles
        cost_l3 = folded_cycles + level3.config.hit_latency_cycles
        cost_miss = folded_cycles + cache.memory_latency_cycles
        cost_flush = folded_cycles + _FLUSH_LATENCY_CYCLES

        kindcat = plan.kindcat
        seg_end = plan.seg_end
        guard_min = plan.guard_min
        se1, tg1 = plan.se1, plan.tg1
        se2, tg2 = plan.se2, plan.tg2
        se3, tg3 = plan.se3, plan.tg3

        cycles = 0.0
        l1h = l1m = l2h = l2m = l3h = l3m = 0
        start = cursor.op_index
        p = start
        total = len(kindcat)
        while p < total and cycles < budget_cycles:
            cat = kindcat[p]
            if cat == 1 and p == start:
                # Resuming mid-run: the predecessor ran in an earlier
                # slice and another program may have touched the line
                # since, so probe.  If the line is still MRU, the hit's
                # remove-and-append leaves the set's order unchanged.
                cat = 0
            elif cat == 3:
                # Only ops whose covering flush executed inside *this*
                # slice are provably absent; older guards mean another
                # program may have re-filled the line between slices,
                # so those ops take the full probe.
                if guard_min[p] < start:
                    cat = 0
            if cat == 0:
                # Probe run: per-op budget checks stay (each op's cost
                # depends on the hit level), but segment dispatch is
                # hoisted out of the loop.  Demoted ops (a resumed MRU
                # or an unprovable guaranteed-miss) probe exactly one
                # op before re-entering the dispatcher.
                e = seg_end[p] if kindcat[p] == 0 else p + 1
                while True:
                    tag1 = tg1[p]
                    entries1 = sets1[se1[p]]
                    if tag1 in entries1:
                        entries1.remove(tag1)
                        entries1.append(tag1)
                        l1h += 1
                        cycles += cost_mru
                    else:
                        l1m += 1
                        if len(entries1) >= w1:
                            del entries1[0]
                        entries1.append(tag1)
                        tag2 = tg2[p]
                        entries2 = sets2[se2[p]]
                        if tag2 in entries2:
                            entries2.remove(tag2)
                            entries2.append(tag2)
                            l2h += 1
                            cycles += cost_l2
                        else:
                            l2m += 1
                            if len(entries2) >= w2:
                                del entries2[0]
                            entries2.append(tag2)
                            tag3 = tg3[p]
                            entries3 = sets3[se3[p]]
                            if tag3 in entries3:
                                entries3.remove(tag3)
                                entries3.append(tag3)
                                l3h += 1
                                cycles += cost_l3
                            else:
                                l3m += 1
                                cycles += cost_miss
                                if len(entries3) >= w3:
                                    del entries3[0]
                                entries3.append(tag3)
                                if prefetch:
                                    # After the demand fills, as in
                                    # CacheHierarchy.access.
                                    cache._prefetch(int(block.ops.addresses[p])
                                                    + cache._line_bytes)
                    p += 1
                    if p >= e or cycles >= budget_cycles:
                        break
                continue
            # Run segment (MRU, flush or guaranteed miss): take as many
            # ops as the budget admits.  The per-op walk checks
            # ``cycles < budget`` *before* each op, so op k of the run
            # executes iff cycles + k*cost is under budget; the floor
            # estimate is corrected to exactly that condition.
            length = seg_end[p] - p
            cost = (cost_mru if cat == 1
                    else cost_flush if cat == 2 else cost_miss)
            if cost <= 0:
                n = length
            else:
                n = int((budget_cycles - cycles) // cost) + 1
                if n > length:
                    n = length
                while n > 0 and cycles + (n - 1) * cost >= budget_cycles:
                    n -= 1
                while n < length and cycles + n * cost < budget_cycles:
                    n += 1
            stop = p + n
            if cat == 1:
                l1h += n
            elif cat == 2:
                for si1, ti1, si2, ti2, si3, ti3 in zip(
                        se1[p:stop], tg1[p:stop], se2[p:stop], tg2[p:stop],
                        se3[p:stop], tg3[p:stop]):
                    # The freed way stays a hole: no placeholder tag.
                    entries1 = sets1[si1]
                    if ti1 in entries1:
                        entries1.remove(ti1)
                    entries2 = sets2[si2]
                    if ti2 in entries2:
                        entries2.remove(ti2)
                    entries3 = sets3[si3]
                    if ti3 in entries3:
                        entries3.remove(ti3)
            else:
                # Guaranteed-miss run: every op misses L1/L2/L3 and
                # fills every level, so the membership probes are
                # skipped and only the fills (evict-if-full + insert
                # per level) are applied.  The plan emits no such run
                # with the prefetcher on, so no prefetch is owed here.
                for si3, ti3, si2, ti2, si1, ti1 in zip(
                        se3[p:stop], tg3[p:stop], se2[p:stop], tg2[p:stop],
                        se1[p:stop], tg1[p:stop]):
                    entries3 = sets3[si3]
                    if len(entries3) >= w3:
                        del entries3[0]
                    entries3.append(ti3)
                    entries2 = sets2[si2]
                    if len(entries2) >= w2:
                        del entries2[0]
                    entries2.append(ti2)
                    entries1 = sets1[si1]
                    if len(entries1) >= w1:
                        del entries1[0]
                    entries1.append(ti1)
                l1m += n
                l2m += n
                l3m += n
            cycles += n * cost
            p = stop

        ops_done = p - start
        if not ops_done:
            return 0.0, 0.0
        pre_flush = plan.pre_flush
        pre_store = plan.pre_store
        n_flush = pre_flush[p] - pre_flush[start]
        n_access = ops_done - n_flush
        n_store = pre_store[p] - pre_store[start]
        instructions = ops_done * op_instructions
        _commit_stats(cache, n_flush, n_access, l1h, l1m, l2h, l2m, l3h, l3m)
        self.pmu.accumulate_epoch(
            _EPOCH_EVENTS,
            (instructions, cycles, cycles * self.tsc_ratio,
             (n_access - n_store) * event_scale, n_store * event_scale,
             float(n_flush), float(l1m), float(l2m), float(l2m), float(l3m)),
            block.privilege)
        cursor.consume_ops(ops_done)
        return self.cycles_to_ns(cycles), instructions
