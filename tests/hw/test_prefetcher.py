"""Next-line prefetcher behaviour."""

from dataclasses import replace

import numpy as np

from repro.hw.cache import CacheConfig, CacheHierarchy
from repro.hw.core import Core, ExecStop
from repro.hw.machine import Machine
from repro.hw.pmu import Pmu
from repro.hw.presets import i7_920
from repro.workloads.base import (
    KIND_FLUSH,
    KIND_LOAD,
    BlockCursor,
    ListProgram,
    Trace,
    TraceBlock,
)

LINE = 64


def hierarchy(prefetch):
    return CacheHierarchy(
        [
            CacheConfig("L1D", 8 * LINE, ways=2, hit_latency_cycles=4),
            CacheConfig("L2", 16 * LINE, ways=4, hit_latency_cycles=12),
            CacheConfig("LLC", 64 * LINE, ways=4, hit_latency_cycles=30),
        ],
        memory_latency_cycles=100,
        prefetch_next_line=prefetch,
    )


def program(addresses, kinds=None):
    return ListProgram("trace", [TraceBlock(Trace(addresses, kinds))])


class TestPrefetch:
    def test_sequential_stream_hits_after_first_miss(self):
        cache = hierarchy(prefetch=True)
        first = cache.access(0)
        assert first.hit_level is None       # cold demand miss
        second = cache.access(LINE)          # prefetched by the miss
        assert second.hit_level == "L1D"

    def test_disabled_by_default(self):
        cache = hierarchy(prefetch=False)
        cache.access(0)
        result = cache.access(LINE)
        assert result.hit_level is None
        assert cache.stats.prefetches == 0

    def test_prefetch_counted_in_stats(self):
        cache = hierarchy(prefetch=True)
        cache.access(0)
        assert cache.stats.prefetches == 1

    def test_cache_hit_does_not_prefetch(self):
        cache = hierarchy(prefetch=True)
        cache.access(0)
        prefetches = cache.stats.prefetches
        cache.access(0)                      # L1 hit
        assert cache.stats.prefetches == prefetches

    def test_fast_path_prefetches_too(self):
        """The core's trace executor runs the prefetcher as well."""
        cache = hierarchy(prefetch=True)
        core = Core(frequency_hz=1e9, pmu=Pmu(), cache=cache)
        cursor = BlockCursor(program([0, LINE]))
        result = core.execute(cursor, budget_ns=1_000_000)
        assert result.stop is ExecStop.PROGRAM_DONE
        assert result.consumed_ns == 100 + 4  # memory, then L1 hit
        assert cache.stats.misses["memory"] == 1
        assert cache.stats.hits["L1D"] == 1
        assert cache.stats.prefetches == 1

    def test_sequential_stream_miss_rate_halves(self):
        """A unit-stride sweep misses every other line at worst."""
        with_pf = hierarchy(prefetch=True)
        without_pf = hierarchy(prefetch=False)
        for index in range(32):
            with_pf.access(index * LINE)
            without_pf.access(index * LINE)
        assert without_pf.stats.misses["memory"] == 32
        assert with_pf.stats.misses["memory"] == 16


class TestMeltdownProbeSpacing:
    """Why the PoC (and our attack model) page-spaces its probes."""

    @staticmethod
    def _reload_misses(stride):
        config = replace(i7_920(), prefetch_next_line=True)
        cache = Machine(config).cache
        base = 0x4000_0000
        probes = [base + index * stride for index in range(64)]
        for address in probes:
            cache.clflush(address)
        cache.access(probes[33])             # the transient access
        before = cache.stats.misses.get("memory", 0)
        for address in probes:
            cache.access(address)
        return cache.stats.misses.get("memory", 0) - before

    def test_page_spaced_probes_survive_prefetcher(self):
        # 63 misses + 1 hit (the leaked byte): full signal.
        assert self._reload_misses(4096) == 63

    def test_line_spaced_probes_are_destroyed_by_prefetcher(self):
        """Adjacent probes get prefetched: most reloads 'hit' and the
        side channel cannot tell the leaked byte apart."""
        assert self._reload_misses(64) <= 40


class TestFlushReloadThroughCore:
    """The same facts with the reload pass replayed by the core's trace
    executor.  Each reload runs as its own 1 ns slice (the in-flight op
    always completes), so the slice's consumed time is that probe's
    latency — the attacker's rdtsc measurement."""

    @staticmethod
    def _fast_probes(stride):
        core = Machine(replace(i7_920(), prefetch_next_line=True)).core
        probes = 0x4000_0000 + np.arange(64) * stride
        # Flush every probe line, then the transient access to probe 33.
        setup = program(np.append(probes, probes[33]),
                        [KIND_FLUSH] * 64 + [KIND_LOAD])
        assert core.execute(BlockCursor(setup), 10**9).stop \
            is ExecStop.PROGRAM_DONE
        cursor = BlockCursor(program(probes))
        latencies = []
        while True:
            result = core.execute(cursor, budget_ns=1)
            if result.stop is ExecStop.PROGRAM_DONE:
                break
            latencies.append(result.consumed_ns)
        assert len(latencies) == 64
        memory_ns = core.cycles_to_ns(core.cache.memory_latency_cycles)
        return [index for index, latency in enumerate(latencies)
                if latency < memory_ns / 2]

    def test_page_spaced_probes_leak_the_byte(self):
        assert self._fast_probes(4096) == [33]

    def test_line_spaced_probes_hide_the_byte(self):
        fast = self._fast_probes(64)
        assert 33 in fast and len(fast) >= 16
