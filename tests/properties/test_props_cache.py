"""Property-based tests for the cache hierarchy."""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.hw.cache import CacheConfig, CacheHierarchy, CacheLevel
from repro.hw.core import Core, ExecStop
from repro.hw.pmu import Pmu
from repro.workloads.base import BlockCursor, ListProgram, Trace, TraceBlock

LINE = 64


def small_hierarchy():
    return CacheHierarchy(
        [
            CacheConfig("L1D", 4 * LINE, ways=2, hit_latency_cycles=4),
            CacheConfig("LLC", 16 * LINE, ways=4, hit_latency_cycles=30),
        ],
        memory_latency_cycles=100,
    )


addresses = st.integers(min_value=0, max_value=64 * LINE)
address_lists = st.lists(addresses, min_size=1, max_size=200)


class TestCacheInvariants:
    @given(address_lists)
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, trace):
        hierarchy = small_hierarchy()
        for address in trace:
            hierarchy.access(address)
        for level in hierarchy.levels:
            capacity = level.config.num_sets * level.config.ways
            assert level.occupancy <= capacity

    @given(address_lists)
    @settings(max_examples=50, deadline=None)
    def test_immediate_reaccess_always_hits_l1(self, trace):
        hierarchy = small_hierarchy()
        for address in trace:
            hierarchy.access(address)
            result = hierarchy.access(address)
            assert result.hit_level == "L1D"

    @given(address_lists)
    @settings(max_examples=50, deadline=None)
    def test_hits_plus_memory_misses_equals_accesses(self, trace):
        hierarchy = small_hierarchy()
        for address in trace:
            hierarchy.access(address)
        total_hits = sum(hierarchy.stats.hits.values())
        memory_misses = hierarchy.stats.misses.get("memory", 0)
        assert total_hits + memory_misses == hierarchy.stats.accesses

    @given(address_lists)
    @settings(max_examples=50, deadline=None)
    def test_llc_misses_monotone_in_trace_prefix(self, trace):
        """Replaying a prefix can never produce more misses than the
        full trace."""
        full = small_hierarchy()
        for address in trace:
            full.access(address)
        prefix = small_hierarchy()
        for address in trace[: len(trace) // 2]:
            prefix.access(address)
        assert prefix.stats.misses.get("memory", 0) <= \
            full.stats.misses.get("memory", 0)

    @given(address_lists)
    @settings(max_examples=50, deadline=None)
    def test_fast_and_slow_paths_agree(self, trace):
        """The core's trace executor (the fast path) leaves the same
        statistics and LRU contents as one ``access`` call per op."""
        def three_levels():
            return CacheHierarchy(
                [
                    CacheConfig("L1D", 4 * LINE, ways=2),
                    CacheConfig("L2", 16 * LINE, ways=4),
                    CacheConfig("LLC", 64 * LINE, ways=8),
                ],
                memory_latency_cycles=100,
            )

        slow = three_levels()
        for address in trace:
            slow.access(address)
        fast = three_levels()
        cursor = BlockCursor(ListProgram("trace",
                                         [TraceBlock(Trace(trace))]))
        result = Core(frequency_hz=1e9, pmu=Pmu(), cache=fast).execute(
            cursor, budget_ns=10**9)
        assert result.stop is ExecStop.PROGRAM_DONE
        assert fast.stats == slow.stats
        for fast_level, slow_level in zip(fast.levels, slow.levels):
            assert fast_level._sets == slow_level._sets

    @given(address_lists, addresses)
    @settings(max_examples=50, deadline=None)
    def test_flush_guarantees_next_access_misses(self, trace, victim):
        hierarchy = small_hierarchy()
        for address in trace:
            hierarchy.access(address)
        hierarchy.clflush(victim)
        result = hierarchy.access(victim)
        assert result.hit_level is None

    @given(address_lists)
    @settings(max_examples=30, deadline=None)
    def test_flush_all_resets_to_cold(self, trace):
        hierarchy = small_hierarchy()
        for address in trace:
            hierarchy.access(address)
        hierarchy.flush_all()
        for level in hierarchy.levels:
            assert level.occupancy == 0


class OrderedDictLru:
    """Reference LRU level: one ``OrderedDict`` per set, oldest first.

    The straightforward model :class:`CacheLevel`'s tag lists must
    reproduce call for call."""

    def __init__(self, config):
        self.ways = config.ways
        self.num_sets = config.num_sets
        self.line_bytes = config.line_bytes
        self.sets = [OrderedDict() for _ in range(config.num_sets)]
        self.hits = 0
        self.misses = 0

    def _locate(self, address):
        line = address // self.line_bytes
        return self.sets[line % self.num_sets], line // self.num_sets

    def lookup(self, address):
        entries, tag = self._locate(address)
        if tag in entries:
            entries.move_to_end(tag)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, address):
        entries, tag = self._locate(address)
        evicted = None
        if tag not in entries and len(entries) >= self.ways:
            evicted, _ = entries.popitem(last=False)
        entries[tag] = True
        entries.move_to_end(tag)
        return evicted

    def invalidate(self, address):
        entries, tag = self._locate(address)
        return entries.pop(tag, None) is not None

    def contains(self, address):
        entries, tag = self._locate(address)
        return tag in entries

    def flush_all(self):
        for entries in self.sets:
            entries.clear()


@st.composite
def lru_scenarios(draw):
    """A small geometry (one set, or 2-4 sets of 1-4 ways) and a random
    operation sequence over few enough lines to force evictions."""
    num_sets = draw(st.sampled_from([1, 2, 4]))
    ways = draw(st.integers(min_value=1, max_value=8 if num_sets == 1 else 4))
    config = CacheConfig("L", num_sets * ways * LINE, ways=ways)
    lines = 3 * num_sets * ways
    op = st.tuples(
        st.sampled_from(["lookup", "fill", "invalidate", "contains",
                         "flush_all"]),
        st.integers(min_value=0, max_value=lines - 1),
        st.integers(min_value=0, max_value=LINE - 1),
    )
    ops = draw(st.lists(op, min_size=1, max_size=120))
    return config, ops


class TestLruMatchesOrderedDictReference:
    @given(lru_scenarios())
    @settings(max_examples=200, deadline=None)
    def test_every_return_value_and_set_order_agree(self, scenario):
        config, ops = scenario
        level = CacheLevel(config)
        reference = OrderedDictLru(config)
        for name, line, offset in ops:
            if name == "flush_all":
                level.flush_all()
                reference.flush_all()
            else:
                address = line * LINE + offset
                assert getattr(level, name)(address) == \
                    getattr(reference, name)(address), (name, address)
            assert (level.hits, level.misses) == \
                (reference.hits, reference.misses)
            assert level._sets == [list(entries)
                                   for entries in reference.sets]
        assert level.occupancy == sum(len(e) for e in reference.sets)
