"""The vectorised trace-plan compiler against a per-op loop oracle.

``reference_plan`` is the loop-based compiler the core shipped before
plans were built with numpy.  It walks the trace one op at a time, so
it is slow but easy to check by eye; the property below requires the
vectorised :func:`repro.hw.core._trace_plan` to match it field for
field on arbitrary traces and geometries.
"""

from typing import Dict

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hw.core import _trace_plan
from repro.workloads.base import KIND_FLUSH, KIND_LOAD, KIND_STORE


def reference_plan(addresses, kinds, geometry) -> Dict[str, list]:
    """Per-op loop compiler: the oracle for ``_trace_plan``."""
    s1, m1, t1, s2, m2, t2, s3, m3, t3 = geometry
    addresses = [int(address) for address in addresses]
    kinds = [int(kind) for kind in kinds]
    n = len(addresses)
    line1 = [address >> s1 for address in addresses]
    line2 = [address >> s2 for address in addresses]
    line3 = [address >> s3 for address in addresses]

    # Category 2 is a flush, 1 an access whose predecessor is an
    # access to the same L1 line (MRU), 3 a guaranteed miss, 0 a probe.
    kindcat = []
    for i in range(n):
        if kinds[i] == KIND_FLUSH:
            kindcat.append(2)
        elif (i > 0 and kinds[i - 1] != KIND_FLUSH
              and line1[i - 1] == line1[i]):
            kindcat.append(1)
        else:
            kindcat.append(0)

    # An access whose most recent same-line predecessor is a flush is
    # guarded by that flush's index; only with one line size throughout.
    guard = [-1] * n
    if s1 == s2 == s3:
        last_touch: Dict[int, int] = {}
        for i in range(n):
            line = line1[i]
            previous = last_touch.get(line)
            if kinds[i] == KIND_FLUSH:
                last_touch[line] = ~i  # flushes encode as ~index
            else:
                if previous is not None and previous < 0:
                    guard[i] = ~previous
                    if kindcat[i] == 0:
                        kindcat[i] = 3
                last_touch[line] = i

    seg_end = [0] * n
    for i in range(n - 1, -1, -1):
        if i + 1 < n and kindcat[i + 1] == kindcat[i]:
            seg_end[i] = seg_end[i + 1]
        else:
            seg_end[i] = i + 1
    guard_min = list(guard)
    for i in range(n - 2, -1, -1):
        if kindcat[i] == 3 and kindcat[i + 1] == 3:
            guard_min[i] = min(guard_min[i], guard_min[i + 1])

    pre_store = [0]
    pre_flush = [0]
    for kind in kinds:
        pre_store.append(pre_store[-1] + (kind == KIND_STORE))
        pre_flush.append(pre_flush[-1] + (kind == KIND_FLUSH))
    return {
        "kindcat": kindcat,
        "seg_end": seg_end,
        "guard_min": guard_min,
        "se1": [line & m1 for line in line1],
        "tg1": [line >> t1 for line in line1],
        "se2": [line & m2 for line in line2],
        "tg2": [line >> t2 for line in line2],
        "se3": [line & m3 for line in line3],
        "tg3": [line >> t3 for line in line3],
        "pre_store": pre_store,
        "pre_flush": pre_flush,
    }


def _level(line_shift: int, set_bits: int) -> tuple:
    return (line_shift, (1 << set_bits) - 1, set_bits)


def compile_both(addresses, kinds, geometry):
    addresses = np.asarray(addresses, dtype=np.int64)
    kinds = np.asarray(kinds, dtype=np.int8)
    return (_trace_plan(addresses, kinds, geometry)._asdict(),
            reference_plan(addresses, kinds, geometry))


# A trace is a list of runs; each run repeats one (kind, line) op, so
# same-line runs, flush runs and flush->reload pairs whose guard spans
# run boundaries all occur often.  Lines are drawn from a small pool so
# reloads usually find an earlier flush of the same line.
_runs = st.lists(
    st.tuples(st.sampled_from((KIND_LOAD, KIND_STORE, KIND_FLUSH)),
              st.integers(0, 12),          # line index
              st.integers(0, 63),          # byte offset within the line
              st.integers(1, 5)),          # run length
    max_size=40,
)
_geometries = st.one_of(
    # One line size at every level: the guaranteed-miss guard is live.
    st.tuples(st.integers(4, 7), st.integers(0, 3), st.integers(0, 4),
              st.integers(0, 5)).map(
        lambda g: _level(g[0], g[1]) + _level(g[0], g[2])
        + _level(g[0], g[3])),
    # Unequal line sizes: the guard is disabled.
    st.tuples(st.integers(4, 7), st.integers(4, 7), st.integers(4, 7),
              st.integers(0, 3), st.integers(0, 4), st.integers(0, 5)).map(
        lambda g: _level(g[0], g[3]) + _level(g[1], g[4])
        + _level(g[2], g[5])),
)


def _expand(runs):
    addresses, kinds = [], []
    for kind, line, offset, length in runs:
        for repeat in range(length):
            addresses.append(0x1000 + line * 64 + (offset + repeat) % 64)
            kinds.append(kind)
    return addresses, kinds


class TestPlanMatchesLoopOracle:
    @given(_runs, _geometries)
    @settings(max_examples=300, deadline=None)
    def test_vectorised_plan_equals_reference(self, runs, geometry):
        addresses, kinds = _expand(runs)
        vectorised, reference = compile_both(addresses, kinds, geometry)
        assert vectorised == reference

    def test_flush_reload_round_guards_span_runs(self):
        """The Meltdown shape: a flush run, a transient load, a reload
        run — every reload but the transient line is guarded by its
        flush, and the guards reach back across the flush run."""
        page = 4096
        addresses = ([page * line for line in range(8)] + [page * 3]
                     + [page * line for line in range(8)])
        kinds = [KIND_FLUSH] * 8 + [KIND_LOAD] * 9
        geometry = _level(6, 2) * 3
        vectorised, reference = compile_both(addresses, kinds, geometry)
        assert vectorised == reference
        assert vectorised["kindcat"][8] == 3      # transient: flushed line
        assert vectorised["kindcat"][9:] == [3, 3, 3, 0, 3, 3, 3, 3]
        assert vectorised["guard_min"][9] == 0    # min over the run

    def test_unequal_line_sizes_disable_guard(self):
        addresses = [0, 0]
        kinds = [KIND_FLUSH, KIND_LOAD]
        geometry = _level(6, 1) + _level(7, 1) + _level(6, 1)
        vectorised, reference = compile_both(addresses, kinds, geometry)
        assert vectorised == reference
        assert vectorised["kindcat"] == [2, 0]
        assert vectorised["guard_min"] == [-1, -1]

    def test_empty_and_single_op_traces(self):
        geometry = _level(6, 2) * 3
        for addresses, kinds in (([], []), ([64], [KIND_STORE])):
            vectorised, reference = compile_both(addresses, kinds, geometry)
            assert vectorised == reference
