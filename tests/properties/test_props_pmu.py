"""Property-based tests for PMU counting semantics.

:class:`RegisterWalkPmu` is the reference the compiled delivery path
must match: every delivery decodes the control registers afresh and
walks the counts mapping, and a snapshot walks the counters one by one.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import PMUError
from repro.hw import events as ev
from repro.hw.msr import (
    EVTSEL_EN,
    EVTSEL_EVENT_MASK,
    EVTSEL_INT,
    EVTSEL_OS,
    EVTSEL_UMASK_MASK,
    EVTSEL_USR,
    MSR,
)
from repro.hw.pmu import (
    COUNTER_WIDTH_BITS,
    NUM_FIXED,
    NUM_PROGRAMMABLE,
    Pmu,
    RDPMC_FIXED_FLAG,
)

_WRAP = 1 << COUNTER_WIDTH_BITS
_CODE_MASK = EVTSEL_EVENT_MASK | EVTSEL_UMASK_MASK
_EVTSEL_MSRS = (MSR.IA32_PERFEVTSEL0, MSR.IA32_PERFEVTSEL1,
                MSR.IA32_PERFEVTSEL2, MSR.IA32_PERFEVTSEL3)


class RegisterWalkPmu:
    """Per-call register walk over its own copy of the PMU registers."""

    def __init__(self):
        self.evtsel = [0] * NUM_PROGRAMMABLE
        self.fixed_ctrl = 0
        self.global_ctrl = 0
        self.status = 0
        self.fixed = [0.0] * NUM_FIXED
        self.pmc = [0.0] * NUM_PROGRAMMABLE
        self.pending = []
        self.handler = None

    def counter_event(self, index):
        evtsel = self.evtsel[index]
        if not evtsel & EVTSEL_EN:
            return None
        try:
            return ev.lookup_code(evtsel & _CODE_MASK).name
        except PMUError:
            return None

    def write_counter(self, index, value):
        self.pmc[index] = float(int(value) % _WRAP)
        self.pending = [pending for pending in self.pending
                        if pending != index]

    def _targets(self, name, privilege):
        fixed_bit, evtsel_bit = ((0b10, EVTSEL_USR) if privilege == "user"
                                 else (0b01, EVTSEL_OS))
        for index, fixed_name in enumerate(ev.FIXED_EVENTS):
            if (fixed_name == name and self.global_ctrl >> (32 + index) & 1
                    and self.fixed_ctrl >> (4 * index) & fixed_bit):
                yield self.fixed, index
        for index in range(NUM_PROGRAMMABLE):
            if (self.counter_event(index) == name
                    and self.global_ctrl >> index & 1
                    and self.evtsel[index] & evtsel_bit):
                yield self.pmc, index

    def accumulate(self, counts, privilege):
        if not self.global_ctrl or not counts:
            return
        wrapped = False
        for name, amount in counts.items():
            if amount <= 0.0:
                continue
            for bank, index in self._targets(name, privilege):
                bank[index] = bank[index] + amount
                wrapped = wrapped or bank[index] >= _WRAP
        if wrapped:
            self._sweep_overflow()
        if self.pending and self.handler is not None:
            pending, self.pending = self.pending, []
            self.handler(pending)

    def _sweep_overflow(self):
        for index in range(NUM_FIXED):
            if self.fixed[index] >= _WRAP:
                self.fixed[index] %= _WRAP
                self.status |= 1 << (32 + index)
        for index in range(NUM_PROGRAMMABLE):
            value = self.pmc[index]
            if value >= _WRAP:
                self.pmc[index] = value % _WRAP
                self.status |= 1 << index
                if (self.evtsel[index] & EVTSEL_INT
                        and self.counter_event(index) is not None
                        and self.global_ctrl >> index & 1):
                    self.pending.extend([index] * int(value // _WRAP))

    def snapshot(self):
        by_event = {}
        for index, name in enumerate(ev.FIXED_EVENTS):
            by_event[name] = int(self.fixed[index])
        for index in range(NUM_PROGRAMMABLE):
            name = self.counter_event(index)
            if name is not None:
                by_event[name] = int(self.pmc[index])
        return by_event


def _unknown_code():
    for code in range(1, _CODE_MASK + 1):
        try:
            ev.lookup_code(code)
        except PMUError:
            return code
    raise AssertionError("every select/umask code is catalogued")


# Events small enough a pool that random layouts often program one event
# on two counters, and that include the fixed events on PMCs.
_PROGRAMMED = ("LOADS", "STORES", "LLC_MISSES", "INST_RETIRED",
               "CORE_CYCLES", "REF_CYCLES")
_CODES = tuple(ev.lookup(name).code & _CODE_MASK for name in _PROGRAMMED)

evtsels = st.builds(
    lambda code, flags: code | sum(flags),
    st.sampled_from(_CODES + (_unknown_code(),)),
    st.sets(st.sampled_from((EVTSEL_USR, EVTSEL_OS, EVTSEL_INT, EVTSEL_EN))),
)
programmings = st.tuples(
    st.lists(evtsels, min_size=NUM_PROGRAMMABLE, max_size=NUM_PROGRAMMABLE),
    st.integers(min_value=0, max_value=(1 << (4 * NUM_FIXED)) - 1),
    st.sets(st.sampled_from((0, 1, 2, 3, 32, 33, 34))).map(
        lambda bits: sum(1 << bit for bit in bits)),
)
amounts = st.one_of(
    st.just(0.0),
    st.floats(min_value=-1e3, max_value=0.0),
    st.floats(min_value=0.0, max_value=1e6),
    st.sampled_from((0.5, 1.0, 2.0 ** 47, 2.0 ** 49 + 3.0)),
)
deliveries = st.tuples(
    st.just("deliver"),
    st.dictionaries(st.sampled_from(_PROGRAMMED + ("BRANCHES",)), amounts,
                    max_size=6),
    st.sampled_from(("user", "kernel")),
    st.booleans(),
)
preloads = st.tuples(
    st.just("preload"),
    st.integers(min_value=0, max_value=NUM_PROGRAMMABLE - 1),
    st.one_of(st.integers(min_value=_WRAP - 5000, max_value=_WRAP - 1),
              st.integers(min_value=0, max_value=2 * _WRAP)),
)
operations = st.lists(
    st.one_of(
        deliveries,
        preloads,
        st.tuples(st.just("program"), programmings),
        st.tuples(st.just("handler"), st.booleans()),
    ),
    max_size=40,
)


def _program(pmu, reference, programming):
    evtsel_values, fixed_ctrl, global_ctrl = programming
    for msr, value in zip(_EVTSEL_MSRS, evtsel_values):
        pmu.wrmsr(msr, value)
    pmu.wrmsr(MSR.IA32_FIXED_CTR_CTRL, fixed_ctrl)
    pmu.wrmsr(MSR.IA32_PERF_GLOBAL_CTRL, global_ctrl)
    reference.evtsel = list(evtsel_values)
    reference.fixed_ctrl = fixed_ctrl
    reference.global_ctrl = global_ctrl


def run_against_reference(programming, ops):
    """Drive a :class:`Pmu` and the register walk through the same
    programming, deliveries, wrap preloads and handler changes, and
    require identical observable state after every step."""
    pmu = Pmu()
    reference = RegisterWalkPmu()
    delivered, expected = [], []
    _program(pmu, reference, programming)
    for op in ops:
        kind = op[0]
        if kind == "deliver":
            _, counts, privilege, epoch_form = op
            if epoch_form and counts:
                pmu.accumulate_epoch(tuple(counts), tuple(counts.values()),
                                     privilege)
            else:
                pmu.accumulate(counts, privilege)
            reference.accumulate(counts, privilege)
        elif kind == "preload":
            _, index, value = op
            pmu.write_counter(index, value)
            reference.write_counter(index, value)
        elif kind == "program":
            _program(pmu, reference, op[1])
        else:
            attached = op[1]
            pmu.set_overflow_handler(delivered.append if attached else None)
            reference.handler = expected.append if attached else None
        assert pmu._fixed == reference.fixed
        assert pmu._pmc == reference.pmc
        assert pmu.rdmsr(MSR.IA32_PERF_GLOBAL_STATUS) == reference.status
        assert delivered == expected
        assert list(pmu.snapshot().items()) == list(
            reference.snapshot().items())


def armed_pmu():
    pmu = Pmu()
    pmu.program_counter(0, "LOADS")
    pmu.program_counter(1, "STORES")
    pmu.enable_fixed()
    pmu.global_enable()
    return pmu


increments = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
    ),
    max_size=50,
)


class TestCountingProperties:
    @given(increments)
    @settings(max_examples=60, deadline=None)
    def test_counter_equals_sum_of_increments(self, steps):
        pmu = armed_pmu()
        total_loads = 0.0
        total_stores = 0.0
        for loads, stores in steps:
            pmu.accumulate({"LOADS": loads, "STORES": stores}, "user")
            total_loads += loads
            total_stores += stores
        assert pmu.rdpmc(0) == int(total_loads % (1 << COUNTER_WIDTH_BITS))
        assert pmu.rdpmc(1) == int(total_stores % (1 << COUNTER_WIDTH_BITS))

    @given(increments)
    @settings(max_examples=40, deadline=None)
    def test_counters_are_independent(self, steps):
        pmu = armed_pmu()
        for loads, _ in steps:
            pmu.accumulate({"LOADS": loads}, "user")
        assert pmu.rdpmc(1) == 0

    @given(increments)
    @settings(max_examples=40, deadline=None)
    def test_counts_are_monotone_without_wrap(self, steps):
        pmu = armed_pmu()
        previous = 0
        for loads, stores in steps:
            pmu.accumulate({"LOADS": loads, "STORES": stores}, "user")
            current = pmu.rdpmc(0)
            assert current >= previous
            previous = current

    @given(increments)
    @settings(max_examples=40, deadline=None)
    def test_privilege_split_partitions_counts(self, steps):
        """user-only + kernel-only counters together equal a dual-mode
        counter: counts are partitioned by ring, never duplicated."""
        dual = Pmu()
        dual.program_counter(0, "LOADS", user=True, kernel=True)
        dual.global_enable()
        split = Pmu()
        split.program_counter(0, "LOADS", user=True, kernel=False)
        split.program_counter(1, "LOADS", user=False, kernel=True)
        split.global_enable()
        for index, (user_loads, kernel_loads) in enumerate(steps):
            dual.accumulate({"LOADS": user_loads}, "user")
            dual.accumulate({"LOADS": kernel_loads}, "kernel")
            split.accumulate({"LOADS": user_loads}, "user")
            split.accumulate({"LOADS": kernel_loads}, "kernel")
        # Compare the underlying accumulators via snapshots (integer
        # floors of the two splits may differ by at most 1 from the
        # dual counter's floor).
        assert abs((split.rdpmc(0) + split.rdpmc(1)) - dual.rdpmc(0)) <= 1

    @given(st.floats(min_value=0, max_value=float(1 << 50),
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=60, deadline=None)
    def test_wraparound_stays_in_range(self, amount):
        pmu = armed_pmu()
        pmu.accumulate({"LOADS": amount}, "user")
        assert 0 <= pmu.rdpmc(0) < (1 << COUNTER_WIDTH_BITS)


class TestRegisterWalkReference:
    @given(programmings, operations)
    @settings(max_examples=200, deadline=None)
    def test_compiled_path_matches_register_walk(self, programming, ops):
        run_against_reference(programming, ops)

    def test_degenerate_layouts_match_register_walk(self):
        """One event on two counters and a fixed event on a PMC, both
        privileges, with a wrap preload on the interrupting counter."""
        loads = ev.lookup("LOADS").code & _CODE_MASK
        inst = ev.lookup("INST_RETIRED").code & _CODE_MASK
        enabled = EVTSEL_USR | EVTSEL_OS | EVTSEL_EN
        programming = ([loads | enabled | EVTSEL_INT, inst | enabled,
                        loads | EVTSEL_USR | EVTSEL_EN, 0],
                       0x333, 0b1111 | (0b111 << 32))
        step = {"LOADS": 7.5, "INST_RETIRED": 11.0, "CORE_CYCLES": 13.0}
        run_against_reference(programming, [
            ("handler", True),
            ("deliver", step, "user", True),
            ("preload", 0, _WRAP - 3),
            ("deliver", step, "kernel", False),
            ("deliver", {"LOADS": 2.0 ** 49}, "user", True),
            ("handler", False),
            ("deliver", {"LOADS": 2.0 ** 48}, "user", False),
            ("handler", True),
            ("deliver", {}, "user", False),
            ("deliver", step, "user", False),
        ])
