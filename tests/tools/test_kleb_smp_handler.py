"""The K-LEB interrupt handler on an SMP session.

One handler serves the classic timer and every per-core timer.  These
tests drive its SMP arms — the skip rung reached through the ``adapt``
ioctl, the per-core push, and the back-pressure accounting — on a
2-core cluster whose victim migrates, so both cores' timers fire.
"""

import pytest

from repro.kernel.config import KernelConfig
from repro.kernel.smp import SmpCluster
from repro.sim.clock import ms, seconds, us
from repro.tools import costs
from repro.tools.kleb import KLebTool
from repro.tools.kleb.module import KLebAdaptRequest
from repro.workloads.synthetic import PointerChaseWorkload

CORES = 2
QUICK = KernelConfig(noise_enabled=False, quantum_ns=ms(1))


@pytest.fixture(scope="module")
def skipped_session():
    """A 2-core session adapted to ``skip_factor=2`` mid-run.

    Every interrupt is spied on: which core's timer fired, which
    kernel each charge of kernel time landed on, and whether the
    handler took the skip rung.
    """
    cluster = SmpCluster(cores=CORES, kernel_config=QUICK, seed=7,
                         migrate=True, migrate_probability=1.0)
    victim = cluster.spawn(0, PointerChaseWorkload(
        2 * 1024 * 1024, 200_000, seed=3, name="victim"), start=False)
    session = KLebTool().attach_cluster(
        cluster, victim, ["LLC_MISSES", "BRANCH_MISSES"], us(100))
    module = session.module
    charges = []
    skip_fires = []

    for cpu in range(CORES):
        kernel = cluster.kernel(cpu)

        def charge(duration_ns, _cpu=cpu, _charge=kernel.charge_kernel_time):
            charges.append((_cpu, duration_ns))
            _charge(duration_ns)

        def run_interrupt(handler, label="irq", _cpu=cpu,
                          _run=kernel.run_interrupt):
            skipped = module.stats.samples_skipped
            del charges[:]
            _run(handler, label=label)
            if module.stats.samples_skipped > skipped:
                skip_fires.append((_cpu, list(charges)))

        kernel.charge_kernel_time = charge
        kernel.run_interrupt = run_interrupt

    cluster.run(deadline_ns=ms(5))
    assert module.collecting and module.stats.samples_skipped == 0
    module.ioctl("adapt", KLebAdaptRequest(period_ns=us(100),
                                           skip_factor=2))
    cluster.run_until_tasks_exit([victim], deadline_ns=seconds(30))
    report = session.finalize()
    return module, report, skip_fires, cluster.migrations


class TestSkipRungOnSmp:
    def test_every_fire_is_accounted_once(self, skipped_session):
        module, _, _, _ = skipped_session
        stats = module.stats
        assert stats.samples_skipped > 0 and stats.samples_recorded > 0
        assert (stats.samples_skipped + stats.samples_recorded
                + stats.samples_dropped) == stats.timer_fires

    def test_ring_holds_exactly_the_recorded_rows(self, skipped_session):
        module, report, _, _ = skipped_session
        assert module.buffer.total_pushed == module.stats.samples_recorded
        assert len(report.samples) == module.stats.samples_recorded

    def test_skip_cost_lands_on_the_firing_core(self, skipped_session):
        module, report, skip_fires, migrations = skipped_session
        assert migrations > 0
        assert len(skip_fires) == module.stats.samples_skipped
        assert {cpu for cpu, _ in skip_fires} == set(range(CORES))
        for cpu, charges in skip_fires:
            assert (cpu, costs.KLEB_SKIP_FIRE_NS) in charges
            assert all(charged == cpu for charged, _ in charges)
        assert report.metadata["smp_migrations"] == float(migrations)

    def test_recorded_rows_come_from_both_cores(self, skipped_session):
        _, report, _, _ = skipped_session
        assert set(report.samples.column("cpu")) == set(range(CORES))
