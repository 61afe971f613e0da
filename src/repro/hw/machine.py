"""The simulated machine: core + PMU + caches under one configuration.

The base unit is a single time-shared core — sufficient (and faithful
to the mechanism) for the paper's overhead results, which come from
monitoring work competing with the monitored program for CPU time.

:class:`Topology` and :class:`SmpMachine` compose cores into sockets:
each core gets a private :class:`Machine` (own MSR file, PMU and
L1/L2), each socket shares one last-level cache and one
:class:`~repro.hw.uncore.UncorePmu` observing memory traffic behind it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.errors import SimulationError
from repro.hw.cache import CacheConfig, CacheHierarchy, CacheLevel
from repro.hw.core import Core
from repro.hw.msr import MsrFile
from repro.hw.pmu import Pmu
from repro.hw.uncore import UncorePmu


@dataclass(frozen=True)
class MachineConfig:
    """Everything needed to instantiate a :class:`Machine`.

    Attributes:
        name: human-readable platform name.
        frequency_hz: core clock.
        cache_levels: geometry of the cache hierarchy, L1 first.
        memory_latency_cycles: DRAM access latency.
        tsc_ratio: reference-cycle to core-cycle ratio.
    """

    name: str
    frequency_hz: float
    cache_levels: List[CacheConfig] = field(default_factory=list)
    memory_latency_cycles: int = 200
    tsc_ratio: float = 1.0
    prefetch_next_line: bool = False


class Machine:
    """A configured single-core machine instance.

    ``shared_llc`` replaces the config's last cache level with a
    pre-built, shared :class:`~repro.hw.cache.CacheLevel` — the building
    block for multi-core clusters where private L1/L2 sit in front of
    one last-level cache (see :mod:`repro.kernel.smp`).
    """

    def __init__(self, config: MachineConfig,
                 shared_llc: "CacheLevel" = None) -> None:
        self.config = config
        self.msrs = MsrFile()
        self.pmu = Pmu(self.msrs)
        levels = list(config.cache_levels)
        if shared_llc is not None:
            levels = levels[:-1]
        self.cache = CacheHierarchy(
            levels,
            memory_latency_cycles=config.memory_latency_cycles,
            prefetch_next_line=config.prefetch_next_line,
            shared_llc=shared_llc,
        )
        self.core = Core(
            frequency_hz=config.frequency_hz,
            pmu=self.pmu,
            cache=self.cache,
            tsc_ratio=config.tsc_ratio,
        )

    @property
    def name(self) -> str:
        return self.config.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ghz = self.config.frequency_hz / 1e9
        return f"Machine({self.config.name!r} @ {ghz:.2f} GHz)"


@dataclass(frozen=True)
class Topology:
    """Socket/core layout of an SMP machine.

    CPU ids are dense: cpu ``i`` lives on socket ``i // cores_per_socket``.
    """

    sockets: int = 1
    cores_per_socket: int = 2

    def __post_init__(self) -> None:
        if self.sockets <= 0:
            raise SimulationError(
                f"topology needs at least one socket, got {self.sockets}")
        if self.cores_per_socket <= 0:
            raise SimulationError(
                "topology needs at least one core per socket, "
                f"got {self.cores_per_socket}")

    @property
    def total_cores(self) -> int:
        return self.sockets * self.cores_per_socket

    def socket_of(self, cpu: int) -> int:
        """Socket hosting ``cpu`` (range-checked)."""
        if not 0 <= cpu < self.total_cores:
            raise SimulationError(
                f"cpu {cpu} outside topology of {self.total_cores} cores")
        return cpu // self.cores_per_socket

    def cores_in(self, socket: int) -> Tuple[int, ...]:
        """CPU ids on ``socket``."""
        if not 0 <= socket < self.sockets:
            raise SimulationError(
                f"socket {socket} outside topology of {self.sockets} sockets")
        base = socket * self.cores_per_socket
        return tuple(range(base, base + self.cores_per_socket))


class SmpMachine:
    """Per-core :class:`Machine` instances composed under a topology.

    Every core owns a private MSR file, PMU, and L1..Ln-1; the config's
    *last* cache level is instantiated once per socket and shared by
    that socket's cores.  Each socket also carries an
    :class:`~repro.hw.uncore.UncorePmu` fed from its shared LLC's miss
    traffic (the IMC sits behind the LLC).
    """

    def __init__(self, config: MachineConfig,
                 topology: Topology = Topology()) -> None:
        self.config = config
        self.topology = topology
        self.llcs: List[CacheLevel] = [
            CacheLevel(config.cache_levels[-1])
            for _ in range(topology.sockets)
        ]
        self.uncores: List[UncorePmu] = [
            UncorePmu(socket=socket) for socket in range(topology.sockets)
        ]
        self.machines: List[Machine] = [
            Machine(config, shared_llc=self.llcs[topology.socket_of(cpu)])
            for cpu in range(topology.total_cores)
        ]

    @property
    def total_cores(self) -> int:
        return self.topology.total_cores

    def machine(self, cpu: int) -> Machine:
        return self.machines[cpu]

    def llc_of(self, cpu: int) -> CacheLevel:
        return self.llcs[self.topology.socket_of(cpu)]

    def uncore_of(self, cpu: int) -> UncorePmu:
        return self.uncores[self.topology.socket_of(cpu)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SmpMachine({self.config.name!r}, "
                f"{self.topology.sockets}x{self.topology.cores_per_socket})")
