"""Layer spans for the traced pass.

:class:`LayerTracer` wraps the public entry points of each simulator
layer from outside the program — nothing under ``src/`` knows it is
being traced.  Each call becomes a span (layer, start, end, parent span,
trial id) kept in flat in-memory arrays and written out once, when the
pass ends.  Self time — a span's duration minus the time its child
spans cover — and the layers' exact work counts are accumulated as the
spans close.

Counts that nest within one layer (a ``PerCpuRing`` push delegating to
a per-CPU ``ColumnarRing``, an instrumented program wrapping the
workload's own generator) are taken at the outermost span of that
layer only, so each row or op is counted once.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from array import array
from typing import Callable, Dict, List, Optional

#: Span layers, in metric order.  ``<layer>_s`` is the layer's self time.
LAYERS = (
    "experiments.trial",
    "workloads.blocks",
    "tools.kleb.controller",
    "kernel.run",
    "kernel.smp.run",
    "sim.engine.dispatch",
    "hw.core.execute",
    "hw.pmu.accumulate",
    "hw.uncore.advance",
    "kernel.ringbuffer.push",
    "kernel.ringbuffer.drain",
    "control.observe",
)

#: Exact work counts the traced pass records.
COUNTS = (
    "workloads.ops",
    "hw.core.ops_replayed",
    "hw.pmu.accumulate_calls",
    "sim.engine.events",
    "kernel.interrupts",
    "kernel.ringbuffer.rows_pushed",
    "kernel.ringbuffer.rows_drained",
    "kernel.ringbuffer.rows_dropped",
    "control.observations",
)

_LAYER_ID = {layer: index for index, layer in enumerate(LAYERS)}


def _workload_program_classes() -> List[type]:
    """Every ``Program`` subclass defined in ``repro.workloads`` that
    implements its own ``blocks`` generator."""
    import repro.workloads
    from repro.workloads.base import Program

    for info in pkgutil.iter_modules(repro.workloads.__path__):
        importlib.import_module(f"repro.workloads.{info.name}")
    found, pending = [], [Program]
    while pending:
        cls = pending.pop()
        for sub in cls.__subclasses__():
            pending.append(sub)
            if (sub.__module__.startswith("repro.workloads")
                    and "blocks" in sub.__dict__ and sub not in found):
                found.append(sub)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


class LayerTracer:
    """In-memory span recorder with per-layer self time and counts."""

    def __init__(self) -> None:
        self.layer = array("B")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.trial = array("i")
        self.self_ns = [0] * len(LAYERS)
        self.counts: Dict[str, int] = dict.fromkeys(COUNTS, 0)
        self._stack: List[int] = []
        self._child_ns: List[int] = []
        self._open_per_layer = [0] * len(LAYERS)
        self._trial_id = -1
        self._patches: List[tuple] = []

    # -- span bookkeeping ------------------------------------------------
    def open(self, layer_id: int) -> int:
        index = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.trial.append(self._trial_id)
        self.end.append(0)
        self._stack.append(index)
        self._child_ns.append(0)
        self._open_per_layer[layer_id] += 1
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> bool:
        """Close span ``index``; True when it was the outermost open span
        of its layer (the level at which its work is counted)."""
        now = time.perf_counter_ns()
        self.end[index] = now
        self._stack.pop()
        duration = now - self.start[index]
        layer_id = self.layer[index]
        self.self_ns[layer_id] += duration - self._child_ns.pop()
        if self._child_ns:
            self._child_ns[-1] += duration
        self._open_per_layer[layer_id] -= 1
        return self._open_per_layer[layer_id] == 0

    def open_trial(self) -> int:
        self._trial_id += 1
        return self.open(_LAYER_ID["experiments.trial"])

    # -- wrappers ----------------------------------------------------------
    def _span(self, layer: str, function: Callable,
              count: Optional[Callable] = None) -> Callable:
        """Wrap ``function`` in a span; ``count(result)`` runs at the
        outermost span of the layer."""
        tracer, layer_id = self, _LAYER_ID[layer]

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = tracer.open(layer_id)
            try:
                result = function(*args, **kwargs)
            finally:
                outermost = tracer.close(span)
            if count is not None and outermost:
                count(result)
            return result

        return wrapper

    def _generator(self, layer: str, function: Callable,
                   count_ops: bool) -> Callable:
        """Wrap a ``blocks`` generator: each ``next()`` is one span."""
        from repro.workloads.base import TraceBlock

        tracer, layer_id = self, _LAYER_ID[layer]
        counts = self.counts

        @functools.wraps(function)
        def blocks(program):
            generator = function(program)
            while True:
                span = tracer.open(layer_id)
                try:
                    block = next(generator)
                except StopIteration:
                    tracer.close(span)
                    return
                except BaseException:
                    tracer.close(span)
                    raise
                outermost = tracer.close(span)
                if count_ops and outermost and isinstance(block, TraceBlock):
                    counts["workloads.ops"] += len(block.ops)
                yield block

        return blocks

    def _execute(self, function: Callable) -> Callable:
        """``Core.execute`` span; ops replayed are the cache lookups and
        flushes the slice performed."""
        tracer, layer_id = self, _LAYER_ID["hw.core.execute"]
        counts = self.counts

        @functools.wraps(function)
        def execute(core, cursor, budget_ns):
            stats = core.cache.stats
            before = stats.accesses + stats.flushes
            span = tracer.open(layer_id)
            try:
                return function(core, cursor, budget_ns)
            finally:
                tracer.close(span)
                counts["hw.core.ops_replayed"] += (
                    stats.accesses + stats.flushes - before)

        return execute

    def _counter(self, name: str, function: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        from repro.control.controller import AdaptiveController
        from repro.hw.core import Core
        from repro.hw.pmu import Pmu
        from repro.hw.uncore import UncorePmu
        from repro.kernel.kernel import Kernel
        from repro.kernel.ringbuffer import (ColumnarRing, PerCpuRing,
                                             RingBuffer)
        from repro.kernel.smp import SmpCluster
        from repro.sim.engine import EventQueue
        from repro.tools.kleb.controller import KLebControllerProgram

        counts = self.counts

        def add(name: str, amount: int) -> None:
            counts[name] += amount

        def pushed(accepted: bool) -> None:
            add("kernel.ringbuffer.rows_pushed" if accepted
                else "kernel.ringbuffer.rows_dropped", 1)

        def one(name: str) -> Callable:
            return lambda _result: add(name, 1)

        for cls in _workload_program_classes():
            self._patch(cls, "blocks", self._generator(
                "workloads.blocks", cls.__dict__["blocks"], True))
        self._patch(KLebControllerProgram, "blocks", self._generator(
            "tools.kleb.controller", KLebControllerProgram.blocks, False))
        self._patch(Core, "execute", self._execute(Core.execute))
        for method in ("accumulate", "accumulate_epoch"):
            self._patch(Pmu, method, self._span(
                "hw.pmu.accumulate", getattr(Pmu, method),
                one("hw.pmu.accumulate_calls")))
        self._patch(EventQueue, "dispatch_due", self._span(
            "sim.engine.dispatch", EventQueue.dispatch_due,
            lambda fired: add("sim.engine.events", fired)))
        self._patch(Kernel, "run", self._span("kernel.run", Kernel.run))
        self._patch(Kernel, "run_interrupt", self._counter(
            "kernel.interrupts", Kernel.run_interrupt))
        for cls, method in ((RingBuffer, "push"), (ColumnarRing, "push"),
                            (ColumnarRing, "push_row"),
                            (PerCpuRing, "push_row")):
            self._patch(cls, method, self._span(
                "kernel.ringbuffer.push", cls.__dict__[method], pushed))
        for cls in (RingBuffer, PerCpuRing):
            self._patch(cls, "drain", self._span(
                "kernel.ringbuffer.drain", cls.__dict__["drain"],
                lambda batch: add("kernel.ringbuffer.rows_drained",
                                  len(batch))))
        self._patch(UncorePmu, "advance_window", self._span(
            "hw.uncore.advance", UncorePmu.advance_window))
        for method in ("run", "run_until_tasks_exit"):
            self._patch(SmpCluster, method, self._span(
                "kernel.smp.run", getattr(SmpCluster, method)))
        self._patch(AdaptiveController, "observe", self._span(
            "control.observe", AdaptiveController.observe,
            one("control.observations")))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches = []

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    # -- results -----------------------------------------------------------
    def self_seconds(self) -> Dict[str, float]:
        return {f"{layer}_s": self.self_ns[index] / 1e9
                for index, layer in enumerate(LAYERS)}

    def save(self, path) -> None:
        """Write every span to ``path`` (``.npz``: one array per field)."""
        import numpy as np

        np.savez(path, layers=np.array(LAYERS),
                 layer=np.frombuffer(self.layer, dtype=np.uint8),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 trial=np.frombuffer(self.trial, dtype=np.int32))
