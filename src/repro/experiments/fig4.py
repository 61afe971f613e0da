"""Fig. 4 — LINPACK phase behaviour in K-LEB samples.

The paper plots ARITH MUL / LOAD / STORE per 10 ms sample, averaged
over 10 trials, and reads off: a quiet kernel-level init, a LOAD/STORE
surge during setup, then repeating load -> compute -> store cycles.
This experiment reproduces the series and verifies the phase structure
with the detector in :mod:`repro.analysis.phases`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.phases import PhaseSegment, detect_phases, merge_short_segments
from repro.analysis.timeseries import (
    EventSeries,
    average_series,
    deltas,
    samples_to_series,
)
from repro.experiments import report
from repro.experiments.runner import run_trials
from repro.faults import FaultPlan, RunLedger
from repro.hw.machine import MachineConfig
from repro.sim.clock import ms
from repro.tools.registry import create_tool
from repro.workloads.linpack import LinpackWorkload

EVENTS = ("ARITH_MUL", "LOADS", "STORES")


@dataclass
class Fig4Result:
    """Averaged K-LEB series over the LINPACK run, plus detected phases
    (no series and no phases when every trial was quarantined)."""

    series: Optional[EventSeries]  # per-interval deltas, trial-averaged
    segments: List[PhaseSegment]
    trials: int
    period_ns: int

    @property
    def phase_labels(self) -> List[str]:
        return [segment.label for segment in self.segments]


def run(trials: int = 10, problem_size: int = 5000,
        period_ns: int = ms(10), seed: int = 0,
        machine_config: Optional[MachineConfig] = None,
        jobs: Optional[int] = 1,
        faults: Optional[FaultPlan] = None,
        fault_ledger: Optional[RunLedger] = None) -> Fig4Result:
    """Reproduce Fig. 4."""
    program = LinpackWorkload(problem_size)
    results = run_trials(
        program, create_tool("k-leb"), runs=trials, events=EVENTS,
        period_ns=period_ns, base_seed=seed, machine_config=machine_config,
        jobs=jobs, faults=faults, fault_ledger=fault_ledger,
    )
    per_trial = [
        deltas(samples_to_series(result.report.samples))
        for result in results
    ]
    averaged: Optional[EventSeries] = None
    segments: List[PhaseSegment] = []
    if per_trial:
        averaged = average_series(per_trial, bucket_ns=period_ns)
        segments = merge_short_segments(
            detect_phases(averaged, EVENTS, smooth_window=5), min_length=3
        )
    return Fig4Result(
        series=averaged,
        segments=segments,
        trials=trials,
        period_ns=period_ns,
    )


def undefined_headlines(result: Fig4Result) -> List[str]:
    """Headline numbers quarantine left undefined: the phase series
    needs at least one surviving trial."""
    return ["LINPACK phase series"] if result.series is None else []


def render(result: Fig4Result) -> str:
    series = result.series
    length = (report.QUARANTINED if series is None
              else f"{len(series)} samples")
    lines = [
        f"Fig. 4 — LINPACK hardware-counter series "
        f"({result.trials}-trial average, "
        f"{result.period_ns // 1_000_000} ms samples, {length})",
        "",
    ]
    for name in EVENTS:
        line = (report.QUARANTINED if series is None
                else report.sparkline(series.event(name)))
        lines.append(f"{name:10s} {line}")
    lines.append("")
    if series is None:
        lines.append(f"{'phases':10s} {report.QUARANTINED}")
        return "\n".join(lines)
    rows = [
        [segment.label, str(segment.start_index), str(segment.end_index),
         f"{(segment.end_ns - segment.start_ns) / 1e6:.0f} ms"]
        for segment in result.segments
    ]
    lines.append(report.text_table(
        ["phase (dominant event)", "start", "end", "duration"], rows
    ))
    return "\n".join(lines)
