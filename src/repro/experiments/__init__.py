"""Experiment reproductions — one module per paper table/figure.

Each module exposes ``run(...)`` returning a typed result object and
``render(result)`` producing the paper-style text output.  The
:data:`EXPERIMENTS` registry maps experiment ids to those entry points
for the CLI and the benchmark harness.  Experiments whose trial
populations can be quarantined also expose
``undefined_headlines(result)``: the names of the headline numbers the
surviving trials could not define (the CLI exits non-zero on any).
"""

from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.experiments import (
    adaptive,
    crosscheck,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    multiplex,
    smp,
    table1,
    table2,
    table3,
)
from repro.experiments.parallel import default_jobs, resolve_jobs
from repro.experiments.runner import (
    RunResult,
    TrialSummary,
    run_monitored,
    run_trials,
    summarize_trial,
)


def _always_defined(result: Any) -> List[str]:
    return []


@dataclass(frozen=True)
class ExperimentEntry:
    """Registry record for one reproducible table/figure."""

    experiment_id: str
    description: str
    run: Callable
    render: Callable
    undefined_headlines: Callable[[Any], List[str]] = _always_defined


EXPERIMENTS: Dict[str, ExperimentEntry] = {
    entry.experiment_id: entry
    for entry in [
        ExperimentEntry(
            "table1", "LINPACK GFLOPS across profiling tools",
            table1.run, table1.render, table1.undefined_headlines,
        ),
        ExperimentEntry(
            "table2", "Overhead on triple-loop matmul (~2 s)",
            table2.run, table2.render, table2.undefined_headlines,
        ),
        ExperimentEntry(
            "table3", "Overhead on MKL dgemm (<100 ms); LiMiT n/a",
            table3.run, table3.render, table2.undefined_headlines,
        ),
        ExperimentEntry(
            "fig4", "LINPACK phase behaviour time series",
            fig4.run, fig4.render,
        ),
        ExperimentEntry(
            "fig5", "Docker image LLC MPKI classification",
            fig5.run, fig5.render,
        ),
        ExperimentEntry(
            "fig6", "Meltdown vs clean: mean LLC counts",
            fig6.run, fig6.render, fig6.undefined_headlines,
        ),
        ExperimentEntry(
            "fig7", "Meltdown time series at 100 us + detection",
            fig7.run, fig7.render,
        ),
        ExperimentEntry(
            "fig8", "Normalized runtime spread (box plots)",
            fig8.run, fig8.render, fig8.undefined_headlines,
        ),
        ExperimentEntry(
            "fig9", "Cross-tool count accuracy",
            fig9.run, fig9.render,
        ),
        ExperimentEntry(
            "crosscheck", "Local vs AWS platform count verification (<1%)",
            crosscheck.run, crosscheck.render,
        ),
        ExperimentEntry(
            "multiplex", "Multiplexed scaled-count error vs rotation period",
            multiplex.run, multiplex.render,
        ),
        ExperimentEntry(
            "adaptive", "Adaptive vs fixed sampling accuracy/overhead frontier",
            adaptive.run, adaptive.render,
        ),
        ExperimentEntry(
            "smp", "SMP contention crosscheck (streamers vs monitored service)",
            smp.run, smp.render,
        ),
    ]
}

__all__ = [
    "EXPERIMENTS",
    "ExperimentEntry",
    "RunResult",
    "TrialSummary",
    "default_jobs",
    "resolve_jobs",
    "run_monitored",
    "run_trials",
    "summarize_trial",
]
