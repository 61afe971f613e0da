"""Fig. 8 — box-and-whisker of normalized execution time per tool.

The paper normalizes the matmul run times under each tool and compares
their spreads: K-LEB has the smallest box/whiskers — the least and the
most *consistent* interference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.stats import BoxStats, box_stats, normalize
from repro.experiments import report
from repro.experiments.overhead_common import OVERHEAD_EVENTS, collect_tool_runs
from repro.faults import FaultPlan, RunLedger
from repro.hw.machine import MachineConfig
from repro.sim.clock import ms
from repro.workloads.matmul import TripleLoopMatmul

TOOLS = ("none", "k-leb", "perf-stat", "perf-record", "papi", "limit")


@dataclass
class Fig8Result:
    """Box statistics of normalized runtimes per tool.

    ``quarantined`` names the supported tools left out of ``boxes``
    because quarantine emptied their population or the baseline's.
    """

    boxes: Dict[str, BoxStats]
    runs: int
    period_ns: int
    quarantined: List[str] = field(default_factory=list)

    def spread_ranking(self) -> Dict[str, float]:
        """Tools ordered by whisker-to-whisker spread (ascending)."""
        spreads = {name: stats.spread for name, stats in self.boxes.items()}
        return dict(sorted(spreads.items(), key=lambda item: item[1]))


def run(runs: int = 30, n: int = 1024, period_ns: int = ms(10),
        seed: int = 0,
        machine_config: Optional[MachineConfig] = None,
        jobs: Optional[int] = 1,
        faults: Optional[FaultPlan] = None,
        fault_ledger: Optional[RunLedger] = None) -> Fig8Result:
    """Reproduce Fig. 8 (same populations as Table II)."""
    program = TripleLoopMatmul(n)
    runs_data = collect_tool_runs(
        program, TOOLS, runs=runs, period_ns=period_ns,
        events=OVERHEAD_EVENTS, base_seed=seed,
        machine_config=machine_config, jobs=jobs,
        faults=faults, fault_ledger=fault_ledger,
    )
    baseline_mean = report.mean_or_none(runs_data["none"].wall_ns)
    boxes: Dict[str, BoxStats] = {}
    quarantined: List[str] = []
    for name, record in runs_data.items():
        if not record.supported:
            continue
        if record.wall_ns and baseline_mean is not None:
            boxes[name] = box_stats(normalize(record.wall_ns, baseline_mean))
        else:
            quarantined.append(name)
    return Fig8Result(boxes=boxes, runs=runs, period_ns=period_ns,
                      quarantined=quarantined)


def render(result: Fig8Result) -> str:
    rows = []
    for name, stats in result.boxes.items():
        rows.append([
            name,
            f"{stats.median:.4f}",
            f"{stats.q1:.4f}",
            f"{stats.q3:.4f}",
            f"{stats.whisker_low:.4f}",
            f"{stats.whisker_high:.4f}",
            f"{stats.spread:.4f}",
        ])
    for name in result.quarantined:
        rows.append([name, report.QUARANTINED] + ["-"] * 5)
    table = report.text_table(
        ["tool", "median", "q1", "q3", "wlow", "whigh", "spread"],
        rows,
        title=(f"Fig. 8 — normalized runtime distributions "
               f"({result.runs} runs)"),
    )
    monitored = [name for name in result.spread_ranking() if name != "none"]
    tightest = (monitored[0] if monitored
                else "n/a (every monitored population quarantined)")
    return (f"{table}\n\ntightest monitored spread: {tightest} "
            "(paper: K-LEB has the smallest spread)")
