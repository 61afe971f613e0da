"""Per-trial capture of the simulator's outputs.

:class:`TrialCapture` wraps the experiments' trial entry points
(``run_monitored`` wherever an experiment module bound it, and
``run_monitored_smp``) plus ``CacheHierarchy.__init__``.  It is armed in
every pass, traced or not: it runs a handful of times per trial, never
per simulated event, so it does not move the end-to-end timings.

Each finished trial becomes one plain-data record — victim wall time,
instructions, samples delivered, report totals and summed cache
statistics — which the scenarios digest and check.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Optional

from repro.experiments import runner, smp
from repro.hw.cache import CacheHierarchy


def cache_counts(hierarchies) -> Dict[str, int]:
    """Accesses and per-level misses summed over ``hierarchies``.

    Levels are named by position: first, second (when there are three
    or more) and last; a shared LLC is counted once per core, as each
    hierarchy counts only its own lookups.
    """
    counts = {"accesses": 0, "flushes": 0, "l1_misses": 0,
              "l2_misses": 0, "llc_misses": 0}
    for hierarchy in hierarchies:
        stats = hierarchy.stats
        names = [level.config.name for level in hierarchy.levels]
        counts["accesses"] += stats.accesses
        counts["flushes"] += stats.flushes
        counts["l1_misses"] += stats.misses[names[0]]
        if len(names) >= 3:
            counts["l2_misses"] += stats.misses[names[1]]
        counts["llc_misses"] += stats.misses[names[-1]]
    return counts


def _totals(report) -> Dict[str, float]:
    return {name: float(value)
            for name, value in sorted(report.totals.items())}


class TrialCapture:
    """Records every trial an experiment runs while installed.

    ``tracer`` (optional) opens the per-trial root span around each
    trial, so traced passes attribute time to trials.  ``reference``
    (optional) is a timed callable run after each trial; its durations
    sample the host's speed through the pass.
    """

    def __init__(self, tracer=None,
                 reference: Optional[Callable[[], float]] = None) -> None:
        self.tracer = tracer
        self.reference = reference
        self.reference_s: List[float] = []
        self.records: List[dict] = []
        self.attempted = 0
        self.raised = 0
        self.first_trial_at: Optional[float] = None
        self._hierarchies: Optional[list] = None
        self._patches: List[tuple] = []

    # -- installation --------------------------------------------------
    def install(self) -> None:
        original_init = CacheHierarchy.__init__
        capture = self

        @functools.wraps(original_init)
        def init(hierarchy, *args, **kwargs):
            original_init(hierarchy, *args, **kwargs)
            if capture._hierarchies is not None:
                capture._hierarchies.append(hierarchy)

        self._patch(CacheHierarchy, "__init__", init)
        original = runner.run_monitored
        run_monitored = self._trial(original, self._uni)
        for name, module in list(sys.modules.items()):
            if (name.startswith("repro.experiments")
                    and getattr(module, "run_monitored", None) is original):
                self._patch(module, "run_monitored", run_monitored)
        self._patch(smp, "run_monitored_smp",
                    self._trial(smp.run_monitored_smp, self._smp))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches = []

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    # -- per-trial wrapper ----------------------------------------------
    def _trial(self, function: Callable, record: Callable) -> Callable:
        capture = self

        @functools.wraps(function)
        def trial(program, *args, **kwargs):
            if capture.first_trial_at is None:
                capture.first_trial_at = time.monotonic()
            capture.attempted += 1
            hierarchies: list = []
            capture._hierarchies = hierarchies
            span = (capture.tracer.open_trial()
                    if capture.tracer is not None else None)
            try:
                result = function(program, *args, **kwargs)
            except BaseException:
                capture.raised += 1
                raise
            finally:
                capture._hierarchies = None
                if span is not None:
                    capture.tracer.close(span)
            capture.records.append(record(program, result, hierarchies))
            if capture.reference is not None:
                capture.reference_s.append(capture.reference())
            return result

        return trial

    @staticmethod
    def _uni(program, result, hierarchies) -> dict:
        report = result.report
        entry = {
            "program": program.name,
            "tool": report.tool,
            "wall_ns": int(result.wall_ns),
            "instructions": float(result.victim.instructions_retired),
            "samples": int(report.sample_count),
            "totals": _totals(report),
            "cache": cache_counts(hierarchies),
        }
        if hasattr(program, "recovered_secret"):
            entry["secret_recovered"] = (
                program.recovered_secret() == program.secret)
        return entry

    @staticmethod
    def _smp(program, result, hierarchies) -> dict:
        report = result.report
        return {
            "program": program.name,
            "tool": report.tool,
            "wall_ns": int(result.wall_ns),
            "instructions": float(report.totals.get("INST_RETIRED", 0.0)),
            "samples": int(report.sample_count),
            "totals": _totals(report),
            "cache": cache_counts(hierarchies),
            "migrations": int(result.migrations),
        }
