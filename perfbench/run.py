"""Scenario benchmark for the simulator.

Run from the repository root::

    python3 perfbench/run.py --workload table2_hf --seed 0 --seconds 25 \
        --trace 0

Each pass runs the workload once in a fresh interpreter
(``perfbench/worker.py``, ``jobs=1``); passes repeat until ``--seconds``
is spent.  ``--trace 0`` prints the end-to-end metrics: medians over
passes of host timings corrected for the host's speed during each pass
(see ``speed_factor`` and the README).  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the
median traced pass, plus ``trace_overhead`` (traced over untraced
median corrected wall time).

Correctness: every pass checks the experiment's headline invariants;
all passes of a run must produce one digest (and, traced, one set of
exact counts); at seed 0 the digest must equal ``pinned.json``; and a
run repeating an earlier run's workload and seed on the same sources
must reproduce its digest and counts (kept under ``perfbench/out``).

The last line of output is one JSON object: ``correct``, ``attempted``
and ``failed`` trials, and ``metrics`` (each a value with its unit).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("table2_hf", "meltdown_fig7", "smp_contention",
             "multiplex_adaptive")
PINNED_SEED = 0
MIN_PASSES = 2          # per kind: untraced, and traced with --trace 1
DEADLINE_S = 170.0      # the whole run, passes included
#: Nominal host seconds of ``worker.reference_loop_s``: timings are
#: reported as if the host ran that loop in this time.
REFERENCE_NOMINAL_S = 0.045


class BenchmarkError(Exception):
    """The benchmark could not run (as opposed to a wrong result)."""


def source_hash() -> str:
    """Hash of the simulator and benchmark sources: records of earlier
    runs are comparable only when it matches."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(top.rglob("*.py")):
            if "__pycache__" in path.parts or OUT_DIR in path.parents:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    digest.update((BENCH_DIR / "pinned.json").read_bytes())
    return digest.hexdigest()


def spawn_pass(args, traced: bool, budget_s: float,
               spans: Optional[Path] = None) -> dict:
    """Run one pass in a fresh interpreter and return its record."""
    env = dict(os.environ)
    # A fixed hash seed: string hashing, and so dict layout and its
    # speed, is then the same in every pass.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    command = [sys.executable, str(BENCH_DIR / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--size", args.size]
    if traced:
        command.append("--traced")
    if spans is not None:
        command += ["--spans", str(spans)]
    spawned_at = time.monotonic()
    command += ["--spawned-at", repr(spawned_at)]
    try:
        completed = subprocess.run(command, cwd=ROOT, env=env,
                                   capture_output=True, text=True,
                                   timeout=max(budget_s, 1.0))
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(
            f"pass exceeded the {budget_s:.0f} s left in the run") from error
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise BenchmarkError(
            f"worker exited {completed.returncode}:\n"
            f"{completed.stderr[-2000:]}")
    record = json.loads(lines[-1])
    record["pass_s"] = time.monotonic() - spawned_at
    return record


def run_passes(args) -> List[dict]:
    """Passes until ``--seconds`` is spent (at least ``MIN_PASSES`` of
    each kind); with ``--trace 1`` untraced and traced alternate."""
    kinds = [False, True] if args.trace else [False]
    started = time.monotonic()
    passes: List[dict] = []
    spans_index = 0
    while True:
        traced = kinds[len(passes) % len(kinds)]
        done = [p for p in passes if p["traced"] == traced]
        elapsed = time.monotonic() - started
        if len(done) >= MIN_PASSES:
            typical = statistics.median(p["pass_s"] for p in done)
            if elapsed + typical > args.seconds:
                break
        spans = None
        if traced:
            spans = OUT_DIR / f"spans-{args.workload}-{spans_index}.npz"
            spans_index += 1
        record = spawn_pass(args, traced, DEADLINE_S - elapsed, spans)
        record["spans_file"] = str(spans) if spans else None
        print(f"pass {len(passes)}{' traced' if traced else ''}: "
              f"setup {record['setup_s']:.4f} s, "
              f"wall {record['wall_s']:.4f} s", file=sys.stderr)
        passes.append(record)
    return passes


def pinned_digest(args) -> Optional[str]:
    """The digest this run must reproduce, or None when none is pinned
    for its seed and size."""
    if args.seed != PINNED_SEED or args.size != "full":
        return None
    pinned = json.loads((BENCH_DIR / "pinned.json").read_text())
    return pinned.get(args.workload, "<not pinned>")


def judge(passes: List[dict], expected_digest: Optional[str]) -> List[str]:
    """Add digest failures to each pass; return run-level failures."""
    reference = passes[0]["digest"]
    for record in passes:
        if record["digest"] != reference:
            record["failures"].append(
                "digest differs from the run's first pass")
        if expected_digest is not None and record["digest"] != expected_digest:
            record["failures"].append(
                f"digest {record['digest']} != pinned {expected_digest}")
    traced = [p for p in passes if p["traced"]]
    if any(p["counts"] != traced[0]["counts"] for p in traced):
        return ["exact counts differ between traced passes"]
    return []


def summarize(passes: List[dict],
              run_failures: List[str]) -> Tuple[bool, int, int]:
    """(correct, trials attempted, trials failed).  A trial fails when
    it raises; every trial of a pass fails when the pass fails a check."""
    attempted = failed = 0
    for record in passes:
        trials = max(record["trials"], 1)
        attempted += trials
        failed += trials if record["failures"] else record["trials_raised"]
    return failed == 0 and not run_failures, attempted, failed


def compare_with_record(args, passes: List[dict]) -> List[str]:
    """Check this run against the last run of the same workload, seed
    and sources, then store this run's digest and counts."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"record-{args.workload}-{args.size}-{args.seed}.json"
    counts = dict(passes[-1]["counts"])
    for record in passes:
        if record["traced"]:
            counts = dict(record["counts"])
    current = {"source": source_hash(), "digest": passes[0]["digest"],
               "counts": counts, "host": passes[0]["host"]}
    failures = []
    if path.exists():
        previous = json.loads(path.read_text())
        if previous.get("source") == current["source"]:
            if previous["digest"] != current["digest"]:
                failures.append("digest differs from an earlier run "
                                "at the same seed")
            for name, value in previous["counts"].items():
                if current["counts"].get(name, value) != value:
                    failures.append(f"{name} differs from an earlier run "
                                    f"at the same seed")
            merged = dict(previous["counts"])
            merged.update(counts)
            current["counts"] = merged
    path.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
    return failures


def speed_factor(record: dict) -> float:
    """Scale from the pass's host speed to the nominal one: the
    reference loop's nominal time over its mean time through the pass."""
    return REFERENCE_NOMINAL_S / statistics.mean(record["reference_s"])


def end_to_end(untraced: List[dict]) -> Dict[str, dict]:
    """Medians over passes of speed-corrected timings (see README)."""
    def median(values) -> float:
        return float(statistics.median(values))

    walls = [p["wall_s"] * speed_factor(p) for p in untraced]
    return {
        "setup_s": {"value": median(p["setup_s"] * speed_factor(p)
                                    for p in untraced), "unit": "s"},
        "wall_s": {"value": median(walls), "unit": "s"},
        "sim_minst_per_s": {
            "value": median(p["instructions"] / 1e6 / wall
                            for p, wall in zip(untraced, walls)),
            "unit": "Minst/s"},
        "samples_per_s": {
            "value": median(p["samples"] / wall
                            for p, wall in zip(untraced, walls)),
            "unit": "1/s"},
        "peak_rss_mb": {"value": median(p["peak_rss_mb"] for p in untraced),
                        "unit": "MB"},
    }


def per_layer(untraced: List[dict], traced: List[dict]) -> Dict[str, dict]:
    """Self times and counts of the median traced pass."""
    ordered = sorted(traced, key=lambda p: p["wall_s"])
    chosen = ordered[(len(ordered) - 1) // 2]
    metrics = {name: {"value": value, "unit": "s"}
               for name, value in chosen["self_s"].items()}
    for name, value in chosen["counts"].items():
        metrics[name] = {"value": value, "unit": "count"}
    ops = chosen["counts"]["hw.core.ops_replayed"]
    metrics["hw.core.ns_per_op"] = {
        "value": (chosen["self_s"]["hw.core.execute_s"] * 1e9 / ops
                  if ops else 0.0),
        "unit": "ns"}
    metrics["traced_wall_s"] = {"value": chosen["wall_s"], "unit": "s"}
    metrics["reference_loop_s"] = {
        "value": statistics.mean(chosen["reference_s"]), "unit": "s"}
    metrics["trace_overhead"] = {
        "value": (statistics.median(p["wall_s"] * speed_factor(p)
                                    for p in traced)
                  / statistics.median(p["wall_s"] * speed_factor(p)
                                      for p in untraced)),
        "unit": "ratio"}
    # Keep only the chosen pass's spans, under a stable name.
    for record in traced:
        if record is not chosen:
            Path(record["spans_file"]).unlink(missing_ok=True)
    Path(chosen["spans_file"]).replace(OUT_DIR / f"spans-{chosen['workload']}"
                                                 f"-{chosen['seed']}.npz")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Scenario benchmark for the simulator.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        passes = run_passes(args)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    run_failures = judge(passes, pinned_digest(args))
    run_failures += compare_with_record(args, passes)
    for record in passes:
        for failure in record["failures"]:
            kind = "traced" if record["traced"] else "plain"
            print(f"{kind} pass failure: {failure}", file=sys.stderr)
    for failure in run_failures:
        print(f"run failure: {failure}", file=sys.stderr)
    correct, attempted, failed = summarize(passes, run_failures)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    metrics = (per_layer(untraced, traced) if args.trace
               else end_to_end(untraced))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
