"""One benchmark pass in a fresh interpreter.

Run by ``run.py``, from the checkout root with ``src`` on the path::

    python3 perfbench/worker.py --workload table2_hf --seed 0 \
        --spawned-at <time.monotonic() before the spawn> [--traced]

It imports the simulator, runs the scenario once, checks its outputs
and prints one JSON object as its last line of output.  ``setup_s``
runs from the spawn to the first trial: interpreter start, imports and
program construction.  ``wall_s`` times the experiment entry point.

The process pins itself to the CPU it starts on and times a fixed
reference loop before the experiment, after each trial and after the
experiment, so that ``run.py`` can correct the pass's timings for the
host's speed at the time.  ``wall_s`` excludes the loops run inside
the experiment call.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy  # noqa: E402
from capture import TrialCapture  # noqa: E402
from scenarios import SCENARIOS, digest  # noqa: E402
from tracer import LayerTracer  # noqa: E402


def pin_to_current_cpu() -> None:
    """Keep the pass, reference loops included, on one CPU: the CPUs of
    a shared host slow down independently of each other."""
    if not hasattr(os, "sched_setaffinity"):
        return
    stat = Path("/proc/self/stat").read_text()
    cpu = int(stat.rsplit(")", 1)[1].split()[36])  # field 39, "processor"
    os.sched_setaffinity(0, {cpu})


def reference_loop_s() -> float:
    """Host seconds for a fixed pure-Python loop of dict, integer and
    call work, the simulator's own mix."""
    started = time.perf_counter()
    table: dict = {}
    total = 0
    for index in range(150_000):
        table[index & 1023] = index
        total += table.get(index & 511, 0) * 3 // 7
    return time.perf_counter() - started


def run_pass(workload: str, seed: int, size: str = "full",
             traced: bool = False, spans_path=None) -> dict:
    """Run ``workload`` once and return the pass record."""
    scenario = SCENARIOS[workload]
    reference_before = reference_loop_s()
    tracer = LayerTracer() if traced else None
    capture = TrialCapture(tracer, reference_loop_s)
    if tracer is not None:
        tracer.install()
    capture.install()
    failures = []
    result = None
    started = time.monotonic()
    try:
        result = scenario.run(seed, **scenario.sizes[size])
    except Exception:  # a failed pass is reported, not fatal
        failures.append(traceback.format_exc(limit=3))
    finally:
        wall_s = time.monotonic() - started - sum(capture.reference_s)
        capture.uninstall()
        if tracer is not None:
            tracer.uninstall()
    reference_s = [reference_before, *capture.reference_s, reference_loop_s()]
    records = capture.records
    headline = {}
    if result is not None:
        headline = scenario.headline(result)
        failures.extend(scenario.check(result, records))
    record = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "traced": traced,
        "first_trial_at": capture.first_trial_at or started,
        "wall_s": wall_s,
        "reference_s": reference_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trials": capture.attempted,
        "trials_raised": capture.raised,
        "instructions": sum(r["instructions"] for r in records),
        "samples": sum(r["samples"] for r in records),
        "failures": failures,
        "host": {"nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": numpy.__version__},
        "digest": digest(records, headline),
        "counts": {
            f"hw.cache.{key}": sum(r["cache"][key] for r in records)
            for key in ("accesses", "l1_misses", "l2_misses", "llc_misses")
        },
    }
    record["counts"]["kernel.smp.migrations"] = sum(
        r.get("migrations", 0) for r in records)
    if tracer is not None:
        record["counts"].update(tracer.counts)
        record["self_s"] = tracer.self_seconds()
        if spans_path is not None:
            tracer.save(spans_path)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=SCENARIOS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", help="write the traced pass's spans here")
    args = parser.parse_args(argv)
    pin_to_current_cpu()
    record = run_pass(args.workload, args.seed, args.size, args.traced,
                      args.spans)
    first = record.pop("first_trial_at")
    # The first reference loop runs between spawn and first trial.
    record["setup_s"] = first - args.spawned_at - record["reference_s"][0]
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
