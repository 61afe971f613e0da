"""Fast tests of the benchmark itself, at tiny workload sizes.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from scenarios import SCENARIOS  # noqa: E402
from tracer import LAYERS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _result(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.fixture(scope="module")
def traced_pass():
    return worker.run_pass("table2_hf", seed=3, size="tiny", traced=True)


def test_workload_names_agree():
    names = [workload["name"] for workload in SPEC["workloads"]]
    assert names == list(run.WORKLOADS) == list(SCENARIOS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(trace, section):
    result = _result(_bench("--workload", "table2_hf", "--seed", "3",
                            "--seconds", "1", "--trace", str(trace),
                            "--size", "tiny"))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    emitted = {name: entry["unit"]
               for name, entry in result["metrics"].items()}
    assert emitted == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_traced_self_times_sum_to_no_more_than_wall(traced_pass):
    self_s = traced_pass["self_s"]
    assert set(self_s) == {f"{layer}_s" for layer in LAYERS}
    assert all(value >= 0 for value in self_s.values())
    assert sum(self_s.values()) <= traced_pass["wall_s"]
    assert traced_pass["counts"]["hw.pmu.accumulate_calls"] > 0


def test_tracing_does_not_change_outputs_or_counts(traced_pass):
    again = worker.run_pass("table2_hf", seed=3, size="tiny", traced=True)
    plain = worker.run_pass("table2_hf", seed=3, size="tiny")
    assert again["counts"] == traced_pass["counts"]
    assert plain["digest"] == traced_pass["digest"]
    assert plain["failures"] == []


def test_perturbed_pinned_digest_is_a_failure(traced_pass):
    record = copy.deepcopy(traced_pass)
    assert run.judge([record], expected_digest=record["digest"]) == []
    assert record["failures"] == []
    correct, attempted, failed = run.summarize([record], [])
    assert correct and failed == 0 and attempted == record["trials"]

    perturbed = copy.deepcopy(traced_pass)
    wrong = ("0" if perturbed["digest"][0] != "0" else "1") \
        + perturbed["digest"][1:]
    run.judge([perturbed], expected_digest=wrong)
    assert any("pinned" in failure for failure in perturbed["failures"])
    correct, attempted, failed = run.summarize([perturbed], [])
    assert not correct and failed == attempted == perturbed["trials"]


def test_scenario_invariants_hold_at_tiny_size():
    for name in SCENARIOS:
        if name == "table2_hf":
            continue  # covered by the fixtures above
        record = worker.run_pass(name, seed=1, size="tiny")
        assert record["failures"] == [], name
        assert record["trials"] > 0 and record["trials_raised"] == 0


def test_exits_nonzero_without_the_simulator():
    bare = run.OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        completed = _bench("--workload", "table2_hf", "--seed", "0",
                           "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
