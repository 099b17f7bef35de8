"""The benchmark's own tests (kept out of the repository's test run).

    python3 -m pytest perfbench/selftest.py -q

A tiny-size pass of each workload must report every named metric with its
unit, a corrupted reference must raise the failed-operation count, and the
benchmark must refuse to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.fixture(scope="module")
def workloads_module():
    """The benchmark's modules, imported in-process against ``src``."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import checks
    import workloads

    return workloads, checks


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    done = run_benchmark(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers_add_up_to_the_traced_operation(workload):
    sys.path.insert(0, str(HERE))
    import layers

    done = run_benchmark(ROOT, workload, 1)
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    names = [metric for metric, _layer in layers.TIME_LAYERS] + ["api.unattributed_s"]
    summed = sum(metrics[name]["value"] for name in names)
    assert summed == pytest.approx(metrics["api.traced_op_s"]["value"], rel=1e-9)


def test_corrupted_planted_optimum_fails_the_bound(workloads_module, tmp_path):
    workloads, checks = workloads_module
    workload = workloads.KCoverStream(ROOT, tmp_path, seed=3, tiny=True)
    workload.setup()
    workload.prepare()
    tally = checks.Tally()
    workload.operate(tally)
    assert (tally.attempted, tally.failed) == (1, 0)
    workload.planted_value *= 3
    workload.operate(tally)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_corrupted_solve_reference_fails_served_answers(workloads_module, tmp_path):
    workloads, checks = workloads_module
    workload = workloads.ServeMixed(ROOT, tmp_path, seed=3, tiny=True)
    workload.setup()
    workload.prepare()
    tally = checks.Tally()
    workload.operate(tally)
    assert tally.failed == 0
    workload.reference["read-b"] = (workload.num_sets - 1,)
    workload.operate(tally)
    assert tally.failed == workload.batch().count("read-b")


def test_corrupted_cli_reference_fails_every_run(workloads_module, tmp_path):
    workloads, checks = workloads_module
    workload = workloads.DistributedColumnar(ROOT, tmp_path, seed=3, tiny=True)
    workload.setup()
    workload.prepare()
    workload.reference.extra["coordinator_edges"] += 1
    tally = checks.Tally()
    workload.operate(tally)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_pinned_digest_mismatch_is_a_failure(workloads_module, tmp_path, monkeypatch):
    workloads, checks = workloads_module
    workload = workloads.KCoverStream(ROOT, tmp_path, seed=3, tiny=False)
    pinned = tmp_path / "pinned.json"
    pinned.write_text(json.dumps({"digests": {"3": {"kcover-stream": "0" * 16}}}))
    monkeypatch.setattr(checks, "PINNED_PATH", pinned)
    assert workload.check_pinned([1, 2, 3])
    pinned.write_text(json.dumps({"digests": {"3": {"kcover-stream": checks.digest([1, 2, 3])}}}))
    assert workload.check_pinned([1, 2, 3]) == []


def test_compare_verdicts(workloads_module):
    from compare import verdict

    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert verdict(base, [1.05, 1.06, 1.04, 1.05, 1.07], "lower", 0.1) == "within bound"
    assert verdict(base, [1.20, 1.21, 1.19, 1.20, 1.22], "lower", 0.1) == "worse than bound"
    assert verdict(base, [0.80, 0.81, 0.79, 0.80, 0.82], "higher", 0.1) == "worse than bound"
    noisy = [0.7, 1.0, 1.4, 0.8, 1.3]
    assert verdict(base, noisy, "lower", 0.1) == "unresolved"
    assert verdict(base, [0.5, 0.6, 0.9, 0.55, 0.95], "lower", 0.1) == "within bound"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "results", "work", "__pycache__"))
    done = run_benchmark(tmp_path, "kcover-stream", 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
