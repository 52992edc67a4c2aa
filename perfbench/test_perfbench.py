"""Self-tests for the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from digitop import cli, search  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


@pytest.mark.parametrize("workload", run.NAMES)
def test_each_workload_completes_at_a_tiny_run_length(workload):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["suite", "enumerate"])
def test_traced_run_reports_every_per_layer_metric(workload):
    done = bench("--workload", workload, "--seed", "0", "--seconds", "0.1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stderr
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    if workload == "suite":
        assert metrics["metric.distance_calls"] >= 100 * metrics["metric.distance_keys"]
    else:
        assert metrics["metric.distance_calls"] < 1000
        assert metrics["search.instances_scanned"] > 500_000


def test_missing_sources_fail_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "suite", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_same_seed_gives_the_same_inputs(tmp_path):
    for name, cls in workloads.WORKLOADS.items():
        first, second = tmp_path / f"{name}-1", tmp_path / f"{name}-2"
        first.mkdir()
        second.mkdir()
        assert cls(7, first).inputs() == cls(7, second).inputs()


def test_another_seed_changes_the_documents_and_the_grid(tmp_path):
    assert workloads.Hunt(0, tmp_path).grid == search.DEFAULT_PARAM_GRID
    assert workloads.Hunt(1, tmp_path).grid != workloads.Hunt(2, tmp_path).grid
    assert workloads.Hunt(1, tmp_path).grid != search.DEFAULT_PARAM_GRID
    assert workloads.CliDocs(1, tmp_path).inputs() != workloads.CliDocs(2, tmp_path).inputs()


@pytest.mark.parametrize("seed", [1, 2])
def test_a_drawn_grid_decides_every_instance_like_the_default(seed):
    grid = oracle.draw_grid(seed, oracle.scan_universe(4))
    for assertion in ("quasi-fixed-point", "five-term-fixed-point"):
        default = search.find_counterexample(assertion, 4)
        drawn = search.find_counterexample(assertion, 4, grid)
        assert drawn.stats == default.stats


def test_universe_counts_match_the_documented_figures():
    assert oracle.universe_count(oracle.scan_universe(5), 1, 3) == 35_325
    assert oracle.universe_count(oracle.scan_universe(4, True), 2, 3) == 596_538


# -- the oracle catches doctored outputs --------------------------------


def test_a_flipped_suite_verdict_fails(tmp_path):
    suite = workloads.Suite(0, tmp_path)
    doc = json.loads(suite.golden["verify-paper"])
    assert suite.ops[0].check(doc)
    doc["entries"][3]["passed"] = not doc["entries"][3]["passed"]
    assert not suite.ops[0].check(doc)


@pytest.mark.parametrize("seed", [0, 4])
def test_a_changed_witness_fails(tmp_path, seed):
    hunt = workloads.Hunt(seed, tmp_path)
    op = next(o for o in hunt.ops if o.label == "search dominated-common-fix")
    outcome, replayed, document = op.run()
    assert op.check((outcome, replayed, document))
    g, h = outcome.maps
    doctored = dataclasses.replace(outcome, maps=(g, g))  # a common fixed point
    assert not op.check((doctored, replayed, document))


def test_a_changed_fixed_point_list_fails(tmp_path):
    docs = workloads.CliDocs(5, tmp_path)
    op = next(o for o in docs.ops if " check-map " in o.label)
    code, stdout = op.run()
    assert op.check((code, stdout))
    payload = json.loads(stdout)
    payload["fixed_points"] = payload["fixed_points"][1:] or [[0]]
    assert not op.check((code, json.dumps(payload)))


def _nudged(value):
    if isinstance(value, float):
        return value * (1 + 1e-6)
    if isinstance(value, int):
        return value + 1
    return f"{value} + 1/7"


@pytest.mark.parametrize("metric", ["l1", "l2", "l3", "sp"])
def test_a_changed_classify_verdict_or_constant_fails(tmp_path, metric):
    docs = workloads.CliDocs(5, tmp_path)
    for suffix in (f" classify shape8 {metric}", f" classify shape8 {metric} pair"):
        op = next(o for o in docs.ops if o.label.endswith(suffix))
        code, stdout = op.run()
        assert op.check((code, stdout))
        for key in ("holds_below_one", "no_finite_constant", "minimal_constant"):
            payload = json.loads(stdout)
            row = payload["conditions"][0]
            if key not in row:
                continue
            value = row[key]
            row[key] = not value if isinstance(value, bool) else _nudged(value)
            assert not op.check((code, json.dumps(payload))), key


@pytest.mark.parametrize("metric", ["l2", "l3"])
def test_a_changed_hausdorff_distance_fails(tmp_path, metric):
    docs = workloads.CliDocs(5, tmp_path)
    op = next(o for o in docs.ops if o.label.endswith(f" hausdorff shape8 {metric}"))
    code, stdout = op.run()
    assert op.check((code, stdout))
    payload = json.loads(stdout)
    payload["distance"] = _nudged(payload["distance"] or 1)
    assert not op.check((code, json.dumps(payload)))


def test_a_doctored_program_raises_the_error_rate(tmp_path, monkeypatch):
    docs = workloads.CliDocs(0, tmp_path)
    docs.ops = [o for o in docs.ops if " check-map " in o.label or " fix " in o.label]
    clean = run.Tally()
    run.run_pass(docs, clean)
    assert clean.failed == 0
    monkeypatch.setattr(cli, "fixed_points", lambda m: ())
    doctored = run.Tally()
    run.run_pass(docs, doctored)
    assert doctored.failed / doctored.attempted > 0
