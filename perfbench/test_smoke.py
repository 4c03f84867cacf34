"""Toy-size smoke test of the benchmark itself.  It asserts counts, never times.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from check import check_pass, parse_rows  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

TOY = Workload(
    name="toy",
    generator={"kind": "synthetic", "n": 6, "w": 1},
    T_list=(3, 4),
    d_list=(8, 30),
    seed_offsets=(0, 1),
    estimators=("block_reg", "least_squares"),
)
COUNTS = [name for name, (unit, *_) in LAYER_METRICS.items() if unit == "count"] + [
    name for name, unit in run.HARNESS_LAYER_UNITS.items() if unit == "count"]


@pytest.fixture(scope="module")
def traced_runs():
    return [run.run_workload(TOY, seed=5, seconds=0, trace=True) for _ in range(2)]


def _values(detail):
    return {k: m["value"] for k, m in detail["result"]["metrics"].items()}


def test_counts_follow_the_config(traced_runs):
    got = _values(traced_runs[0])
    assert traced_runs[0]["result"]["correct"] and traced_runs[0]["result"]["failed"] == 0
    assert got["experiments.points"] == TOY.points == 8
    assert got["lti.trajectories"] == sum(TOY.d_list) * len(TOY.T_list) * len(TOY.seed_offsets)
    assert got["solver.block_reg_calls"] == TOY.points
    assert got["theory.check_calls"] == TOY.points
    columns = TOY.generator["n"]  # unit blocks: one block column per state
    assert got["solver.kkt_evals"] == got["solver.col_iterations"] + columns * got["solver.block_reg_calls"]
    assert got["solver.ls_defined_frac"] == 0.5  # d=8 < n+m=12 <= d=30
    assert got["experiments.csv_identical"] == 1.0


def test_counts_repeat_exactly(traced_runs):
    first, second = (_values(d) for d in traced_runs)
    assert COUNTS
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}


def test_metric_names_match_benchmark_json(traced_runs):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(traced_runs[0]["result"]["metrics"])
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_check_names_the_first_bad_row_and_field(traced_runs):
    text = (run.OUT / "toy-seed5.pass.csv").read_text()
    rows = parse_rows(text)
    expected = TOY.points_of(5)
    bad = [dict(r) for r in rows]
    bad[2]["mismatch"] = str(int(bad[2]["mismatch"]) + 1)
    bad[5]["op_norm"] = repr(float(bad[5]["op_norm"]) * (1 + 1e-3))
    failed = check_pass(bad, expected, TOY.estimators, None, rows)
    assert len(failed) == 2
    assert "mismatch=" in failed[(bad[2]["T"], bad[2]["d"], bad[2]["seed"])]
    assert "op_norm=" in failed[(bad[5]["T"], bad[5]["d"], bad[5]["seed"])]
    assert check_pass(rows, expected, TOY.estimators, rows, rows) == {}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_agents", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_a_deleted_layer_is_missing_not_zero(monkeypatch):
    import blocksysid.lti

    monkeypatch.delattr(blocksysid.lti, "gen_multi_agent")
    detail = run.run_workload(TOY, seed=5, seconds=0, trace=True)
    metrics = detail["result"]["metrics"]
    assert detail["missing"] == ["lti.gen_multi_agent"]
    assert metrics["lti.generate_s"] == {"value": None, "unit": "s", "missing": True}
    assert metrics["lti.simulate_s"]["value"] > 0


def test_untraced_run_reports_end_to_end_metrics():
    detail = run.run_workload(TOY, seed=5, seconds=0, trace=False)
    result = detail["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2 * TOY.points
    assert list(result["metrics"]) == list(run.END_TO_END_UNITS)
    assert detail["stats"]["setup_s"]["n"] == run.SETUP_PROBES
    assert detail["stats"]["points_per_s"]["n"] == 2
    assert len(detail["probe_seconds"]) == 2 and min(detail["probe_seconds"]) > 0
    assert detail["stats"]["points_failed_frac"] == {"median": 0.0, "n": 2 * TOY.points}


def test_a_failing_sweep_fails_every_point():
    broken = Workload("broken", TOY.generator, (1,), TOY.d_list, TOY.seed_offsets, TOY.estimators)
    result = run.run_workload(broken, seed=5, seconds=0, trace=True)["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2 * broken.points
