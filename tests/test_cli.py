import argparse
import csv
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksysid import solver
from blocksysid.blocks import support_pattern
from blocksysid.cli import build_parser, main
from blocksysid.experiments import ESTIMATOR_NAMES, build_model, estimate, resolve_lambda
from blocksysid.lti import (
    GENERATOR_PARAMS,
    TrajectoryBatch,
    load_batch_csv,
    load_model,
    model_to_dict,
    save_batch_csv,
    simulate_batch,
    write_json,
)
from blocksysid.metrics import error_norms, mismatch_error
from blocksysid.solver import (
    EstimatorConfig,
    LeastSquaresUndefined,
    kkt_residual,
    solve_block_regularized,
    solve_least_squares,
)

ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args):
    return main([str(a) for a in args])


def test_gen_deterministic_files(tmp_path):
    out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
    assert run_cli("gen", "--generator", "synthetic", "--n", 12, "--w", 2, "--seed", 7, "--out", out1) == 0
    assert run_cli("gen", "--generator", "synthetic", "--n", 12, "--w", 2, "--seed", 7, "--out", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()
    model = load_model(str(out1))
    assert model.n == 12 and model.m == 12


def test_gen_other_generators(tmp_path):
    p = tmp_path / "spring.json"
    assert run_cli("gen", "--generator", "mass_spring", "--masses", 4, "--out", p) == 0
    assert load_model(str(p)).n == 8
    p2 = tmp_path / "agents.json"
    assert run_cli("gen", "--generator", "multi_agent", "--agents", 5, "--degree", 2,
                   "--state-size", 2, "--input-size", 2, "--seed", 3, "--out", p2) == 0
    assert load_model(str(p2)).partition.max_block_size == 4


@pytest.mark.parametrize(
    "args, missing",
    [
        (("--generator", "synthetic", "--n", 8), "generator 'synthetic': missing parameter 'w'"),
        (("--generator", "mass_spring", "--dt", 0.1), "generator 'mass_spring': missing parameter 'masses'"),
        (("--generator", "multi_agent", "--agents", 4), "generator 'multi_agent': missing parameter 'degree'"),
    ],
)
def test_gen_names_a_missing_parameter(tmp_path, capsys, args, missing):
    out = tmp_path / "m.json"
    assert run_cli("gen", *args, "--out", out) == 2
    assert capsys.readouterr().err == f"error: {missing}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        # the seed rule that a sweep config's seeds follow, not numpy's message, which names no flag
        (("--generator", "synthetic", "--n", 8, "--w", 1, "--seed", -1), "seed must be nonnegative, got -1"),
        (("--generator", "mass_spring", "--masses", 0), "generator 'mass_spring': need at least one mass"),
        (("--generator", "multi_agent", "--agents", 3, "--degree", 3),
         "generator 'multi_agent': degree must lie in [0, 2]"),
        (("--generator", "mass_spring", "--masses", 2, "--dt", -1),
         "generator 'mass_spring': sampling time dt must be a finite, positive number, got -1.0"),
        # a flag that the kind does not take goes to the generator's rule; it was dropped unread
        (("--generator", "synthetic", "--n", 6, "--w", 1, "--masses", 3, "--dt", 0.5),
         "generator 'synthetic': unknown parameter(s) 'dt', 'masses'"),
        (("--generator", "mass_spring", "--masses", 2, "--state-size", 3),
         "generator 'mass_spring': unknown parameter(s) 'state_size'"),
        (("--generator", "multi_agent", "--agents", 4, "--degree", 1, "--n", 8),
         "generator 'multi_agent': unknown parameter(s) 'n'"),
    ],
)
def test_gen_names_a_bad_seed_or_parameter(tmp_path, capsys, args, message):
    out = tmp_path / "m.json"
    assert run_cli("gen", *args, "--out", out) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, args",
    [("multi_agent", {"agents": 4, "degree": 1}), ("mass_spring", {"masses": 3})],
)
def test_gen_fills_defaults_from_the_table(capsys, kind, args):
    flags = [str(a) for key, value in args.items() for a in (f"--{key}", value)]
    assert run_cli("gen", "--generator", kind, *flags, "--seed", 3) == 0
    _, defaults, _ = GENERATOR_PARAMS[kind]
    expected = model_to_dict(build_model({"kind": kind, **args, **defaults}, seed=3))
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


def test_gen_flags_match_the_generator_table():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a for a in sub.choices["gen"]._actions}
    for name in ("help", "generator", "seed", "out"):
        del flags[name]
    params = {name for required, optional, _ in GENERATOR_PARAMS.values() for name in (*required, *optional)}
    assert set(flags) == params
    for name, action in flags.items():
        assert action.default is None, name  # an unset flag leaves the table's default in force
        assert action.type is (float if name == "dt" else int), name
    assert tuple(sub.choices["gen"]._option_string_actions["--generator"].choices) == tuple(GENERATOR_PARAMS)


def test_check_report_keys_in_order(tmp_path, capsys):
    p = tmp_path / "m.json"
    run_cli("gen", "--generator", "synthetic", "--n", 8, "--w", 1, "--seed", 1, "--out", p)
    assert run_cli("check", "--model", p, "--T", 3) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["gamma", "lambda_min", "lambda_max", "t_min", "alpha_n", "alpha_m", "satisfied"]
    assert list(doc["satisfied"]) == ["A1", "A2", "A3"]


def test_check_reports_positive_gamma(tmp_path, capsys):
    p = tmp_path / "m.json"
    run_cli("gen", "--generator", "synthetic", "--n", 10, "--w", 1, "--seed", 0, "--out", p)
    assert run_cli("check", "--model", p, "--T", 3) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gamma"] > 0
    assert doc["satisfied"]["A1"] is True


def test_solve_lambda_zero_matches_least_squares(tmp_path):
    p = tmp_path / "m.json"
    run_cli("gen", "--generator", "synthetic", "--n", 6, "--w", 1, "--seed", 2, "--out", p)
    est = tmp_path / "est.json"
    ls = tmp_path / "ls.json"
    assert run_cli("solve", "--model", p, "--T", 3, "--d", 50, "--seed", 4,
                   "--lambda", 0, "--out", est) == 0
    assert run_cli("solve", "--model", p, "--T", 3, "--d", 50, "--seed", 4,
                   "--estimator", "least_squares", "--out", ls) == 0
    a = np.asarray(json.loads(est.read_text())["theta_hat"])
    b = np.asarray(json.loads(ls.read_text())["theta_hat"])
    assert np.abs(a - b).max() < 1e-6


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("row_sizes", 5, "row_sizes must be a list of integers, got 5"),
        ("row_sizes", [1.5, 1, 1, 1, 1, 1], "every entry of row_sizes must be an integer, got 1.5"),
        ("col_sizes", [1, 1, 1, 1.0], "every entry of col_sizes must be an integer, got 1.0"),
        ("n", "abc", "field 'n' must be an integer, got 'abc'"),
        ("A", "abc", "field 'A' must be a rectangular array of finite numbers"),
        ("A", [[1.0, 0.0, 0.0, 0.0], [1.0]], "field 'A' must be a rectangular array of finite numbers"),
        ("A", [[None] * 4] * 4, "field 'A' must be a rectangular array of finite numbers"),
        ("sigma_u", [[1.0, "x"], [0.0, 1.0]],
         "field 'sigma_u' must be a rectangular array of finite numbers"),
        ("B", [[1.0]], "B must be 4x2, got (1, 1)"),
        ("n", 5, "fields n/m disagree with the block sizes"),
    ],
)
def test_check_names_a_bad_size_in_the_model(tmp_path, capsys, field, value, message):
    p = tmp_path / "m.json"
    run_cli("gen", "--generator", "mass_spring", "--masses", 2, "--out", p)  # n = 4, m = 2, unit blocks
    doc = json.loads(p.read_text())
    doc[field] = value
    p.write_text(json.dumps(doc))
    assert run_cli("check", "--model", p, "--T", 3) == 2
    # every fault names the file, then the field
    assert capsys.readouterr().err == f"error: {p}: {message}\n"


def test_solve_from_batch_file(tmp_path):
    p = tmp_path / "m.json"
    run_cli("gen", "--generator", "synthetic", "--n", 6, "--w", 1, "--seed", 2, "--out", p)
    model = load_model(str(p))
    batch = simulate_batch(model, 3, 40, seed=9)
    bpath = tmp_path / "batch.csv"
    save_batch_csv(batch, str(bpath))
    out = tmp_path / "est.json"
    assert run_cli("solve", "--model", p, "--batch", bpath, "--out", out) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"theta_hat", "support_mask", "lambda_d", "kkt_residual"}
    assert np.asarray(doc["theta_hat"]).shape == (12, 6)
    assert doc["lambda_d"] == resolve_lambda("schedule", model.partition, 40)  # --lambda auto


@pytest.mark.parametrize("estimator", ["block_reg", "least_squares"])
def test_solve_document(tmp_path, estimator):
    p = tmp_path / "m.json"
    run_cli("gen", "--generator", "synthetic", "--n", 6, "--w", 1, "--seed", 17, "--out", p)
    model = load_model(str(p))
    bpath = tmp_path / "batch.csv"
    save_batch_csv(simulate_batch(model, 3, 40, seed=17), str(bpath))
    out = tmp_path / "est.json"
    assert run_cli("solve", "--model", p, "--batch", bpath, "--estimator", estimator,
                   "--lambda", 0.2, "--no-standardize", "--out", out) == 0
    doc = json.loads(out.read_text())
    assert list(doc) == ["theta_hat", "support_mask", "lambda_d", "kkt_residual"]
    batch = load_batch_csv(str(bpath))
    if estimator == "block_reg":
        res = solve_block_regularized(batch, model.partition, EstimatorConfig(lambda_d=0.2))
        theta, support, lam = res.theta_hat, res.support, 0.2
        assert 0 < support.mask.sum() < support.mask.size
    else:
        theta = solve_least_squares(batch)
        support, lam = support_pattern(theta, model.partition), 0.0
    assert np.array_equal(np.asarray(doc["theta_hat"]), theta)
    assert np.array_equal(np.asarray(doc["support_mask"], dtype=bool), support.mask)
    assert doc["lambda_d"] == lam
    assert doc["kkt_residual"] >= 0


small_generators = st.one_of(
    st.builds(lambda n, w: {"kind": "synthetic", "n": n, "w": w}, st.integers(4, 6), st.integers(0, 1)),
    st.builds(lambda masses: {"kind": "mass_spring", "masses": masses}, st.integers(1, 3)),
    st.builds(
        lambda agents, state, inp: {"kind": "multi_agent", "agents": agents, "degree": 1, "state_size": state,
                                    "input_size": inp},
        st.integers(2, 3), st.integers(1, 2), st.integers(1, 2),
    ),
)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    generator=small_generators,
    seed=st.integers(0, 3),
    T=st.integers(2, 4),
    d=st.integers(4, 40),
    estimator=st.sampled_from(ESTIMATOR_NAMES),
    lam=st.one_of(st.just("auto"), st.floats(0.01, 1.0).map(repr)),
    standardize=st.booleans(),
)
def test_solve_document_reads_back_bit_for_bit(generator, seed, T, d, estimator, lam, standardize):
    # The JSON round trip keeps every bit of the estimate, signed zeros
    # included, of its support, its weight and its residual.
    model = build_model(generator, seed)
    batch = simulate_batch(model, T, d, seed)
    mode = "schedule" if lam == "auto" else f"fixed:{lam}"
    with tempfile.TemporaryDirectory() as tmp:
        model_path, out = Path(tmp) / "m.json", Path(tmp) / "est.json"
        write_json(model_to_dict(model), str(model_path))
        args = ["solve", "--model", model_path, "--T", T, "--d", d, "--seed", seed, "--estimator", estimator,
                "--lambda", lam, "--standardize" if standardize else "--no-standardize", "--out", out]
        try:
            theta, support, lam_d, result = estimate(estimator, batch, model.partition, mode, standardize)
        except LeastSquaresUndefined:
            assert run_cli(*args) == 2 and not out.exists()
            return
        assert run_cli(*args) == 0
        doc = json.loads(out.read_text())
    if result is None:
        lam_d, residual = 0.0, kkt_residual(theta, batch, model.partition, 0.0)
    else:
        residual = result.kkt_residual
    got = np.asarray(doc["theta_hat"], dtype=float)
    assert got.shape == theta.shape and np.array_equal(got.view(np.uint64), theta.view(np.uint64))
    assert np.array_equal(np.asarray(doc["support_mask"], dtype=bool), support.mask)
    assert np.float64(doc["lambda_d"]).tobytes() == np.float64(lam_d).tobytes()
    assert np.float64(doc["kkt_residual"]).tobytes() == np.float64(residual).tobytes()


def test_solve_output_deterministic(tmp_path):
    p = tmp_path / "m.json"
    run_cli("gen", "--generator", "synthetic", "--n", 6, "--w", 1, "--seed", 1, "--out", p)
    o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
    for o in (o1, o2):
        run_cli("solve", "--model", p, "--T", 3, "--d", 60, "--seed", 5, "--out", o)
    assert o1.read_bytes() == o2.read_bytes()


def test_sweep_deterministic_csv(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "generator": {"kind": "synthetic", "n": 8, "w": 1},
        "T_list": [3],
        "d_list": [20, 50],
        "seeds": [0, 1],
        "estimators": ["block_reg", "least_squares"],
    }))
    o1, o2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert run_cli("sweep", "--config", cfg, "--out", o1) == 0
    assert run_cli("sweep", "--config", cfg, "--out", o2) == 0
    assert o1.read_bytes() == o2.read_bytes()
    header = o1.read_text().splitlines()[0]
    assert header.startswith("generator,gen_params,n,m,T,d,seed,estimator,status,lambda_d")


@pytest.mark.parametrize("estimator", ESTIMATOR_NAMES)
def test_solve_and_sweep_agree_on_one_point(tmp_path, capsys, estimator):
    # one model, horizon and seed; d = 5 is below n+m = 12, where least squares is undefined
    model_path, cfg, sweep_csv = tmp_path / "m.json", tmp_path / "cfg.json", tmp_path / "r.csv"
    run_cli("gen", "--generator", "synthetic", "--n", 6, "--w", 1, "--seed", 4, "--out", model_path)
    cfg.write_text(json.dumps({
        "generator": {"kind": "synthetic", "n": 6, "w": 1},
        "T_list": [3], "d_list": [5, 40], "seeds": [4], "estimators": [estimator],
    }))
    assert run_cli("sweep", "--config", cfg, "--out", sweep_csv) == 0
    rows = {int(row["d"]): row for row in csv.DictReader(sweep_csv.read_text().splitlines())}
    model = load_model(str(model_path))
    for d, row in rows.items():
        out = tmp_path / f"est{d}.json"
        capsys.readouterr()
        code = run_cli("solve", "--model", model_path, "--T", 3, "--d", d, "--seed", 4,
                       "--estimator", estimator, "--out", out)
        if estimator == "least_squares" and d == 5:
            assert code == 2
            assert capsys.readouterr().err.startswith("error: least squares undefined")
            assert row["status"] == "undefined"
            continue
        assert code == 0 and row["status"] == "ok"
        doc = json.loads(out.read_text())
        # the sweep leaves least squares' weight empty; solve writes the 0 it is certified at
        assert doc["lambda_d"] == (float(row["lambda_d"]) if row["lambda_d"] else 0.0)
        theta = np.asarray(doc["theta_hat"])
        support = support_pattern(theta, model.partition)
        assert np.array_equal(support.mask, np.asarray(doc["support_mask"], dtype=bool))
        truth = support_pattern(model.stacked(), model.partition)
        assert mismatch_error(support, truth) == int(row["mismatch"])
        assert error_norms(theta, model.stacked()).linf_elementwise == float(row["linf"])


def test_the_settable_surface(tmp_path, capsys):
    # lambda_d is the estimator's one parameter; solver.KKT_TOL and solver.MAX_ITER are the stopping rule
    assert [f.name for f in dataclasses.fields(EstimatorConfig)] == ["lambda_d", "standardize"]
    # the seeds come from the config and the output path from --out, each from nowhere else
    doc = {"generator": {"kind": "synthetic", "n": 8, "w": 1}, "T_list": [3], "d_list": [20], "seeds": [0]}
    cfg, out = tmp_path / "cfg.json", tmp_path / "r.csv"
    cfg.write_text(json.dumps({**doc, "output_path": str(out)}))
    assert run_cli("sweep", "--config", cfg, "--out", out) == 2
    assert capsys.readouterr().err == f"error: {cfg}: unknown field(s) 'output_path'\n"
    cfg.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exit_info:
        run_cli("sweep", "--config", cfg, "--out", out, "--seed", 1)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --seed 1\n")
    assert not out.exists()


def test_cli_error_reporting(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run_cli("check", "--model", missing, "--T", 3) == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run_cli("check", "--model", bad, "--T", 3) == 2


def test_sweep_without_an_output_path_fails_before_any_point(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "generator": {"kind": "synthetic", "n": 8, "w": 1},
        "T_list": [3], "d_list": [20], "seeds": [0],
    }))

    def no_sweep(config):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("blocksysid.cli.run_experiment", no_sweep)
    with pytest.raises(SystemExit) as exit_info:
        run_cli("sweep", "--config", cfg)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith("error: the following arguments are required: --out\n")


@pytest.mark.parametrize("value", ["foo", "nan", "inf", "-1"])
def test_solve_names_a_bad_lambda(tmp_path, capsys, value):
    p = tmp_path / "m.json"
    with pytest.raises(SystemExit) as exit_info:
        run_cli("solve", "--model", p, "--T", 3, "--d", 20, "--lambda", value)
    assert exit_info.value.code == 2
    message = f"argument --lambda: expected 'auto' or a finite, nonnegative number, got '{value}'\n"
    assert capsys.readouterr().err.endswith(message)


@pytest.mark.parametrize("flags", [(), ("--T", 3), ("--d", 20)])
def test_solve_without_a_batch_or_horizon_and_count_is_a_config_error(tmp_path, capsys, flags):
    p = tmp_path / "m.json"
    run_cli("gen", "--generator", "mass_spring", "--masses", 2, "--out", p)
    assert run_cli("solve", "--model", p, *flags) == 2
    assert capsys.readouterr().err == "error: solve needs --batch, or --T and --d to simulate one\n"


@pytest.mark.parametrize("flags", [("--T", 3), ("--d", 20), ("--T", 9, "--d", 5)])
def test_solve_with_a_batch_and_a_horizon_or_count_is_a_config_error(tmp_path, capsys, flags):
    # --T and --d were ignored when a batch was given
    p = tmp_path / "m.json"
    run_cli("gen", "--generator", "mass_spring", "--masses", 2, "--out", p)
    bpath = tmp_path / "batch.csv"
    save_batch_csv(simulate_batch(load_model(str(p)), 3, 20, seed=0), str(bpath))
    assert run_cli("solve", "--model", p, "--batch", bpath, *flags) == 2
    message = "error: solve takes --batch, or --T and --d to simulate one, but not both\n"
    assert capsys.readouterr() == ("", message)


def test_solve_least_squares_support_counts_any_nonzero_entry(tmp_path, capsys):
    # the design is the identity, so the estimate is the observation: one entry of 5e-9
    p = tmp_path / "m.json"
    run_cli("gen", "--generator", "mass_spring", "--masses", 1, "--out", p)  # n = 2, m = 1
    Y = np.zeros((3, 2))
    Y[2, 1] = 5e-9
    bpath = tmp_path / "batch.csv"
    save_batch_csv(TrajectoryBatch(X=np.eye(3), Y=Y), str(bpath))
    assert run_cli("solve", "--model", p, "--batch", bpath, "--estimator", "least_squares") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["support_mask"] == [[0, 0], [0, 0], [0, 1]]


def test_solve_warns_when_the_solver_hits_the_iteration_cap(tmp_path, capsys, monkeypatch):
    p = tmp_path / "m.json"
    run_cli("gen", "--generator", "synthetic", "--n", 6, "--w", 1, "--seed", 2, "--out", p)
    monkeypatch.setattr(solver, "MAX_ITER", 2)
    out = tmp_path / "est.json"
    assert run_cli("solve", "--model", p, "--T", 3, "--d", 50, "--out", out) == 0
    residual = json.loads(out.read_text())["kkt_residual"]
    assert residual > 1e-7
    assert capsys.readouterr().err == f"warning: solver hit the iteration cap (kkt residual {residual:.3e})\n"


def test_python_m_entry_point(tmp_path):
    p = tmp_path / "m.json"
    run_cli("gen", "--generator", "mass_spring", "--masses", 2, "--out", p)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    def run(*args):
        cmd = [sys.executable, "-m", "blocksysid", *args]
        return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)

    shown = run("--help")
    assert shown.returncode == 0
    assert shown.stdout.startswith("usage: blocksysid")
    failed = run("solve", "--model", str(p))
    assert failed.returncode == 2
    assert failed.stderr == "error: solve needs --batch, or --T and --d to simulate one\n"
