import csv
import io
import json
import re
import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksysid import experiments, lti
from blocksysid.experiments import (
    CSV_COLUMNS,
    ESTIMATOR_NAMES,
    ExperimentConfig,
    ExperimentRecord,
    build_model,
    estimate,
    records_to_csv,
    resolve_lambda,
    run_experiment,
    write_records_csv,
)
from blocksysid.lti import GENERATOR_PARAMS, _generator_params, _simulate_horizons, simulate_batch
from blocksysid.metrics import error_norms
from blocksysid.theory import check_assumptions, lambda_schedule

from oracles import sweep_per_point_reference


def small_config(**overrides):
    doc = dict(
        generator={"kind": "synthetic", "n": 8, "w": 1},
        T_list=[3],
        d_list=[10, 60],
        seeds=[0, 1],
        estimators=["block_reg", "least_squares"],
    )
    doc.update(overrides)
    return ExperimentConfig.from_dict(doc)


def test_config_validation():
    with pytest.raises(ValueError, match="missing field"):
        ExperimentConfig.from_dict({"generator": {"kind": "synthetic"}})
    with pytest.raises(ValueError, match="unknown generator"):
        small_config(generator={"kind": "nope"})
    with pytest.raises(ValueError, match="parameter 'w' must be an integer"):
        small_config(generator={"kind": "synthetic", "n": 8, "w": True})
    message = "config: every entry of T_list must be at least 2 (the state part of the design degenerates), got 1"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        small_config(T_list=[3, 1])
    with pytest.raises(ValueError, match="unknown estimator"):
        small_config(estimators=["ridge"])
    with pytest.raises(ValueError, match="lambda_mode"):
        small_config(lambda_mode="fixed:abc")
    # a string is not a boolean: "false" must not turn standardizing on
    with pytest.raises(ValueError, match="standardize"):
        small_config(standardize="false")
    # a misspelled field must not silently fall back to its default
    with pytest.raises(ValueError, match="unknown field.*'estimator'"):
        small_config(estimator=["least_squares"])
    # a float horizon must not be truncated
    with pytest.raises(ValueError, match="T_list"):
        small_config(T_list=[3.7])
    with pytest.raises(ValueError, match="d_list"):
        small_config(d_list=[True])
    # a trajectory index is one 32-bit spawn-key word: rejected before the
    # earlier points run, not by simulate_batch at the first point that has it
    with pytest.raises(ValueError, match=r"every entry of d_list must lie in \[1, 2\*\*32 - 1\]"):
        small_config(d_list=[10, 2**32])
    with pytest.raises(ValueError, match="d_list"):
        small_config(d_list=[0])
    assert small_config(d_list=[2**32 - 1]).d_list == (2**32 - 1,)
    with pytest.raises(ValueError, match="seeds"):
        small_config(seeds=[0.0])
    # a negative seed names the field here, not numpy's message at the first point
    with pytest.raises(ValueError, match="every entry of seeds must be nonnegative"):
        small_config(seeds=[0, -1])
    # a bare string must not be split into one-letter estimator names
    with pytest.raises(ValueError, match="estimators must be a list"):
        small_config(estimators="block_reg")
    for name in ("T_list", "d_list", "seeds", "estimators"):
        with pytest.raises(ValueError, match="T_list, d_list, seeds and estimators must be nonempty"):
            small_config(**{name: []})
    with pytest.raises(ValueError, match="generator must be a mapping with a 'kind' field"):
        small_config(generator=["synthetic"])
    with pytest.raises(ValueError, match=r"bad lambda_mode 0\.5: expected 'schedule' or 'fixed:<number>'"):
        small_config(lambda_mode=0.5)


def test_resolve_lambda_modes():
    model = build_model({"kind": "synthetic", "n": 8, "w": 1}, seed=0)
    part = model.partition
    assert resolve_lambda("schedule", part, 100) == pytest.approx(lambda_schedule(1, 8, 8, 100))
    assert resolve_lambda("fixed:0.25", part, 100) == 0.25


def test_build_model_dispatch():
    m1 = build_model({"kind": "mass_spring", "masses": 3, "dt": 0.2}, seed=5)
    assert m1.n == 6 and m1.m == 3
    m2 = build_model({"kind": "multi_agent", "agents": 4, "degree": 1,
                      "state_size": 2, "input_size": 2, "dt": 0.2}, seed=1)
    assert m2.n == 8
    with pytest.raises(ValueError, match="missing parameter"):
        build_model({"kind": "synthetic", "n": 8}, seed=0)
    # a misspelled parameter must not fall back to its default
    with pytest.raises(ValueError, match="unknown parameter.*'dT'"):
        build_model({"kind": "mass_spring", "masses": 3, "dT": 0.05}, seed=0)
    # a float count must not be truncated
    with pytest.raises(ValueError, match="parameter 'n' must be an integer"):
        build_model({"kind": "synthetic", "n": 8.9, "w": 1}, seed=0)
    # a bool, string, non-finite or nonpositive sampling time must not be read as a number
    for dt in (True, "0.5"):
        message = f"generator 'mass_spring': sampling time dt must be a real number, got {dt!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_model({"kind": "mass_spring", "masses": 3, "dt": dt}, seed=0)
    for dt in (float("nan"), float("inf"), 0, -0.5, 10**400):
        message = f"generator 'mass_spring': sampling time dt must be a finite, positive number, got {dt!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_model({"kind": "mass_spring", "masses": 3, "dt": dt}, seed=0)
    # the generator seed follows the rule of a sweep config's seeds
    with pytest.raises(ValueError, match=r"^seed must be nonnegative, got -1$"):
        build_model({"kind": "synthetic", "n": 8, "w": 1}, seed=-1)
    with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.5$"):
        build_model({"kind": "multi_agent", "agents": 4, "degree": 1}, seed=1.5)


# Generator mappings of every kind with small values, bad ones included: counts
# from -1 up and of the wrong type, and every kind of sampling time that the
# rule must tell apart.  The optional parameters are left out or given.
@st.composite
def generator_mappings(draw):
    kind = draw(st.sampled_from(sorted(GENERATOR_PARAMS)))
    required, defaults, _ = GENERATOR_PARAMS[kind]
    names = [*required, *(name for name in defaults if draw(st.booleans()))]
    counts = st.sampled_from([*range(-1, 8), 2.0, "3", True])
    dts = st.sampled_from([0.2, 0.5, 1, 0, -0.5, float("nan"), float("inf"), True, "0.2"])
    return {"kind": kind, **{name: draw(dts if name == "dt" else counts) for name in names}}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(generator=generator_mappings())
def test_config_accepts_a_generator_iff_build_model_builds_it(generator):
    try:
        ExperimentConfig(generator=generator, T_list=[3], d_list=[1], seeds=[0])
        rejected = None
    except ValueError as err:
        rejected = str(err)
    try:
        build_model(generator, seed=0)
    except ValueError as err:
        assert str(err) == rejected  # the config fails when it loads, with the generator's message
    else:
        assert rejected is None


@pytest.mark.parametrize(
    "generator",
    [
        {"kind": "synthetic", "n": 4, "w": 1},
        {"kind": "mass_spring", "masses": 2},
        {"kind": "multi_agent", "agents": 2, "degree": 1, "state_size": 1, "input_size": 1},
    ],
)
def test_a_sweep_builds_each_model_by_its_generator_name(monkeypatch, generator):
    # perfbench's tracer times the generators by patching these module names,
    # so a table of function objects would hide them from it
    name = f"gen_{generator['kind']}"
    original, calls = getattr(experiments, name), []

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, name, recording)
    config = ExperimentConfig(generator=generator, T_list=[3], d_list=[4], seeds=[0], estimators=["least_squares"])
    assert len(run_experiment(config)) == 1
    assert len(calls) == 1


def test_generator_params_fill_in_the_table_defaults():
    _, defaults, _ = GENERATOR_PARAMS["multi_agent"]
    params = _generator_params({"kind": "multi_agent", "agents": 4, "degree": 1, "state_size": 2})
    assert params == {**defaults, "agents": 4, "degree": 1, "state_size": 2}
    # an integer sampling time passes as it is, and builds the model of its float
    params = _generator_params({"kind": "mass_spring", "masses": 3, "dt": 1})
    assert params == {"masses": 3, "dt": 1}
    assert np.array_equal(build_model({"kind": "mass_spring", "masses": 3, "dt": 1}, seed=0).A,
                          build_model({"kind": "mass_spring", "masses": 3, "dt": 1.0}, seed=0).A)
    assert _generator_params({"kind": "synthetic", "n": 8, "w": 1}) == {"n": 8, "w": 1}


def test_run_experiment_records():
    config = small_config()
    records = run_experiment(config)
    # 1 horizon x 2 sample counts x 2 seeds x 2 estimators
    assert len(records) == 8
    # config-order: d=10 block comes first
    assert records[0].d == 10 and records[0].estimator == "block_reg"
    ls_small = [r for r in records if r.estimator == "least_squares" and r.d == 10]
    assert all(r.status == "undefined" for r in ls_small)  # d=10 < n+m=16
    assert all(r.mismatch is None for r in ls_small)
    ls_big = [r for r in records if r.estimator == "least_squares" and r.d == 60]
    assert all(r.status == "ok" for r in ls_big)
    # dense LS: mismatch equals the count of zero blocks of the truth
    for r in ls_big:
        assert r.mismatch > 0
    br = [r for r in records if r.estimator == "block_reg"]
    assert all(r.status == "ok" and r.lambda_d > 0 and r.converged for r in br)
    assert all(np.isfinite(r.kappa) and r.gamma <= 1.0 for r in records)


def test_csv_schema_and_determinism(tmp_path):
    config = small_config()
    text1 = records_to_csv(run_experiment(config))
    text2 = records_to_csv(run_experiment(config))
    assert text1 == text2
    rows = list(csv.reader(text1.splitlines()))
    assert tuple(rows[0]) == CSV_COLUMNS
    # the schema is every field of the record
    assert text1.splitlines()[0] == (
        "generator,gen_params,n,m,T,d,seed,estimator,status,lambda_d,mismatch,rme,rst,"
        "linf,op_norm,normalized_2,kappa,gamma,converged"
    )
    assert all(len(row) == len(CSV_COLUMNS) for row in rows[1:])
    out = tmp_path / "records.csv"
    write_records_csv(run_experiment(config), str(out))
    assert out.read_text() == text1


def test_fixed_lambda_mode_used_in_records():
    config = small_config(lambda_mode="fixed:0.4", estimators=["block_reg"], d_list=[30])
    records = run_experiment(config)
    assert all(r.lambda_d == 0.4 for r in records)


def test_config_from_json_file_diagnostics(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n}")
    with pytest.raises(ValueError, match="line 2"):
        ExperimentConfig.from_json_file(str(bad))
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"generator": {"kind": "synthetic", "n": 8, "w": 1}, "T_list": [1],
                                 "d_list": [10], "seeds": [0]}))
    message = "every entry of T_list must be at least 2 (the state part of the design degenerates), got 1"
    with pytest.raises(ValueError, match=f"^{re.escape(str(short))}: {re.escape(message)}$"):
        ExperimentConfig.from_json_file(str(short))
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(ValueError, match=f"^{re.escape(str(array))}: expected a JSON object$"):
        ExperimentConfig.from_json_file(str(array))
    # a size the generator rejects fails when the config loads, with the generator's own message
    small = tmp_path / "small.json"
    small.write_text(json.dumps({"generator": {"kind": "synthetic", "n": 0, "w": 1}, "T_list": [3],
                                 "d_list": [10], "seeds": [0]}))
    message = "generator 'synthetic': n=0 too small for band width w=1: need n >= 4"
    with pytest.raises(ValueError, match=f"^{re.escape(str(small))}: {re.escape(message)}$"):
        ExperimentConfig.from_json_file(str(small))
    # so does every other kind's parameter rule, the sampling time's included
    for generator, message in (
        ({"kind": "mass_spring", "masses": 0}, "generator 'mass_spring': need at least one mass"),
        ({"kind": "multi_agent", "agents": 3, "degree": 3}, "generator 'multi_agent': degree must lie in [0, 2]"),
        ({"kind": "mass_spring", "masses": 2, "dt": -1},
         "generator 'mass_spring': sampling time dt must be a finite, positive number, got -1"),
        # the one upper bound: numpy must index the model's (n+m) x n parameter
        ({"kind": "synthetic", "n": 10**30, "w": 1},
         f"generator 'synthetic': n={10**30} too large: the {2 * 10**30}x{10**30} parameter has more entries"
         " than numpy can index"),
    ):
        path = tmp_path / f"{generator['kind']}-{generator.get('dt')}.json"
        path.write_text(json.dumps({"generator": generator, "T_list": [3], "d_list": [10], "seeds": [0]}))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
            ExperimentConfig.from_json_file(str(path))


def test_horizon_sweep_records_growing_kappa():
    config = small_config(T_list=[3, 4, 5], d_list=[20], seeds=[0], estimators=["block_reg"])
    records = run_experiment(config)
    kappas = [r.kappa for r in records]
    assert kappas == sorted(kappas)
    assert kappas[0] < kappas[-1]


# Sweeps whose smaller d come from a larger d's batch: d out of order and
# repeated, two horizons in descending order, two seeds, both estimators.
# At d = 20, below n + m, the product X @ theta* of 20 rows can have other
# bits than the first 20 rows of the 400-row product (it does with
# OpenBLAS 0.3.31), so a sweep that sliced Y would differ there.
SHARED_BATCH_SWEEPS = {
    kind: dict(
        generator=generator, T_list=[4, 3], d_list=[400, 100, 200, 20, 100], seeds=[2, 0],
        estimators=["block_reg", "least_squares"],
    )
    for kind, generator in (
        ("synthetic", {"kind": "synthetic", "n": 20, "w": 1}),
        ("mass_spring", {"kind": "mass_spring", "masses": 15}),
        ("multi_agent", {"kind": "multi_agent", "agents": 6, "degree": 2, "state_size": 3, "input_size": 3}),
    )
}
# One run per seed through horizons given out of order and repeated.
SHARED_BATCH_SWEEPS["horizons"] = dict(
    generator={"kind": "synthetic", "n": 6, "w": 1}, T_list=[10, 3, 5, 3], d_list=[200, 8, 50], seeds=[1, 0],
    estimators=["block_reg", "least_squares"],
)


@pytest.mark.parametrize("kind", sorted(SHARED_BATCH_SWEEPS))
def test_sweep_equals_per_point_simulation(kind):
    config = ExperimentConfig.from_dict(SHARED_BATCH_SWEEPS[kind])
    assert records_to_csv(run_experiment(config)) == records_to_csv(sweep_per_point_reference(config))


def test_sweep_simulates_each_horizon_and_seed_once_and_frees_the_batch(monkeypatch):
    config = ExperimentConfig.from_dict(SHARED_BATCH_SWEEPS["synthetic"])
    runs, drawn, refs, built, checked = [], [], [], [], []

    def recording(model, horizons, d, seed):
        runs.append((tuple(horizons), d, seed))
        for T, batch in _simulate_horizons(model, horizons, d, seed):
            drawn.append((T, seed))
            refs.append(weakref.ref(batch))
            yield T, batch
            del batch
            # the batch, and every smaller batch that views its X and W, are
            # gone before the next horizon is drawn over them
            assert all(ref() is None for ref in refs)

    def regression_batch(X, W, theta_star):
        batch = lti._regression_batch(X, W, theta_star)
        refs.extend((weakref.ref(batch), weakref.ref(X), weakref.ref(W)))
        return batch

    def building(generator, seed):
        model = build_model(generator, seed)
        built.append((seed, model))
        return model

    def checking(model, T):
        checked.append((T, model))
        return check_assumptions(model, T)

    monkeypatch.setattr(experiments, "_simulate_horizons", recording)
    monkeypatch.setattr(experiments, "_regression_batch", regression_batch)
    monkeypatch.setattr(experiments, "build_model", building)
    monkeypatch.setattr(experiments, "check_assumptions", checking)
    run_experiment(config)
    # one simulation run per seed, at the largest d, through each horizon once
    assert sorted(runs) == [(tuple(config.T_list), 400, seed) for seed in sorted(config.seeds)]
    per_horizon_and_seed = sorted((T, seed) for T in config.T_list for seed in config.seeds)
    assert sorted(drawn) == per_horizon_and_seed
    assert len(refs) > len(drawn) and all(ref() is None for ref in refs)
    # one model per seed, and one check of its recovery conditions per (T, seed)
    assert sorted(seed for seed, _ in built) == sorted(config.seeds)
    seed_of = {id(model): seed for seed, model in built}
    assert sorted((T, seed_of[id(model)]) for T, model in checked) == per_horizon_and_seed


@pytest.mark.parametrize("estimator", ESTIMATOR_NAMES)
def test_sweep_norms_equal_error_norms_of_the_estimate(estimator):
    # the sweep scores against one cached operator norm of theta* per model
    config = ExperimentConfig.from_dict({**SHARED_BATCH_SWEEPS["multi_agent"], "estimators": [estimator]})
    rows = [r for r in run_experiment(config) if r.status == "ok"]
    # least squares is undefined at d = 20 only
    assert {r.d for r in rows} == {20, 100, 200, 400} - ({20} if estimator == "least_squares" else set())
    for row in rows:
        model = build_model(config.generator, row.seed)
        batch = simulate_batch(model, row.T, row.d, row.seed)
        theta = estimate(estimator, batch, model.partition, config.lambda_mode, config.standardize)[0]
        errs = error_norms(theta, model.stacked())
        assert row.linf == errs.linf_elementwise
        assert row.op_norm == errs.op_norm
        assert row.normalized_2 == errs.normalized_2


# Every float a record can hold, NaN aside: infinities, signed zeros and subnormals included.
any_float = st.one_of(
    st.sampled_from([float("inf"), float("-inf"), 0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308]),
    st.floats(allow_nan=False),
)


@st.composite
def records(draw):
    """An ExperimentRecord with every CSV field drawn, None wherever the schema allows it."""
    kind = draw(st.sampled_from(sorted(GENERATOR_PARAMS)))
    required, optional, _ = GENERATOR_PARAMS[kind]
    gen_params = {
        name: draw(st.floats(allow_nan=False, allow_infinity=False) if name == "dt" else st.integers())
        for name in (*required, *optional)
    }
    values = {"generator": kind, "gen_params": gen_params}
    for f in fields(ExperimentRecord):
        if f.name in values:
            continue
        kind_of = f.type.split(" | ")[0]
        value = {
            "int": st.integers(),
            "float": any_float,
            "bool": st.booleans(),
            "str": st.sampled_from(ESTIMATOR_NAMES if f.name == "estimator" else ("ok", "undefined")),
        }[kind_of]
        values[f.name] = draw(st.none() | value if f.type.endswith("| None") else value)
    return ExperimentRecord(**values)


def decode(text, annotation):
    """A CSV field back to the value of a field with the given annotation."""
    if annotation.endswith("| None") and text == "":
        return None
    kind_of = annotation.split(" | ")[0]
    if kind_of == "bool":
        return {"true": True, "false": False}[text]
    return {"int": int, "float": float, "dict": json.loads, "str": str}[kind_of](text)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(recs=st.lists(records(), max_size=4))
def test_sweep_csv_round_trips_every_field(recs):
    rows = list(csv.DictReader(io.StringIO(records_to_csv(recs))))
    assert len(rows) == len(recs)
    annotations = {f.name: f.type for f in fields(ExperimentRecord)}
    for rec, row in zip(recs, rows):
        assert tuple(row) == CSV_COLUMNS
        for name, text in row.items():
            value, back = getattr(rec, name), decode(text, annotations[name])
            assert type(back) is type(value), name
            if isinstance(value, dict):
                assert back == value
                assert text == json.dumps(value, sort_keys=True, separators=(",", ":"))
            else:
                assert repr(back) == repr(value), name  # floats bit for bit, -0.0 included
