import csv
import io
import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksysid.experiments import (
    CSV_COLUMNS,
    ESTIMATOR_NAMES,
    GENERATOR_PARAMS,
    ExperimentConfig,
    ExperimentRecord,
    _generator_params,
    build_model,
    records_to_csv,
    resolve_lambda,
    run_experiment,
    write_records_csv,
)
from blocksysid.theory import lambda_schedule


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
    with pytest.raises(ValueError, match="horizon"):
        small_config(T_list=[1])
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
    with pytest.raises(ValueError, match="seeds"):
        small_config(seeds=[0.0])
    # a negative seed names the field here, not numpy's message at the first point
    with pytest.raises(ValueError, match="every entry of seeds must be nonnegative"):
        small_config(seeds=[0, -1])
    # a bare string must not be split into one-letter estimator names
    with pytest.raises(ValueError, match="estimators must be a list"):
        small_config(estimators="block_reg")


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
    # a bool, string or non-finite sampling time must not be read as a number
    for dt in (True, "0.5", float("nan"), float("inf")):
        with pytest.raises(ValueError, match="parameter 'dt' must be a finite number"):
            build_model({"kind": "mass_spring", "masses": 3, "dt": dt}, seed=0)


def test_generator_params_fill_in_the_table_defaults():
    _, defaults = GENERATOR_PARAMS["multi_agent"]
    params = _generator_params({"kind": "multi_agent", "agents": 4, "degree": 1, "state_size": 2})
    assert params == {**defaults, "agents": 4, "degree": 1, "state_size": 2}
    # an integer sampling time comes back as a float, as the generators take it
    params = _generator_params({"kind": "mass_spring", "masses": 3, "dt": 1})
    assert params == {"masses": 3, "dt": 1.0} and type(params["dt"]) is float
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
    assert all(r.wall_time_seconds >= 0 for r in records)
    assert all(np.isfinite(r.kappa) and r.gamma <= 1.0 for r in records)


def test_csv_schema_and_determinism(tmp_path):
    config = small_config()
    text1 = records_to_csv(run_experiment(config))
    text2 = records_to_csv(run_experiment(config))
    assert text1 == text2
    rows = list(csv.reader(text1.splitlines()))
    assert tuple(rows[0]) == CSV_COLUMNS
    # the schema is the record's compared fields; wall time stays out
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


def test_horizon_sweep_records_growing_kappa():
    config = small_config(T_list=[3, 4, 5], d_list=[20], seeds=[0], estimators=["block_reg"])
    records = run_experiment(config)
    kappas = [r.kappa for r in records]
    assert kappas == sorted(kappas)
    assert kappas[0] < kappas[-1]


# Every float a record can hold, NaN aside: infinities, signed zeros and subnormals included.
any_float = st.one_of(
    st.sampled_from([float("inf"), float("-inf"), 0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308]),
    st.floats(allow_nan=False),
)


@st.composite
def records(draw):
    """An ExperimentRecord with every CSV field drawn, None wherever the schema allows it."""
    kind = draw(st.sampled_from(sorted(GENERATOR_PARAMS)))
    required, optional = GENERATOR_PARAMS[kind]
    gen_params = {
        name: draw(st.floats(allow_nan=False, allow_infinity=False) if name == "dt" else st.integers())
        for name in (*required, *optional)
    }
    values = {"generator": kind, "gen_params": gen_params, "wall_time_seconds": 0.0}
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
