import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blocksysid.blocks import BlockPartition
from blocksysid.lti import (
    NORMALS_BUDGET_BYTES,
    _diagonal_column,
    _psd_factor,
    _spawned_states,
    SystemModel,
    TrajectoryBatch,
    design_covariance,
    gen_mass_spring,
    gen_multi_agent,
    gen_synthetic,
    load_batch_csv,
    load_model,
    save_batch_csv,
    save_model,
    simulate_batch,
)

from oracles import simulate_batch_reference


def scalar_model(a, b, su, sw):
    return SystemModel(
        A=np.array([[a]]),
        B=np.array([[b]]),
        sigma_u=np.array([[su]]),
        sigma_w=np.array([[sw]]),
        partition=BlockPartition.scalar(1, 1),
    )


def test_stack_roundtrip():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 2))
    model = SystemModel(A=A, B=B, sigma_u=np.eye(2), sigma_w=np.eye(3), partition=BlockPartition.scalar(3, 2))
    theta = model.stacked()
    assert theta.shape == (5, 3)
    assert np.array_equal(theta, np.hstack([A, B]).T)


def test_model_validation():
    part = BlockPartition.scalar(2, 1)
    eye2, eye1 = np.eye(2), np.eye(1)
    with pytest.raises(ValueError):
        SystemModel(A=np.eye(3), B=np.ones((2, 1)), sigma_u=eye1, sigma_w=eye2, partition=part)
    with pytest.raises(ValueError):
        SystemModel(
            A=np.eye(2),
            B=np.ones((2, 1)),
            sigma_u=np.array([[1.0]]),
            sigma_w=np.array([[1.0, 0.5], [0.4, 1.0]]),  # asymmetric
            partition=part,
        )
    with pytest.raises(ValueError):
        SystemModel(
            A=np.eye(2),
            B=np.ones((2, 1)),
            sigma_u=np.array([[-1.0]]),  # negative eigenvalue
            sigma_w=eye2,
            partition=part,
        )


def test_simulate_noiseless_identity_chain():
    model = scalar_model(1.0, 1.0, su=1.0, sw=0.0)
    batch = simulate_batch(model, T=2, d=17, seed=5)
    assert np.array_equal(batch.Y, batch.X @ np.array([[1.0], [1.0]]))
    assert np.array_equal(batch.W, np.zeros((17, 1)))


def test_simulate_zero_covariances_give_zero_data():
    model = scalar_model(0.7, 1.0, su=0.0, sw=0.0)
    batch = simulate_batch(model, T=4, d=9, seed=1)
    assert not batch.X.any()
    assert not batch.Y.any()


def test_simulate_identity_holds_exactly():
    rng = np.random.default_rng(2)
    part = BlockPartition.scalar(3, 2)
    model = SystemModel(
        A=0.3 * rng.standard_normal((3, 3)),
        B=rng.standard_normal((3, 2)),
        sigma_u=np.eye(2),
        sigma_w=0.5 * np.eye(3),
        partition=part,
    )
    batch = simulate_batch(model, T=5, d=64, seed=11)
    assert np.array_equal(batch.Y, batch.X @ model.stacked() + batch.W)


def test_simulate_determinism_and_substreams():
    model = scalar_model(0.5, 1.0, su=1.0, sw=0.5)
    b1 = simulate_batch(model, T=3, d=20, seed=42)
    b2 = simulate_batch(model, T=3, d=20, seed=42)
    assert np.array_equal(b1.X, b2.X) and np.array_equal(b1.Y, b2.Y)
    # trajectory streams are independent of the batch size
    b3 = simulate_batch(model, T=3, d=35, seed=42)
    assert np.array_equal(b3.X[:20], b1.X)
    assert np.array_equal(b3.W[:20], b1.W)
    b4 = simulate_batch(model, T=3, d=20, seed=43)
    assert not np.array_equal(b4.X, b1.X)


@pytest.mark.parametrize(
    "model",
    [gen_synthetic(30, 1, seed=0), gen_mass_spring(7, dt=0.2), gen_multi_agent(4, 1, 2, 3, dt=0.2, seed=1)],
    ids=["synthetic", "mass_spring", "multi_agent"],
)
def test_simulate_smaller_batch_is_a_prefix_of_x_and_w(model):
    # X and W at d are the first d rows at a larger d, also across a chunk
    # boundary; Y is recomputed from them, not sliced, since the bits of the
    # final product depend on the row count
    T = 10
    chunk = max(1, NORMALS_BUDGET_BYTES // (8 * T * (model.n + model.m)))
    large = simulate_batch(model, T, 2 * chunk + 5, seed=4)
    for d in (1, 2, 3, 5, chunk + 1):
        small = simulate_batch(model, T, d, seed=4)
        assert np.array_equal(small.X, large.X[:d])
        assert np.array_equal(small.W, large.W[:d])
        assert np.array_equal(small.Y, large.X[:d] @ model.stacked() + large.W[:d])


def test_simulate_rejects_bad_arguments():
    model = scalar_model(0.5, 1.0, su=1.0, sw=0.5)
    with pytest.raises(ValueError):
        simulate_batch(model, T=1, d=10, seed=0)
    with pytest.raises(ValueError):
        simulate_batch(model, T=3, d=0, seed=0)
    # a float or bool count is rejected, not truncated or read as 1
    for T, d, name in ((3.0, 5, "T"), (3, 5.0, "d"), (True, 5, "T"), (3, True, "d"), (3, "5", "d")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            simulate_batch(model, T=T, d=d, seed=0)
    assert simulate_batch(model, T=np.int64(3), d=np.int64(2), seed=np.uint64(2**64 - 1)).d == 2
    # a bool, float, string or negative seed names the field, not numpy's message
    for seed in (True, 1.5, 2.0, "3", None):
        with pytest.raises(ValueError, match="seed must be an integer"):
            simulate_batch(model, T=3, d=5, seed=seed)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        simulate_batch(model, T=3, d=5, seed=-1)
    # the spawn key of trajectory i is one 32-bit word; rejected before allocating
    with pytest.raises(ValueError, match="d must lie in"):
        simulate_batch(model, T=3, d=2**32, seed=0)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.one_of(
        st.integers(0, 2**32 - 1),
        st.integers(2**32 - 2, 2**32 + 1),
        st.integers(2**32, 2**128 - 1),
        st.integers(2**128, 2**300),
    ),
    d=st.integers(1, 40),
)
@example(seed=0, d=1)
@example(seed=2**32 - 1, d=3)
@example(seed=2**32, d=3)
@example(seed=2**128 - 1, d=5)
@example(seed=2**128, d=5)
def test_spawned_states_equal_seed_sequence_spawn(seed, d):
    words = _spawned_states(seed, d)
    assert words.dtype == np.uint64 and words.shape == (d, 4)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(d)):
        assert np.array_equal(words[i], child.generate_state(4, np.uint64))


def test_import_leaves_numpy_random_unloaded():
    # numpy.random adds about 6 MB to a fresh process; simulate_batch loads it
    # when it first draws, so commands that never simulate do not pay for it
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, blocksysid; sys.exit('numpy.random' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def _without_disturbance(model):
    return SystemModel(
        A=model.A, B=model.B, sigma_u=model.sigma_u, sigma_w=np.zeros_like(model.sigma_w),
        partition=model.partition,
    )


def _dense_noise_model():
    # full covariances, as a loaded model file can hold: factors that need the gemv
    rng = np.random.default_rng(12)
    Lu, Lw = rng.standard_normal((2, 2)), rng.standard_normal((3, 3))
    return SystemModel(
        A=0.4 * rng.standard_normal((3, 3)), B=rng.standard_normal((3, 2)),
        sigma_u=Lu @ Lu.T + 0.1 * np.eye(2), sigma_w=Lw @ Lw.T,
        partition=BlockPartition.from_block_sizes((1, 2), (2,)),
    )


def _zero_variance_model():
    # a diagonal sigma_w with one zero variance: that disturbance is -0 or +0 elementwise
    rng = np.random.default_rng(13)
    return SystemModel(
        A=0.4 * rng.standard_normal((3, 3)), B=rng.standard_normal((3, 2)),
        sigma_u=np.diag([1.0, 2.0]), sigma_w=np.diag([0.0, 0.5, 1.0]),
        partition=BlockPartition.scalar(3, 2),
    )


def test_generator_noise_factors_are_diagonal():
    # every generator's factors take the elementwise path, with the exact
    # square roots of the variances on the diagonal
    for model in (
        gen_synthetic(30, 1, seed=0),
        gen_mass_spring(7, dt=0.2),
        gen_multi_agent(4, 1, 2, 3, dt=0.2, seed=1),
    ):
        for sigma in (model.sigma_u, model.sigma_w):
            diag = _diagonal_column(_psd_factor(sigma))
            assert diag is not None
            assert np.array_equal(diag[:, 0], np.sqrt(np.diagonal(sigma)))
    assert _diagonal_column(_psd_factor(_zero_variance_model().sigma_w)) is not None
    dense = _dense_noise_model()
    assert _diagonal_column(_psd_factor(dense.sigma_u)) is None
    assert _diagonal_column(_psd_factor(dense.sigma_w)) is None


@pytest.mark.parametrize("T", [2, 6])
@pytest.mark.parametrize(
    "model",
    [
        gen_synthetic(30, 1, seed=0),
        gen_mass_spring(7, dt=0.2),
        gen_multi_agent(4, 1, 2, 3, dt=0.2, seed=1),
        _without_disturbance(gen_mass_spring(3, dt=0.2)),
        SystemModel(
            A=0.5 * np.eye(3), B=np.zeros((3, 0)), sigma_u=np.zeros((0, 0)), sigma_w=np.eye(3),
            partition=BlockPartition.from_block_sizes((1, 2), ()),
        ),
        _dense_noise_model(),
        _zero_variance_model(),
    ],
    ids=["synthetic", "mass_spring", "multi_agent", "sigma_w_zero", "no_inputs", "dense_noise",
         "zero_variance"],
)
def test_simulate_matches_per_trajectory_reference(model, T):
    # the chunked, batched simulator must give the per-trajectory recurrence's
    # bits, across chunk boundaries and for a partial last chunk; array_equal
    # takes -0 for +0, so the signs of zeros are compared too
    chunk = max(1, NORMALS_BUDGET_BYTES // (8 * T * (model.n + model.m)))
    assert chunk > 2
    cases = [(d, d) for d in (1, chunk - 1, chunk + 1, 2 * chunk + chunk // 2)]
    cases.append((chunk + 3, 2**150 + 2**64 + 7))  # a seed of five 32-bit words
    for d, seed in cases:
        batch = simulate_batch(model, T, d, seed=seed)
        for got, want in zip((batch.X, batch.Y, batch.W), simulate_batch_reference(model, T, d, seed=seed)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_simulate_covariance_matches_analytic():
    # scalar system, moderate horizon: empirical row covariance ~ analytic
    model = scalar_model(0.5, 1.0, su=1.0, sw=0.5)
    batch = simulate_batch(model, T=3, d=50_000, seed=7)
    emp = batch.X.T @ batch.X / batch.d
    ana = design_covariance(model, 3).row_cov
    assert np.linalg.norm(emp - ana) < 0.05


def test_simulate_covariance_converges_with_d():
    rng = np.random.default_rng(9)
    part = BlockPartition.scalar(4, 3)
    model = SystemModel(
        A=0.4 * rng.standard_normal((4, 4)),
        B=rng.standard_normal((4, 3)),
        sigma_u=np.eye(3),
        sigma_w=0.5 * np.eye(4),
        partition=part,
    )
    ana = design_covariance(model, 3).row_cov
    dists = []
    for d in (1_000, 10_000, 100_000):
        batch = simulate_batch(model, 3, d, seed=13)
        emp = batch.X.T @ batch.X / d
        dists.append(np.linalg.norm(emp - ana))
    assert dists[0] > dists[1] > dists[2]


def test_design_covariance_t2_collapses_powers():
    rng = np.random.default_rng(4)
    part = BlockPartition.scalar(2, 2)
    A = rng.standard_normal((2, 2))
    B = rng.standard_normal((2, 2))
    su = np.diag([1.0, 2.0])
    sw = 0.5 * np.eye(2)
    model = SystemModel(A=A, B=B, sigma_u=su, sigma_w=sw, partition=part)
    rep = design_covariance(model, 2)
    assert np.array_equal(rep.input_stack, B)
    assert np.array_equal(rep.noise_stack, np.eye(2))
    np.testing.assert_allclose(rep.row_cov[:2, :2], B @ su @ B.T + sw, atol=1e-12)
    np.testing.assert_allclose(rep.row_cov[2:, 2:], su, atol=0)
    assert not rep.row_cov[:2, 2:].any()


def test_design_covariance_nilpotent_state():
    part = BlockPartition.scalar(2, 2)
    B = np.array([[1.0, 0.0], [1.0, 1.0]])
    model = SystemModel(A=np.zeros((2, 2)), B=B, sigma_u=np.eye(2), sigma_w=np.eye(2), partition=part)
    rep = design_covariance(model, 3)
    # stacks are [A B  B] and [A  I] with A = 0
    np.testing.assert_allclose(rep.input_stack, np.hstack([np.zeros((2, 2)), B]))
    np.testing.assert_allclose(rep.noise_stack, np.hstack([np.zeros((2, 2)), np.eye(2)]))
    np.testing.assert_allclose(rep.row_cov[:2, :2], B @ B.T + np.eye(2), atol=1e-12)


def test_design_covariance_identity_kappa():
    model = scalar_model(0.0, 1.0, su=1.0, sw=0.0)
    rep = design_covariance(model, 2)
    # row covariance is the 2x2 identity
    np.testing.assert_allclose(rep.row_cov, np.eye(2))
    assert rep.kappa == pytest.approx(1.0)
    assert rep.lambda_min == pytest.approx(1.0)
    assert rep.lambda_max == pytest.approx(1.0)


def test_design_covariance_singular_gives_inf_kappa():
    model = scalar_model(0.5, 1.0, su=0.0, sw=1.0)  # input part has zero variance
    rep = design_covariance(model, 2)
    assert rep.kappa == float("inf")


def test_design_covariance_stacked_form():
    # row_cov state part equals the stacked quadratic form with repeated
    # per-step covariances
    rng = np.random.default_rng(6)
    part = BlockPartition.scalar(3, 2)
    model = SystemModel(
        A=0.5 * rng.standard_normal((3, 3)),
        B=rng.standard_normal((3, 2)),
        sigma_u=np.diag([1.0, 3.0]),
        sigma_w=0.25 * np.eye(3),
        partition=part,
    )
    T = 4
    rep = design_covariance(model, T)
    su_stacked = np.kron(np.eye(T - 1), model.sigma_u)
    sw_stacked = np.kron(np.eye(T - 1), model.sigma_w)
    expected = (
        rep.input_stack @ su_stacked @ rep.input_stack.T
        + rep.noise_stack @ sw_stacked @ rep.noise_stack.T
    )
    np.testing.assert_allclose(rep.row_cov[:3, :3], expected, atol=1e-12)


def test_design_covariance_rejects_short_horizon():
    model = scalar_model(0.5, 1.0, su=1.0, sw=0.5)
    with pytest.raises(ValueError):
        design_covariance(model, 1)


def test_model_json_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    part = BlockPartition.from_block_sizes((2, 1), (1, 1))
    model = SystemModel(
        A=rng.standard_normal((3, 3)),
        B=rng.standard_normal((3, 2)),
        sigma_u=np.eye(2),
        sigma_w=0.5 * np.eye(3),
        partition=part,
    )
    path = tmp_path / "model.json"
    save_model(model, str(path))
    doc = json.loads(path.read_text())
    assert sorted(doc) == ["A", "B", "col_sizes", "m", "n", "row_sizes", "sigma_u", "sigma_w"]
    loaded = load_model(str(path))
    assert np.array_equal(loaded.A, model.A)
    assert np.array_equal(loaded.B, model.B)
    assert loaded.partition == model.partition


# every finite double, with -0.0 and subnormals of both signs drawn often
doubles = st.one_of(
    st.sampled_from([-0.0, 5e-324, -5e-324, -2.225073858507201e-308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def block_models(draw):
    """A model on a random mixed-width partition with dense A, B and covariances."""
    state = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    inputs = draw(st.lists(st.integers(1, 3), max_size=3))
    n, m = sum(state), sum(inputs)
    covs = []
    for dim in (m, n):
        factor = draw(arrays(np.float64, (dim, dim), elements=st.floats(-2.0, 2.0)))
        cov = factor @ factor.T
        covs.append(0.5 * (cov + cov.T))  # symmetric bit for bit
    return SystemModel(
        A=draw(arrays(np.float64, (n, n), elements=doubles)),
        B=draw(arrays(np.float64, (n, m), elements=doubles)),
        sigma_u=covs[0],
        sigma_w=covs[1],
        partition=BlockPartition.from_block_sizes(state, inputs),
    )


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(model=block_models())
@example(  # no inputs: the 0 x 0 sigma_u is written as []
    model=SystemModel(
        A=np.array([[-0.0]]),
        B=np.zeros((1, 0)),
        sigma_u=np.zeros((0, 0)),
        sigma_w=np.array([[5e-324]]),
        partition=BlockPartition.from_block_sizes((1,), ()),
    )
)
def test_model_file_roundtrip_property(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_model(model, path)
        loaded = load_model(path)
    for name in ("A", "B", "sigma_u", "sigma_w"):
        assert _same_bits(getattr(loaded, name), getattr(model, name)), name
    assert loaded.partition == model.partition


@st.composite
def batch_arrays(draw):
    d, n, m = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(0, 3))
    return (
        draw(arrays(np.float64, (d, n + m), elements=doubles)),
        draw(arrays(np.float64, (d, n), elements=doubles)),
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(XY=batch_arrays())
@example(XY=(np.array([[-0.0, 5e-324, -2.225073858507201e-308]]), np.array([[-5e-324, 0.0]])))
def test_batch_csv_roundtrip_is_bit_exact(XY):
    X, Y = XY
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "batch.csv")
        save_batch_csv(TrajectoryBatch(X=X, Y=Y), path)
        loaded = load_batch_csv(path)
    assert _same_bits(loaded.X, X)
    assert _same_bits(loaded.Y, Y)


def test_load_model_diagnostics(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1,\n  "m": }')
    with pytest.raises(ValueError, match="line 2"):
        load_model(str(path))
    path2 = tmp_path / "missing.json"
    path2.write_text('{"n": 1}')
    with pytest.raises(ValueError, match="missing field 'm'"):
        load_model(str(path2))


def test_batch_csv_roundtrip(tmp_path):
    model = scalar_model(0.5, 1.0, su=1.0, sw=0.5)
    batch = simulate_batch(model, T=3, d=8, seed=3)
    path = tmp_path / "batch.csv"
    save_batch_csv(batch, str(path))
    header = path.read_text().splitlines()[0]
    assert header == "x_0,u_0,y_0"
    loaded = load_batch_csv(str(path))
    assert np.array_equal(loaded.X, batch.X)
    assert np.array_equal(loaded.Y, batch.Y)
    assert loaded.W is None


def test_batch_validation():
    with pytest.raises(ValueError):
        TrajectoryBatch(X=np.zeros((3, 2)), Y=np.zeros((4, 1)))
    with pytest.raises(ValueError):
        TrajectoryBatch(X=np.zeros((3, 2)), Y=np.zeros((3, 1)), W=np.zeros((3, 2)))


@pytest.mark.parametrize("name", ["X", "Y", "W"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_batch_rejects_non_finite_entries(name, bad):
    arrays = {"X": np.zeros((4, 2)), "Y": np.zeros((4, 1)), "W": np.zeros((4, 1))}
    arrays[name][2, 0] = bad
    arrays[name][3, 0] = bad
    with pytest.raises(ValueError, match=f"non-finite value in {name} row 2"):
        TrajectoryBatch(**arrays)


def test_load_batch_csv_names_the_file_and_the_non_finite_row(tmp_path):
    path = tmp_path / "batch.csv"
    path.write_text("x_0,u_0,y_0\n1.0,2.0,3.0\n1.0,nan,3.0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: non-finite value in X row 1$"):
        load_batch_csv(str(path))


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty batch file"),
        ("x_0,v_0,y_0\n1.0,2.0,3.0\n", "header does not match the x/u/y batch layout"),
        ("x_0,u_0,y_0\n1.0,2.0,3.0\n1.0,2.0\n", "line 3: expected 3 fields, got 2"),
        ("x_0,u_0,y_0\n", "batch file has no data rows"),
    ],
)
def test_load_batch_csv_names_the_file_and_the_layout_fault(tmp_path, text, message):
    path = tmp_path / "batch.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_batch_csv(str(path))
