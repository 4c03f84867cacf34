import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksysid import solver
from blocksysid.blocks import BlockPartition, support_pattern
from blocksysid.experiments import build_model, resolve_lambda
from blocksysid.lti import SystemModel, TrajectoryBatch, gen_synthetic, simulate_batch
from blocksysid.solver import (
    EstimatorConfig,
    LeastSquaresUndefined,
    kkt_residual,
    solve_block_regularized,
    solve_least_squares,
)
from blocksysid.theory import lambda_schedule

from oracles import least_squares_normal_equations, subgradient_minimize


def tiny_model(seed, n=3, density=0.6):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) * 0.4 * (rng.random((n, n)) < density)
    B = rng.standard_normal((n, n)) * 0.4 * (rng.random((n, n)) < density)
    return SystemModel(
        A=A,
        B=B,
        sigma_u=np.eye(n),
        sigma_w=0.5 * np.eye(n),
        partition=BlockPartition.scalar(n, n),
    )


def blockwise_l1_max(mat, partition):
    ro, co = partition.row_offsets, partition.col_offsets
    worst = 0.0
    for i in range(partition.n_row_blocks):
        for j in range(partition.n_col_blocks):
            worst = max(worst, np.abs(mat[ro[i] : ro[i + 1], co[j] : co[j + 1]]).sum())
    return worst


def test_large_lambda_gives_exact_zero():
    model = tiny_model(0)
    batch = simulate_batch(model, 3, 30, seed=0)
    threshold = blockwise_l1_max(batch.X.T @ batch.Y / batch.d, model.partition)
    res = solve_block_regularized(
        batch, model.partition, EstimatorConfig(lambda_d=threshold * 1.0)
    )
    assert not res.theta_hat.any()
    assert not res.support.mask.any()
    assert res.converged


def test_lambda_zero_reduces_to_least_squares():
    model = tiny_model(1)
    batch = simulate_batch(model, 3, 40, seed=1)
    res = solve_block_regularized(batch, model.partition, EstimatorConfig(lambda_d=0.0))
    ls = solve_least_squares(batch)
    assert np.abs(res.theta_hat - ls).max() / max(1.0, np.abs(ls).max()) < 1e-6


def test_solver_matches_subgradient_oracle():
    model = tiny_model(2)
    batch = simulate_batch(model, 3, 40, seed=2)
    lam = lambda_schedule(1, 3, 3, 40)
    res = solve_block_regularized(batch, model.partition, EstimatorConfig(lambda_d=lam))
    ref = subgradient_minimize(
        batch.X, batch.Y, lam, model.partition.row_sizes, model.partition.col_sizes,
        iters=300_000,
    )
    assert np.abs(res.theta_hat - ref).max() < 1e-4
    assert res.kkt_residual <= 1e-7


def test_column_block_separability_bitwise():
    model = tiny_model(3, n=4)
    batch = simulate_batch(model, 3, 50, seed=3)
    part = model.partition
    lam = 0.1
    joint = solve_block_regularized(batch, part, EstimatorConfig(lambda_d=lam))
    for j in range(part.n_col_blocks):
        # same row blocks, a single column block: the j-th subproblem on its own
        sub_part = BlockPartition(part.row_sizes, (part.col_sizes[j],))
        sub_batch = TrajectoryBatch(
            X=batch.X, Y=batch.Y[:, j : j + 1], W=None, T=batch.T, seed=batch.seed
        )
        sub = solve_block_regularized(sub_batch, sub_part, EstimatorConfig(lambda_d=lam))
        assert np.array_equal(sub.theta_hat[:, 0], joint.theta_hat[:, j])


def test_objective_dominates_baselines():
    model = tiny_model(4)
    batch = simulate_batch(model, 3, 40, seed=4)
    part = model.partition
    lam = 0.15
    res = solve_block_regularized(batch, part, EstimatorConfig(lambda_d=lam))

    def objective(th):
        r = batch.Y - batch.X @ th
        from blocksysid.blocks import block_norm_sum

        return 0.5 / batch.d * float(np.vdot(r, r)) + lam * block_norm_sum(th, part)

    assert res.objective <= objective(np.zeros(part.shape)) + 1e-10
    assert res.objective <= objective(solve_least_squares(batch)) + 1e-10
    assert res.objective == pytest.approx(objective(res.theta_hat))


def test_zero_support_blocks_are_exact_zeros():
    model = gen_synthetic(12, 1, seed=5)
    batch = simulate_batch(model, 3, 60, seed=5)
    lam = lambda_schedule(1, 12, 12, 60)
    res = solve_block_regularized(batch, model.partition, EstimatorConfig(lambda_d=lam))
    dead = ~np.repeat(
        np.repeat(res.support.mask, 1, axis=0), 1, axis=1
    )  # unit blocks: mask aligns with entries
    assert not res.theta_hat[dead].any()


def test_iteration_cap_reports_unconverged():
    model = tiny_model(6)
    batch = simulate_batch(model, 3, 40, seed=6)
    res = solve_block_regularized(
        batch, model.partition, EstimatorConfig(lambda_d=0.05, max_iter=2)
    )
    assert not res.converged
    assert res.kkt_residual > 1e-7


def mixed_problem(seed, state_sizes, input_sizes, d, density=0.3):
    """A random regression on a mixed-width partition, as a bare batch."""
    part = BlockPartition.from_block_sizes(state_sizes, input_sizes)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((d, part.shape[0]))
    theta = rng.standard_normal(part.shape) * (rng.random(part.shape) < density)
    Y = X @ theta + 0.5 * rng.standard_normal((d, part.n))
    return TrajectoryBatch(X=X, Y=Y), part


def test_lockstep_columns_match_one_column_solves_on_mixed_widths(monkeypatch):
    # Widths (2, 1, 3, 1, 2, 1) give stacks of three, two and one columns,
    # and max_iter=24 stops some columns of each shared stack before they
    # converge.  A one-column partition needs its first row block as wide as
    # the column, so the one-column solves run the same kernel on one-column
    # stacks of the inputs the joint solve recorded.
    batch, part = mixed_problem(0, (2, 1, 3, 1, 2, 1), (2, 1), d=100)
    config = EstimatorConfig(lambda_d=0.1, max_iter=24)
    kernel = solver._lockstep_apg
    calls = []

    def recording(Gmat, c, L, cfg, groups):
        out = kernel(Gmat, c, L, cfg, groups)
        calls.append((Gmat, c.copy(), L, cfg, groups, out))
        return out

    monkeypatch.setattr(solver, "_lockstep_apg", recording)
    joint = solve_block_regularized(batch, part, config)
    monkeypatch.undo()

    its = joint.iterations
    assert (its == config.max_iter).any() and (its < config.max_iter).any()
    assert max(c.shape[0] for _, c, *_ in calls) == 3
    # stacks run by width, then by block column
    order = sorted(range(part.n_col_blocks), key=lambda j: (part.col_sizes[j], j))
    stacked = [(call, i) for call in calls for i in range(call[1].shape[0])]
    assert len(stacked) == part.n_col_blocks
    co = part.col_offsets
    for j, ((Gmat, c, L, cfg, groups, (x, _, _)), i) in zip(order, stacked):
        x1, its1, resid1 = kernel(Gmat, c[i : i + 1], L, cfg, groups)
        assert np.array_equal(x1[0], joint.theta_hat[:, co[j] : co[j + 1]])
        assert np.array_equal(x1[0], x[i])
        assert its1[0] == its[j]
        assert resid1[0] <= config.kkt_tol or its1[0] == config.max_iter


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    state_sizes=st.lists(st.integers(1, 3), min_size=1, max_size=6),
    input_sizes=st.lists(st.integers(1, 3), max_size=2),
    d=st.integers(30, 200),
    lam=st.floats(0.02, 0.3),
    seed=st.integers(0, 2**16),
)
def test_kkt_residual_certifies_mixed_partitions(state_sizes, input_sizes, d, lam, seed):
    batch, part = mixed_problem(seed, state_sizes, input_sizes, d)
    res = solve_block_regularized(batch, part, EstimatorConfig(lambda_d=lam))
    assert res.converged
    assert res.kkt_residual <= 1e-7
    # The solver takes the gradient as G x - X^T Y / d, the public residual
    # as X^T (X theta - Y) / d; the two agree to rounding.
    assert res.kkt_residual == pytest.approx(kkt_residual(res.theta_hat, batch, part, lam), abs=1e-12)


@pytest.mark.parametrize(
    "generator, d",
    [
        ({"kind": "synthetic", "n": 100, "w": 2}, 400),
        ({"kind": "multi_agent", "agents": 40, "degree": 3, "state_size": 5, "input_size": 5}, 800),
    ],
)
def test_solve_peak_memory_within_column_by_column_budget(generator, d):
    # The largest points of the benchmark sweeps.  Solving one column at a
    # time held the standardized design (d x p), the Gram matrix (p x p),
    # theta (p x n) and two d x n residual arrays at once; the stacks must
    # fit in that.
    model = build_model(generator, seed=0)
    batch = simulate_batch(model, 3, d, seed=0)
    part = model.partition
    lam = resolve_lambda("schedule", part, d)
    p, n = part.shape
    budget = 8 * (d * p + p * p + p * n + 2 * d * n)
    tracemalloc.start()
    try:
        solve_block_regularized(batch, part, EstimatorConfig(lambda_d=lam, standardize=True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget


def test_step_respects_the_largest_gram_eigenvalue(monkeypatch):
    # On this standardized design, power iteration stopped 2.3% below
    # lambda_max(G), so the step 1/L overshot the proximal-gradient bound.
    model = build_model({"kind": "multi_agent", "agents": 40, "degree": 3, "state_size": 5, "input_size": 5}, 3)
    batch = simulate_batch(model, 3, 200, seed=3)
    X = batch.X / batch.X.std(axis=0)
    lam_max = np.linalg.norm(X, 2) ** 2 / batch.d
    steps = []

    def record_step(Gmat, c, L, cfg, groups):
        steps.append(L)
        k = c.shape[0]
        return np.zeros_like(c), np.zeros(k, dtype=int), np.zeros(k)

    monkeypatch.setattr(solver, "_lockstep_apg", record_step)
    solve_block_regularized(batch, model.partition, EstimatorConfig(lambda_d=0.1, standardize=True))
    assert steps and all(L >= lam_max * (1 - 1e-12) for L in steps)


def test_standardized_solve_scale_equivariance():
    # scaling a design column must not change the standardized support decision
    model = tiny_model(8)
    batch = simulate_batch(model, 3, 60, seed=8)
    lam = 0.2
    res = solve_block_regularized(
        batch, model.partition, EstimatorConfig(lambda_d=lam, standardize=True)
    )
    X2 = batch.X.copy()
    X2[:, 2] *= 40.0
    batch2 = TrajectoryBatch(X=X2, Y=batch.Y, W=batch.W, T=batch.T, seed=batch.seed)
    res2 = solve_block_regularized(
        batch2, model.partition, EstimatorConfig(lambda_d=lam, standardize=True)
    )
    assert res.support.equal(res2.support)
    np.testing.assert_allclose(res2.theta_hat[2] * 40.0, res.theta_hat[2], rtol=1e-6, atol=1e-10)


def test_non_finite_data_rejected():
    model = tiny_model(9)
    batch = simulate_batch(model, 3, 20, seed=9)
    X = batch.X.copy()
    X[0, 0] = np.nan
    bad = TrajectoryBatch(X=X, Y=batch.Y, W=batch.W, T=batch.T, seed=batch.seed)
    with pytest.raises(ValueError, match="non-finite"):
        solve_block_regularized(bad, model.partition, EstimatorConfig(lambda_d=0.1))


# ---------------------------------------------------------------------------
# least squares


def test_least_squares_noiseless_recovery():
    model = SystemModel(
        A=np.array([[0.5, 0.1], [0.0, 0.3]]),
        B=np.array([[1.0], [0.5]]),
        sigma_u=np.eye(1),
        sigma_w=np.zeros((2, 2)),
        partition=BlockPartition.scalar(2, 1),
    )
    batch = simulate_batch(model, 3, 20, seed=0)
    theta = solve_least_squares(batch)
    np.testing.assert_allclose(theta, model.stacked(), atol=1e-12)


def test_least_squares_undefined_when_underdetermined():
    model = tiny_model(10)
    batch = simulate_batch(model, 3, 5, seed=0)  # d = n+m-1 = 5
    with pytest.raises(LeastSquaresUndefined):
        solve_least_squares(batch)


def test_least_squares_rank_deficient():
    X = np.zeros((8, 3))
    X[:, 0] = np.arange(8.0) + 1
    X[:, 1] = 2 * X[:, 0]  # collinear
    X[:, 2] = np.arange(8.0) ** 2
    batch = TrajectoryBatch(X=X, Y=np.ones((8, 1)))
    with pytest.raises(LeastSquaresUndefined):
        solve_least_squares(batch)


def test_least_squares_matches_normal_equations():
    model = tiny_model(11)
    batch = simulate_batch(model, 3, 80, seed=11)
    ours = solve_least_squares(batch)
    ref = least_squares_normal_equations(batch.X, batch.Y)
    assert np.abs(ours - ref).max() < 1e-8


def test_least_squares_is_dense_on_sparse_truth():
    # noisy LS estimates are nonzero everywhere, so the LS mismatch equals
    # the count of zero blocks of the truth
    model = gen_synthetic(10, 1, seed=12)
    batch = simulate_batch(model, 3, 40, seed=12)
    theta = solve_least_squares(batch)
    truth = support_pattern(model.stacked(), model.partition, 0.0)
    off = ~truth.mask
    ls_support = support_pattern(theta, model.partition, 0.0)
    assert ls_support.mask.all()
    assert (theta[np.repeat(off, 1, axis=0)] != 0.0).all()


# ---------------------------------------------------------------------------
# KKT residual


def test_kkt_zero_at_dominated_zero():
    model = tiny_model(13)
    batch = simulate_batch(model, 3, 30, seed=13)
    part = model.partition
    threshold = blockwise_l1_max(batch.X.T @ batch.Y / batch.d, part)
    assert kkt_residual(np.zeros(part.shape), batch, part, threshold * 1.01) == 0.0
    assert kkt_residual(np.zeros(part.shape), batch, part, threshold) == 0.0


def test_kkt_positive_below_threshold():
    model = tiny_model(14)
    batch = simulate_batch(model, 3, 30, seed=14)
    part = model.partition
    threshold = blockwise_l1_max(batch.X.T @ batch.Y / batch.d, part)
    assert kkt_residual(np.zeros(part.shape), batch, part, 0.5 * threshold) > 0.0


def test_kkt_small_at_converged_solution():
    model = tiny_model(15)
    batch = simulate_batch(model, 3, 40, seed=15)
    part = model.partition
    cfg = EstimatorConfig(lambda_d=0.12, kkt_tol=1e-9)
    res = solve_block_regularized(batch, part, cfg)
    assert kkt_residual(res.theta_hat, batch, part, 0.12) <= 1e-9


def test_kkt_lambda_zero_is_gradient_norm():
    model = tiny_model(16)
    batch = simulate_batch(model, 3, 40, seed=16)
    part = model.partition
    theta = np.zeros(part.shape)
    grad = batch.X.T @ (batch.X @ theta - batch.Y) / batch.d
    assert kkt_residual(theta, batch, part, 0.0) == pytest.approx(np.abs(grad).max())


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(lambda_d=-0.1)
    with pytest.raises(ValueError):
        EstimatorConfig(lambda_d=0.1, kkt_tol=0.0)
    with pytest.raises(ValueError):
        EstimatorConfig(lambda_d=0.1, max_iter=0)


def test_estimate_file_roundtrip(tmp_path):
    import json

    from blocksysid.solver import estimate_to_dict, save_estimate

    model = tiny_model(17)
    batch = simulate_batch(model, 3, 40, seed=17)
    res = solve_block_regularized(batch, model.partition, EstimatorConfig(lambda_d=0.2))
    path = tmp_path / "estimate.json"
    save_estimate(res, str(path))
    doc = json.loads(path.read_text())
    assert set(doc) == {"theta_hat", "support_mask", "lambda_d", "kkt_residual"}
    assert np.array_equal(np.asarray(doc["support_mask"], dtype=bool), res.support.mask)
    assert doc == estimate_to_dict(res)
