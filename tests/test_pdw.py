import numpy as np
import pytest

from blocksysid.blocks import BlockPartition, BlockSupport, block_range, support_pattern
from blocksysid.lti import SystemModel, TrajectoryBatch, gen_multi_agent, gen_synthetic, simulate_batch
from blocksysid.solver import EstimatorConfig, pdw_check, solve_block_regularized
from blocksysid.theory import lambda_schedule


def standardized(batch):
    s = batch.X.std(axis=0)
    s[s == 0] = 1.0
    return TrajectoryBatch(X=batch.X / s, Y=batch.Y, W=batch.W)


def test_orthogonal_design_witness_margin_near_one():
    # A = 0 and unit covariances make the design-row covariance the identity,
    # and a noiseless batch kills the projected-disturbance term entirely
    n = 4
    model = SystemModel(
        A=np.zeros((n, n)),
        B=np.eye(n),
        sigma_u=np.eye(n),
        sigma_w=np.zeros((n, n)),
        partition=BlockPartition.scalar(n, n),
    )
    batch = simulate_batch(model, 3, 2000, seed=0)
    truth = support_pattern(model.stacked(), model.partition, 0.0)
    report = pdw_check(batch, model.partition, lambda_d=0.05, true_support=truth)
    assert report.success
    assert report.gamma_margin > 0.8


def test_all_true_support_is_vacuous():
    model = gen_synthetic(6, 1, seed=1)
    batch = simulate_batch(model, 3, 30, seed=1)
    full = BlockSupport(np.ones((12, 6), dtype=bool))
    report = pdw_check(batch, model.partition, 0.1, full)
    assert report.success
    assert report.gamma_margin == 1.0
    assert all(norms.size == 0 for norms in report.dual_norms)


def test_witness_agrees_with_solver_support():
    # On the standardized design at comfortable sampling, the witness
    # certifies recovery and the full solve lands on the true support.
    hits = 0
    for seed in range(8):
        model = gen_synthetic(10, 1, seed=seed)
        batch = simulate_batch(model, 3, 800, seed=seed)
        lam = lambda_schedule(1, 10, 10, 800)
        truth = support_pattern(model.stacked(), model.partition, 0.0)
        report = pdw_check(standardized(batch), model.partition, lam, truth)
        result = solve_block_regularized(
            batch, model.partition, EstimatorConfig(lambda_d=lam, standardize=True)
        )
        if report.success and np.array_equal(result.support.mask, truth.mask):
            hits += 1
    assert hits >= 6


def test_witness_success_implies_no_false_positives():
    # the certificate is one-sided: success rules out spurious blocks but
    # cannot rule out shrinkage of weak true blocks
    for seed in range(6):
        for d in (200, 800):
            model = gen_synthetic(10, 1, seed=seed)
            batch = simulate_batch(model, 3, d, seed=seed)
            lam = lambda_schedule(1, 10, 10, d)
            truth = support_pattern(model.stacked(), model.partition, 0.0)
            std = standardized(batch)
            report = pdw_check(std, model.partition, lam, truth)
            result = solve_block_regularized(
                batch, model.partition, EstimatorConfig(lambda_d=lam, standardize=True)
            )
            if report.success:
                false_pos = result.support.mask & ~truth.mask
                assert not false_pos.any()


def test_witness_failure_matches_recovery_failure_raw():
    # unstandardized at this scale: witness fails and so does exact recovery
    for seed in range(4):
        model = gen_synthetic(10, 1, seed=seed)
        batch = simulate_batch(model, 3, 200, seed=seed)
        lam = lambda_schedule(1, 10, 10, 200)
        truth = support_pattern(model.stacked(), model.partition, 0.0)
        report = pdw_check(batch, model.partition, lam, truth)
        result = solve_block_regularized(batch, model.partition, EstimatorConfig(lambda_d=lam))
        assert not report.success
        assert not np.array_equal(result.support.mask, truth.mask)


def test_witness_undefined_on_rank_deficient_restricted_design():
    model = gen_synthetic(8, 1, seed=2)
    part = model.partition
    truth = support_pattern(model.stacked(), part, 0.0)
    # fewer samples than the largest on-support column count
    k_max = int(truth.mask.sum(axis=0).max())
    batch = simulate_batch(model, 3, max(1, k_max - 2), seed=2)
    with pytest.raises(ValueError, match="witness undefined"):
        pdw_check(batch, part, 0.1, truth)


def test_witness_reads_only_the_data_and_requires_positive_lambda():
    model = gen_synthetic(6, 1, seed=3)
    batch = simulate_batch(model, 3, 40, seed=3)
    truth = support_pattern(model.stacked(), model.partition, 0.0)
    stripped = TrajectoryBatch(X=batch.X, Y=batch.Y, W=None)
    # the disturbance is not observable, so the witness must not need it
    r1 = pdw_check(stripped, model.partition, 0.1, truth)
    r2 = pdw_check(batch, model.partition, 0.1, truth)
    assert (r1.success, r1.gamma_margin) == (r2.success, r2.gamma_margin) and all(
        np.array_equal(a, b) for a, b in zip(r1.dual_norms, r2.dual_norms, strict=True)
    )
    with pytest.raises(ValueError, match="witness"):
        pdw_check(batch, model.partition, 0.0, truth)


def test_witness_dual_is_the_full_problem_gradient_on_tied_blocks():
    # 3x3 blocks: the block max-abs prox clips the top entries of a block to
    # a common value, so on-support blocks have tied maxima.  The witness must
    # use the subgradient its restricted solve certifies, which makes its dual
    # the scaled gradient of the full problem at an exact-recovery solution.
    model = gen_multi_agent(8, 2, 3, 3, 0.2, seed=2)
    part = model.partition
    d = 800
    batch = standardized(simulate_batch(model, 3, d, seed=2))
    lam = lambda_schedule(part.max_block_size, part.n_state_blocks, part.n_input_blocks, d)
    truth = support_pattern(model.stacked(), part, 0.0)
    full = solve_block_regularized(batch, part, EstimatorConfig(lambda_d=lam, kkt_tol=1e-9))
    assert np.array_equal(full.support.mask, truth.mask)

    report = pdw_check(batch, part, lam, truth)
    assert report.success
    Q = batch.X.T @ (batch.Y - batch.X @ full.theta_hat) / (d * lam)
    for j in range(part.n_col_blocks):
        for norm, i in zip(report.dual_norms[j], truth.zero_rows(j + 1), strict=True):
            rows, cols = block_range(part, i + 1, j + 1)
            assert abs(norm - np.abs(Q[rows, cols]).sum()) < 1e-6


def test_witness_deterministic():
    model = gen_synthetic(8, 1, seed=4)
    batch = simulate_batch(model, 3, 100, seed=4)
    truth = support_pattern(model.stacked(), model.partition, 0.0)
    r1 = pdw_check(batch, model.partition, 0.2, truth)
    r2 = pdw_check(batch, model.partition, 0.2, truth)
    assert r1.gamma_margin == r2.gamma_margin
    for a, b in zip(r1.dual_norms, r2.dual_norms):
        assert np.array_equal(a, b)
