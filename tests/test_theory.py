import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocksysid.blocks import BlockPartition, BlockSupport
from blocksysid.lti import SystemModel, gen_synthetic
from blocksysid.theory import (
    check_assumptions,
    lambda_schedule,
    min_block_magnitude,
    mutual_incoherence,
    sample_threshold,
)

from oracles import mutual_incoherence_reference


def test_incoherence_diagonal_covariance_is_one():
    part = BlockPartition.scalar(2, 2)
    support = BlockSupport(np.array([[True, False], [False, True], [True, True], [False, False]]))
    gamma = mutual_incoherence(np.diag([1.0, 2.0, 3.0, 4.0]), part, support)
    assert gamma == pytest.approx(1.0)


def test_incoherence_two_by_two_hand_value():
    part = BlockPartition.scalar(1, 1)
    support = BlockSupport(np.array([[True], [False]]))
    for rho in (0.3, -0.55, 0.9):
        sigma = np.array([[1.0, rho], [rho, 1.0]])
        assert mutual_incoherence(sigma, part, support) == pytest.approx(1.0 - abs(rho))


def test_incoherence_takes_largest_row_of_each_on_support_block():
    # one 2-row on-support block, one 1-row off-support block: a witness
    # subgradient puts its unit l1 mass on one row of the on-support block,
    # so only one of the two rho couplings reaches the off-support block
    part = BlockPartition.from_block_sizes((2,), (1,))
    support = BlockSupport(np.array([[True], [False]]))
    for rho in (0.6, -0.3, 0.45):
        sigma = np.array([[1.0, 0.0, rho], [0.0, 1.0, rho], [rho, rho, 1.0]])
        assert mutual_incoherence(sigma, part, support) == pytest.approx(1.0 - abs(rho))


def _witness_dual_norms(sigma, part, support, make_witness):
    """l1 norm of C^T Z_S on every off-support block, for a witness Z_S per column."""
    ro = part.row_offsets
    norms = []
    for j, on_blocks in enumerate(support.mask.T):
        on, off = np.flatnonzero(on_blocks), np.flatnonzero(~on_blocks)
        idx_on = np.concatenate([np.arange(ro[b], ro[b + 1]) for b in on])
        for b in off:
            idx_b = np.arange(ro[b], ro[b + 1])
            coeffs = np.linalg.solve(sigma[np.ix_(idx_on, idx_on)], sigma[np.ix_(idx_on, idx_b)])
            Z = make_witness(coeffs, [part.row_sizes[k] for k in on], part.col_sizes[j])
            norms.append(float(np.abs(coeffs.T @ Z).sum()))
    return norms


def test_incoherence_is_attained_by_a_witness_on_mixed_blocks():
    # state blocks (3, 2), input blocks (2, 1): every block column is at
    # least as wide as its count of on-support blocks
    part = BlockPartition.from_block_sizes((3, 2), (2, 1))
    support = BlockSupport(np.array([[True, False], [False, True], [True, True], [False, False]]))
    rng = np.random.default_rng(5)
    M = rng.standard_normal((8, 8))
    sigma = M @ M.T + 2.0 * np.eye(8)
    gamma = mutual_incoherence(sigma, part, support)

    def extremal(coeffs, on_sizes, width):
        # each on-support block puts its unit entry on its largest row, in its own column
        Z = np.zeros((coeffs.shape[0], width))
        row_l1 = np.abs(coeffs).sum(axis=1)
        start = 0
        for col, size in enumerate(on_sizes):
            Z[start + int(np.argmax(row_l1[start : start + size])), col] = 1.0
            start += size
        return Z

    def random_admissible(coeffs, on_sizes, width):
        # any subgradient: each on-support block has entrywise l1 norm one
        blocks = [rng.standard_normal((size, width)) for size in on_sizes]
        return np.vstack([blk / np.abs(blk).sum() for blk in blocks])

    assert max(_witness_dual_norms(sigma, part, support, extremal)) == pytest.approx(1.0 - gamma)
    for _ in range(200):
        assert max(_witness_dual_norms(sigma, part, support, random_admissible)) <= 1.0 - gamma + 1e-12


def test_incoherence_full_support_vacuous():
    part = BlockPartition.scalar(2, 1)
    support = BlockSupport(np.ones((3, 2), dtype=bool))
    rng = np.random.default_rng(0)
    M = rng.standard_normal((3, 3))
    assert mutual_incoherence(M @ M.T + np.eye(3), part, support) == pytest.approx(1.0)


def test_incoherence_scale_invariant():
    rng = np.random.default_rng(1)
    part = BlockPartition.from_block_sizes((2, 1), (1,))
    M = rng.standard_normal((4, 4))
    sigma = M @ M.T + 0.5 * np.eye(4)
    support = BlockSupport(np.array([[True, False], [False, True], [True, False]]))
    g1 = mutual_incoherence(sigma, part, support)
    g2 = mutual_incoherence(7.3 * sigma, part, support)
    assert g1 == pytest.approx(g2)


def test_incoherence_singular_on_support_errors():
    part = BlockPartition.scalar(1, 1)
    support = BlockSupport(np.array([[True], [False]]))
    sigma = np.array([[0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="incoherence undefined"):
        mutual_incoherence(sigma, part, support)
    with pytest.raises(ValueError, match=r"covariance must be 2x2, got \(3, 3\)"):
        mutual_incoherence(np.eye(3), part, support)
    with pytest.raises(ValueError, match="support mask shape does not match the partition"):
        mutual_incoherence(np.eye(2), part, BlockSupport(np.array([[True, False]])))


@st.composite
def incoherence_problems(draw):
    """(sigma, partition, support): mixed row sizes, a random support, a positive definite covariance."""
    state_sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    input_sizes = draw(st.lists(st.integers(1, 3), max_size=3))
    part = BlockPartition.from_block_sizes(state_sizes, input_sizes)
    mask = draw(st.lists(st.booleans(), min_size=part.n_row_blocks * part.n_col_blocks,
                         max_size=part.n_row_blocks * part.n_col_blocks))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = part.shape[0]
    M = rng.standard_normal((p, p))
    sigma = M @ M.T / p + 0.1 * np.eye(p)
    return sigma, part, BlockSupport(np.reshape(mask, (part.n_row_blocks, part.n_col_blocks)))


def _unit_problem(n, m, seed):
    """Unit blocks, the case that skips the block reductions, with about half the blocks on."""
    part = BlockPartition.scalar(n, m)
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n + m, n + m))
    return M @ M.T / (n + m) + 0.1 * np.eye(n + m), part, BlockSupport(rng.random((n + m, n)) < 0.5)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(problem=incoherence_problems())
@example(problem=_unit_problem(12, 4, 0))
def test_incoherence_equals_the_per_block_reference(problem):
    assert mutual_incoherence(*problem) == mutual_incoherence_reference(*problem)


@pytest.mark.parametrize("incoherence", [mutual_incoherence, mutual_incoherence_reference])
def test_incoherence_names_the_first_singular_block_column(incoherence):
    # Rows 1 and 2 repeat each other, so block columns 2 and 3, whose
    # supports hold both, have singular on-support covariances; column 1's
    # support does not, and the error names column 2.
    part = BlockPartition.scalar(3, 1)
    sigma = np.array([[2.0, 2.0, 0.5, 0.1], [2.0, 2.0, 0.5, 0.1], [0.5, 0.5, 1.0, 0.2], [0.1, 0.1, 0.2, 1.0]])
    support = BlockSupport(
        np.array([[False, True, True], [False, True, True], [True, False, False], [False, False, True]])
    )
    with pytest.raises(ValueError, match=r"singular on-support covariance in block column 2$"):
        incoherence(sigma, part, support)


def test_min_block_magnitude_examples():
    part = BlockPartition.scalar(1, 1)
    assert min_block_magnitude(np.array([[5.0], [0.0]]), part) == 5.0

    case1 = gen_synthetic(10, 1, seed=0)
    assert min_block_magnitude(case1.stacked(), case1.partition) == pytest.approx(0.3)

    part3 = BlockPartition((1, 1, 1), (1, 1))
    theta = np.array([[1.0, 0.0], [0.3, 0.0], [0.0, 0.7]])
    assert min_block_magnitude(theta, part3) == pytest.approx(0.3)

    with pytest.raises(ValueError, match="t_min undefined"):
        min_block_magnitude(np.zeros((2, 1)), BlockPartition.scalar(1, 1))


def test_lambda_schedule_values():
    assert lambda_schedule(1, 1, 0, 2) == pytest.approx(1.0)
    for args, message in (((1, 1, 0, 0), "d must be at least 1"), ((0, 1, 0, 2), "D must be at least 1"),
                          ((1, 0, 0, 2), "need at least one block")):
        with pytest.raises(ValueError, match=message):
            lambda_schedule(*args)
    assert lambda_schedule(1, 100, 100, 360) == pytest.approx(0.18706, abs=5e-6)
    # 1/sqrt(d) homogeneity
    assert lambda_schedule(3, 5, 5, 400) == pytest.approx(lambda_schedule(3, 5, 5, 100) / 2.0)
    # unit blocks reduce to the element-wise schedule
    n, m, d = 17, 13, 250
    assert lambda_schedule(1, n, m, d) == pytest.approx(math.sqrt(2 * (1 + math.log(n + m)) / d))


def test_lambda_schedule_monotonicity():
    base = lambda_schedule(2, 10, 10, 500)
    assert lambda_schedule(2, 10, 10, 1000) < base
    assert lambda_schedule(3, 10, 10, 500) > base
    assert lambda_schedule(2, 20, 20, 500) > base


def test_sample_threshold_examples():
    assert sample_threshold(1.0, 1, 1, 1, 1, delta=0.5) == math.ceil(2 * math.log(2)) == 2
    base = 1.0 * 1 * (2 * math.log(40) + 4 * math.log(10))
    assert sample_threshold(2.0, 1, 2, 20, 20, delta=0.1) == math.ceil(4 * base)
    inner = 2 * math.log(40) + 4 * math.log(10)
    assert sample_threshold(1.0, 3, 2, 20, 20, delta=0.1) == math.ceil(3 * inner)


def test_sample_threshold_validation():
    with pytest.raises(ValueError):
        sample_threshold(1.0, 1, 1, 2, 2, delta=1.5)
    with pytest.raises(ValueError):
        sample_threshold(0.0, 1, 1, 2, 2, delta=0.5)
    # design_covariance reports kappa = inf for a singular row covariance
    for kappa in (math.inf, math.nan, -math.inf):
        message = f"kappa (finite), k_max and D must be positive, got {kappa}, 1, 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample_threshold(kappa, 1, 1, 2, 2, delta=0.5)


@pytest.mark.parametrize(
    "args, message",
    [
        ((1.0, True, 1, 2, 2, 0.5), "k_max must be an integer, got True"),
        ((1.0, 1, 1.5, 2, 2, 0.5), "D must be an integer, got 1.5"),
        ((1.0, 1, 1, 2.0, 2, 0.5), "n_bar must be an integer, got 2.0"),
        ((1.0, 1, 1, 2, "2", 0.5), "m_bar must be an integer, got '2'"),
        (("2", 1, 1, 2, 2, 0.5), "kappa must be a real number, got '2'"),
        ((None, 1, 1, 2, 2, 0.5), "kappa must be a real number, got None"),
        ((True, 1, 1, 2, 2, 0.5), "kappa must be a real number, got True"),
        ((1.0, 1, 1, 2, 2, "0.5"), "delta must be a real number, got '0.5'"),
        ((1.0, 1, 1, 2, 2, None), "delta must be a real number, got None"),
    ],
)
def test_sample_threshold_names_a_bad_argument(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sample_threshold(*args)


@pytest.mark.parametrize(
    "args, message",
    [
        ((True, 2, 2, 100), "D must be an integer, got True"),
        ((1.5, 2, 2, 100), "D must be an integer, got 1.5"),
        ((1, 2.0, 2, 100), "n_bar must be an integer, got 2.0"),
        ((1, 2, None, 100), "m_bar must be an integer, got None"),
        ((1, 2, 2, 100.5), "d must be an integer, got 100.5"),
        ((1, 2, 2, False), "d must be an integer, got False"),
    ],
)
def test_lambda_schedule_names_a_bad_argument(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        lambda_schedule(*args)


def test_schedules_take_numpy_scalars():
    assert lambda_schedule(np.int64(2), np.int32(2), 2, np.int64(100)) == lambda_schedule(2, 2, 2, 100)
    assert sample_threshold(np.float64(2.0), np.int64(1), 1, 2, 2, np.float32(0.5)) == sample_threshold(
        2.0, 1, 1, 2, 2, float(np.float32(0.5))
    )


def test_check_assumptions_closed_form():
    # A = 0, B = I, unit input covariance, half disturbance covariance, T = 2:
    # the design covariance is diag(1.5 I, I)
    n = 3
    model = SystemModel(
        A=np.zeros((n, n)),
        B=np.eye(n),
        sigma_u=np.eye(n),
        sigma_w=0.5 * np.eye(n),
        partition=BlockPartition.scalar(n, n),
    )
    report = check_assumptions(model, 2)
    assert report.lambda_min == pytest.approx(1.0)
    assert report.lambda_max == pytest.approx(1.5)
    assert report.gamma == pytest.approx(1.0)
    assert report.t_min == pytest.approx(1.0)
    assert report.satisfied == {"A1": True, "A2": True, "A3": True}
    assert report.alpha_n == 0.0 and report.alpha_m == 0.0


def test_check_assumptions_case_study_instance():
    report = check_assumptions(gen_synthetic(10, 1, seed=0), 3)
    assert report.gamma > 0
    assert report.satisfied["A1"]
    assert report.t_min == pytest.approx(0.3)


def test_check_assumptions_zero_parameter_errors():
    n = 2
    model = SystemModel(
        A=np.zeros((n, n)),
        B=np.zeros((n, 1)),
        sigma_u=np.eye(1),
        sigma_w=np.eye(n),
        partition=BlockPartition.scalar(n, 1),
    )
    with pytest.raises(ValueError, match="t_min undefined"):
        check_assumptions(model, 2)


def test_block_size_exponents_reported():
    from blocksysid.lti import gen_multi_agent

    model = gen_multi_agent(10, 2, 5, 5, dt=0.2, seed=0)
    report = check_assumptions(model, 3)
    assert report.alpha_n == pytest.approx(math.log(5) / math.log(20))
    assert report.alpha_m == pytest.approx(math.log(5) / math.log(20))
    # one row block: log of the block count is 0, so the exponents are undefined
    single = SystemModel(A=0.5 * np.eye(2), B=np.zeros((2, 0)), sigma_u=np.zeros((0, 0)), sigma_w=np.eye(2),
                         partition=BlockPartition.from_block_sizes((2,), ()))
    report = check_assumptions(single, 3)
    assert math.isnan(report.alpha_n) and math.isnan(report.alpha_m)
