import numpy as np
import pytest

from blocksysid.blocks import BlockPartition, BlockSupport
from blocksysid.metrics import error_norms, mismatch_error, rme, rst


def masks(*rows):
    return BlockSupport(np.array(rows, dtype=bool))


def test_mismatch_examples():
    a = masks([1, 0], [0, 1])
    assert mismatch_error(a, a) == 0
    all_true = masks([1, 1], [1, 1])
    truth = masks([1, 0], [0, 0])
    assert mismatch_error(all_true, truth) == 3
    left = masks([1, 0], [0, 0])
    right = masks([0, 1], [1, 0])
    assert mismatch_error(left, right) == 3  # disjoint supports of sizes 1 and 2


def test_mismatch_symmetry_and_triangle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b, c = (masks(*(rng.random((3, 2)) < 0.5)) for _ in range(3))
        assert mismatch_error(a, b) == mismatch_error(b, a)
        assert mismatch_error(a, c) <= mismatch_error(a, b) + mismatch_error(b, c)


def test_mismatch_shape_check():
    with pytest.raises(ValueError):
        mismatch_error(masks([1, 0]), masks([1, 0], [0, 1]))


def test_rme_examples():
    part = BlockPartition.scalar(100, 100)  # 200 x 100 unit blocks
    assert rme(0, part) == 0.0
    assert rme(40, part) == pytest.approx(0.002)
    assert rme(20_000, part) == 1.0
    with pytest.raises(ValueError):
        rme(20_001, part)


def test_rst_examples():
    assert rst(400, 100, 100) == pytest.approx(2.0)
    assert rst(0, 3, 2) == 0.0
    # mass-spring sizing: n = 2N, m = N
    N = 30
    assert rst(90, 2 * N, N) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rst(5, 0, 0)


def test_error_norms_zero_difference():
    theta = np.array([[1.0, 0.0], [0.5, 2.0]])
    rep = error_norms(theta, theta)
    assert rep.linf_elementwise == rep.op_norm == rep.normalized_2 == 0.0


def test_error_norms_diagonal_difference():
    star = np.eye(2)
    hat = star + np.diag([3.0, 4.0])
    rep = error_norms(hat, star)
    assert rep.op_norm == pytest.approx(4.0)
    assert rep.linf_elementwise == pytest.approx(4.0)
    assert rep.normalized_2 == pytest.approx(4.0)


def test_error_norms_rank_one_difference():
    rng = np.random.default_rng(1)
    u = rng.standard_normal(5)
    v = rng.standard_normal(3)
    star = np.ones((5, 3))
    rep = error_norms(star + np.outer(u, v), star)
    assert rep.op_norm == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v))


def test_error_norms_inequalities():
    rng = np.random.default_rng(2)
    for _ in range(30):
        star = rng.standard_normal((6, 4))
        hat = star + rng.standard_normal((6, 4))
        rep = error_norms(hat, star)
        frob = np.linalg.norm(hat - star)
        rank = np.linalg.matrix_rank(hat - star)
        assert rep.op_norm <= frob + 1e-12
        assert frob <= np.sqrt(rank) * rep.op_norm + 1e-9
        assert rep.linf_elementwise <= rep.op_norm + 1e-12


def test_error_norms_zero_truth_rejected():
    with pytest.raises(ValueError):
        error_norms(np.ones((2, 2)), np.zeros((2, 2)))
