import re

import numpy as np
import pytest

from blocksysid.lti import gen_mass_spring, gen_multi_agent, gen_synthetic


def test_synthetic_row_counts_and_entries():
    for w in (1, 2, 3):
        model = gen_synthetic(40, w, seed=w)
        AB = np.hstack([model.A, model.B])
        counts = np.count_nonzero(AB, axis=1)
        assert counts.min() >= 3 * w + 2
        assert counts.max() <= 5 * w + 2
        # diagonal ones, everything else +/-0.3
        assert np.array_equal(np.diag(model.A), np.ones(40))
        assert np.array_equal(np.diag(model.B), np.ones(40))
        off_a = model.A[~np.eye(40, dtype=bool)]
        off_b = model.B[~np.eye(40, dtype=bool)]
        for vals in (off_a[off_a != 0], off_b[off_b != 0]):
            assert np.isin(vals, (0.3, -0.3)).all()


def test_synthetic_w_zero_is_identity():
    model = gen_synthetic(5, 0, seed=0)
    assert np.array_equal(model.A, np.eye(5))
    assert np.array_equal(model.B, np.eye(5))


def test_synthetic_band_structure():
    model = gen_synthetic(30, 2, seed=9)
    # the full band (first 2 super/sub diagonals) is populated in both A and B
    for off in (1, 2):
        assert np.abs(np.diag(model.A, off)).min() > 0
        assert np.abs(np.diag(model.A, -off)).min() > 0
        assert np.abs(np.diag(model.B, off)).min() > 0
        assert np.abs(np.diag(model.B, -off)).min() > 0
    # B carries only the band: nothing beyond offset 2
    beyond = np.triu(np.abs(model.B), k=3) + np.tril(np.abs(model.B), k=-3)
    assert not beyond.any()
    # each row of A has exactly w extra off-band entries
    band = np.abs(np.subtract.outer(np.arange(30), np.arange(30))) <= 2
    extras = (model.A != 0) & ~band
    assert np.array_equal(extras.sum(axis=1), np.full(30, 2))


def test_synthetic_covariances_and_partition():
    model = gen_synthetic(10, 1, seed=3)
    assert np.array_equal(model.sigma_u, np.eye(10))
    assert np.array_equal(model.sigma_w, 0.5 * np.eye(10))
    assert model.partition.row_sizes == (1,) * 20
    assert model.partition.col_sizes == (1,) * 10


def test_synthetic_determinism_and_errors():
    a = gen_synthetic(20, 2, seed=5)
    b = gen_synthetic(20, 2, seed=5)
    assert np.array_equal(a.A, b.A) and np.array_equal(a.B, b.B)
    with pytest.raises(ValueError, match="band width must be nonnegative"):
        gen_synthetic(4, -1, seed=0)
    # a middle row holds 2w+1 band entries and w off-band ones, so n >= 3w+1
    for n, w in ((3, 1), (4, 2), (6, 2)):
        message = rf"n={n} too small for band width w={w}: need n >= {3 * w + 1}$"
        with pytest.raises(ValueError, match=message):
            gen_synthetic(n, w, seed=0)
    for n, w in ((4, 1), (7, 2)):
        assert gen_synthetic(n, w, seed=0).n == n


def test_mass_spring_two_masses_coupling():
    model = gen_mass_spring(2, dt=0.2)
    S = (model.A[2:, :2]) / 0.2
    np.testing.assert_allclose(S, np.array([[-2.0, 1.0], [1.0, -2.0]]))


def test_mass_spring_single_mass_hand_values():
    model = gen_mass_spring(1, dt=0.2)
    np.testing.assert_allclose(model.A, np.array([[1.0, 0.2], [-0.4, 1.0]]))
    np.testing.assert_allclose(model.B, np.array([[0.0], [0.2]]))
    assert model.n == 2 and model.m == 1


def test_mass_spring_euler_limit():
    model = gen_mass_spring(3, dt=1e-9)
    np.testing.assert_allclose(model.A, np.eye(6), atol=1e-8)
    np.testing.assert_allclose(model.B, np.zeros((6, 3)), atol=1e-9)
    # the discretization is affine in dt
    m1 = gen_mass_spring(3, dt=0.1)
    m2 = gen_mass_spring(3, dt=0.2)
    np.testing.assert_allclose(m2.A - np.eye(6), 2 * (m1.A - np.eye(6)), atol=1e-15)
    np.testing.assert_allclose(m2.B, 2 * m1.B, atol=1e-15)


def test_mass_spring_validation():
    with pytest.raises(ValueError):
        gen_mass_spring(0, dt=0.2)
    with pytest.raises(ValueError):
        gen_mass_spring(2, dt=0.0)


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), float("-inf")])
def test_generators_reject_non_finite_dt(dt):
    # NaN passes a plain `dt <= 0` check and would make A all NaN
    with pytest.raises(ValueError, match="dt"):
        gen_mass_spring(3, dt)
    with pytest.raises(ValueError, match="dt"):
        gen_multi_agent(5, 2, 2, 2, dt=dt, seed=0)


def test_multi_agent_dimensions():
    model = gen_multi_agent(200, 5, 5, 5, dt=0.2, seed=0)
    assert model.n == 1000 and model.m == 1000
    assert model.partition.max_block_size == 25


def test_multi_agent_block_structure_and_entries():
    model = gen_multi_agent(12, 3, 2, 3, dt=0.2, seed=4)
    n_blocks = 12
    a_cont = (model.A - np.eye(model.n)) / 0.2
    b_cont = model.B / 0.2
    populated = 0
    for i in range(n_blocks):
        for j in range(n_blocks):
            blk_a = a_cont[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
            blk_b = b_cont[2 * i : 2 * i + 2, 3 * j : 3 * j + 3]
            has_a = np.abs(blk_a).max() > 0
            has_b = np.abs(blk_b).max() > 0
            assert has_a == has_b  # same neighbor set populates A and B
            if i == j:
                assert has_a  # self block always present
            if has_a:
                populated += 1
                vals = np.concatenate([blk_a.ravel(), blk_b.ravel()])
                mags = np.abs(vals)
                assert (mags >= 0.3).all() and (mags <= 0.4).all()
    assert populated == 12 * 4  # self + 3 neighbors per agent


def test_multi_agent_degree_zero_is_block_diagonal():
    model = gen_multi_agent(5, 0, 2, 2, dt=0.1, seed=1)
    a_cont = (model.A - np.eye(10)) / 0.1
    mask = np.kron(np.eye(5, dtype=bool), np.ones((2, 2), dtype=bool))
    assert not a_cont[~mask].any()


def test_multi_agent_validation():
    with pytest.raises(ValueError):
        gen_multi_agent(5, 5, 2, 2, dt=0.1, seed=0)
    with pytest.raises(ValueError):
        gen_multi_agent(5, 2, 2, 2, dt=-0.1, seed=0)
    with pytest.raises(ValueError, match="need at least one agent"):
        gen_multi_agent(0, 0, 2, 2, dt=0.1, seed=0)
    for state_size, input_size in ((0, 2), (2, 0)):
        with pytest.raises(ValueError, match="agent block sizes must be positive"):
            gen_multi_agent(3, 1, state_size, input_size, dt=0.1, seed=0)


@pytest.mark.parametrize(
    "seed, message",
    [
        (True, "seed must be an integer, got True"),
        (2.0, "seed must be an integer, got 2.0"),
        (-1, "seed must be nonnegative, got -1"),
    ],
)
def test_seeded_generators_name_a_bad_seed(seed, message):
    # True was read as seed 1; 2.0 and -1 raised numpy's messages, which name no field
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        gen_synthetic(6, 1, seed)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        gen_multi_agent(4, 1, 2, 2, 0.2, seed)
