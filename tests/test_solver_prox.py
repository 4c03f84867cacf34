import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blocksysid.solver import _prox_rows, project_l1_ball, prox_linf

from oracles import project_l1_bisection


def test_projection_interior_point_unchanged():
    v = np.array([0.2, -0.1])
    out = project_l1_ball(v, 1.0)
    assert np.array_equal(out, v)
    assert out is not v


def test_projection_boundary_examples():
    np.testing.assert_allclose(project_l1_ball(np.array([3.0, 1.0]), 1.0), [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(project_l1_ball(np.array([2.0, -2.0]), 2.0), [1.0, -1.0], atol=1e-12)


def test_projection_matches_bisection_oracle():
    rng = np.random.default_rng(0)
    for _ in range(300):
        p = int(rng.integers(1, 26))
        v = rng.standard_normal(p) * 10.0 ** rng.uniform(-2, 2)
        radius = float(np.abs(rng.standard_normal())) + 1e-3
        ours = project_l1_ball(v, radius)
        ref = project_l1_bisection(v, radius)
        np.testing.assert_allclose(ours, ref, atol=1e-10)
        assert np.abs(ours).sum() <= radius + 1e-12


def test_projection_radius_below_rounding_of_largest_entry():
    # 1e6 - 1e-12 rounds to 1e6, so no entry passes the threshold test; the
    # threshold must not divide by a zero count.
    v = np.array([1e6, -3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = project_l1_ball(v, 1e-12)
        assert np.array_equal(prox_linf(v, 1e-12) + out, v)
    assert np.abs(out).sum() <= 1e-12


def test_projection_rejects_bad_radius():
    with pytest.raises(ValueError):
        project_l1_ball(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        project_l1_ball(np.array([1.0]), -1.0)
    with pytest.raises(ValueError, match="radius must be positive"):
        project_l1_ball(np.array([1.0]), np.nan)
    with pytest.raises(ValueError, match="expected a 1-D vector"):
        project_l1_ball(np.ones((2, 2)), 1.0)


@pytest.mark.parametrize("tau", [-1.0, np.nan])
def test_prox_rejects_bad_tau(tau):
    with pytest.raises(ValueError, match="tau must be nonnegative"):
        prox_linf(np.array([1.0]), tau)


def test_prox_zero_tau_is_identity():
    v = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(prox_linf(v, 0.0), v)


def test_prox_collapses_small_blocks():
    assert np.array_equal(prox_linf(np.array([0.3, -0.2]), 0.5), np.zeros(2))


def test_prox_example_with_subgradient_certificate():
    v = np.array([3.0, 1.0])
    x = prox_linf(v, 1.0)
    np.testing.assert_allclose(x, [2.0, 1.0], atol=1e-12)
    # optimality: (x - v) + tau * g = 0 with g a valid max-abs subgradient
    g = (v - x) / 1.0
    np.testing.assert_allclose(g, [1.0, 0.0], atol=1e-12)


def test_prox_zero_iff_l1_at_most_tau():
    rng = np.random.default_rng(1)
    for _ in range(200):
        v = rng.standard_normal(int(rng.integers(1, 12)))
        tau = float(np.abs(rng.standard_normal())) + 1e-6
        x = prox_linf(v, tau)
        if np.abs(v).sum() <= tau:
            assert not x.any()
        else:
            assert x.any()


def test_moreau_identity_exact():
    rng = np.random.default_rng(2)
    for _ in range(500):
        v = rng.standard_normal(int(rng.integers(1, 26))) * 10.0 ** rng.uniform(-3, 3)
        tau = float(np.abs(rng.standard_normal())) * 10.0 ** rng.uniform(-2, 2) + 1e-9
        assert np.array_equal(prox_linf(v, tau) + project_l1_ball(v, tau), v)


def test_prox_firmly_nonexpansive():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = int(rng.integers(1, 15))
        u = rng.standard_normal(p)
        v = rng.standard_normal(p)
        tau = float(np.abs(rng.standard_normal())) + 1e-6
        pu, pv = prox_linf(u, tau), prox_linf(v, tau)
        lhs = float(np.dot(pu - pv, pu - pv))
        assert lhs <= float(np.dot(pu - pv, u - v)) + 1e-12


# Rows of moderate magnitude, with exact ties and exact zeros among them.
finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
row_stacks = st.integers(1, 8).flatmap(
    lambda p: arrays(np.float64, st.tuples(st.integers(1, 6), st.just(p)), elements=finite)
)
taus = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(V=row_stacks, tau=taus)
def test_prox_rows_match_one_vector_prox(V, tau):
    # The solver's row-wise prox and the public one-vector prox share one
    # sort-threshold routine, so they agree bit for bit.
    out = _prox_rows(V, tau, np.empty_like(V))
    for i in range(V.shape[0]):
        assert np.array_equal(out[i], prox_linf(V[i], tau))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(V=row_stacks, tau=taus.filter(lambda t: t > 0))
def test_moreau_identity_exact_property(V, tau):
    for v in V:
        assert np.array_equal(prox_linf(v, tau) + project_l1_ball(v, tau), v)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(V=row_stacks, tau=taus.filter(lambda t: t > 0))
def test_prox_optimality_property(V, tau):
    # x = prox(v) iff g = (v - x) / tau is a subgradient of max-abs at x:
    # ||g||_1 <= 1, and for x != 0, ||g||_1 = 1 with g supported on the
    # max-abs entries of x and signed like them.  Checked on r = tau * g, so
    # a subnormal tau does not overflow; rounding in v - x scales with
    # ||v||_1, and below the normal range with the subnormal spacing.
    for v in V:
        x = prox_linf(v, tau)
        r = v - x
        tol = 64 * (np.finfo(float).eps * (tau + np.abs(v).sum()) + np.finfo(float).smallest_subnormal)
        assert np.abs(r).sum() <= tau + tol
        if not x.any():
            continue
        assert abs(np.abs(r).sum() - tau) <= tol
        on = r != 0
        assert (np.abs(x[on]) >= np.abs(x).max() - tol).all()
        assert (r * x >= 0).all()
