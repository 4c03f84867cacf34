"""The lockstep APG step kernels against per-column and allocating references."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blocksysid import solver
from blocksysid.solver import (
    _SENTINEL,
    KKT_TOL,
    _kkt_stack,
    _l1_thresholds,
    _prox_stack,
    _size_groups,
)

from oracles import (
    block_row_indices_reference,
    kkt_stack_reference,
    l1_thresholds_reference,
    prox_stack_reference,
)

# Few distinct magnitudes, so blocks tie at their max-abs and some are all zero.
entries = st.one_of(st.sampled_from([0.0, 0.0, 1.0, -1.0, 2.5, -2.5]), st.floats(-4.0, 4.0))


@st.composite
def stacks(draw, row_sizes=st.lists(st.integers(1, 3), min_size=1, max_size=6), widths=st.integers(1, 3)):
    """(row_sizes, x, v) with x's blocks zeroed at random, stacks 1-4 columns of width 1-3."""
    row_sizes = draw(row_sizes)
    shape = (draw(st.integers(1, 4)), sum(row_sizes), draw(widths))
    x = draw(arrays(np.float64, shape, elements=entries))
    v = draw(arrays(np.float64, shape, elements=entries))
    keep = draw(arrays(bool, (shape[0], len(row_sizes))))
    x *= np.repeat(keep, row_sizes, axis=1)[:, :, None]
    return row_sizes, x, v


# The two size groups interleave, so neither one's rows are a slice.
INTERLEAVED = ([1, 2, 1, 2], np.array([[[1.0], [-1.0], [1.0], [0.0], [0.0], [2.0]]]), np.ones((1, 6, 1)))


# One-entry rows only (unit row blocks, width 1), whose shift skips the sort:
# zero and nonzero entries against zero gradients, gradients of both signs
# past 1e154, where the squares overflow, and ones near 1e-200, where they
# underflow; one column of 10 rows, and two of 5, the second all small.
_X1 = np.array([1e200, -1e200, 1e200, -1e200, 0.0, 1e200, -0.0, 1e200, -1e200, -0.0])
_V1 = np.array([1e200, 1e200, -1e200, -1e200, -1e200, 0.0, -0.0, -3e-200, 3e-200, 1e-200])
ONE_ENTRY = ([1] * 10, _X1.reshape(1, 10, 1), _V1.reshape(1, 10, 1))
ONE_ENTRY_TWO_COLUMNS = ([1] * 5, _X1.reshape(2, 5, 1), _V1.reshape(2, 5, 1))

# A two-entry block whose entries both sit on its max, with on-max gradient
# terms whose squares overflow: squaring them before masking them out gives
# inf * 0 = NaN, where the distance is 0.
ON_MAX_PAST_SQUARES = ([2], np.array([[[1.0], [1.0]]]), np.array([[[-1e200], [-1e200]]]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=stacks(), lam=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 8.0)))
@example(case=INTERLEAVED, lam=0.5)
# lambdas far below 1e-150, where squaring grad / lambda would overflow
@example(case=INTERLEAVED, lam=5e-324)
@example(case=INTERLEAVED, lam=1e-200)
@example(case=ONE_ENTRY, lam=5e-324)
@example(case=ONE_ENTRY, lam=1e-200)
@example(case=ONE_ENTRY, lam=1e300)
@example(case=ONE_ENTRY_TWO_COLUMNS, lam=5e-324)
@example(case=ONE_ENTRY_TWO_COLUMNS, lam=1e-200)
@example(case=ONE_ENTRY_TWO_COLUMNS, lam=1e300)
@example(case=ON_MAX_PAST_SQUARES, lam=2e200)
def test_step_kernels_match_allocating_references(case, lam):
    row_sizes, x, v = case
    groups = _size_groups(row_sizes)
    grad = v.copy()
    assert np.array_equal(_kkt_stack(x, grad, lam, groups), kkt_stack_reference(x, v, lam, groups))
    out = np.full_like(v, np.nan)
    _prox_stack(v, lam, groups, out)
    want = prox_stack_reference(v, lam, groups)
    assert np.array_equal(out, want)
    assert np.array_equal(np.signbit(out), np.signbit(want))


@pytest.mark.parametrize("row_sizes, nan_block", [([1] * 10, slice(2, 3)), ([2] * 5, slice(2, 4))])
def test_prox_stack_zeroes_a_row_holding_a_nan(row_sizes, nan_block):
    # NaN > tau is false, so a row holding a NaN never leaves the l1 ball: it
    # comes out an exact zero block, one entry wide or two
    v = _V1.reshape(1, 10, 1).copy()
    v[0, 2, 0] = np.nan
    groups = _size_groups(row_sizes)
    out = np.full_like(v, np.nan)
    _prox_stack(v, 0.5, groups, out)
    assert np.array_equal(out, prox_stack_reference(v, 0.5, groups))
    assert out[0, nan_block, 0].tobytes() == np.zeros(nan_block.stop - nan_block.start).tobytes()


# The one-entry rows' entries as the prox (|v|) and the distance (r = -g sign(th)) pass them to the shift.
ONE_ENTRY_SHIFT_INPUTS = np.concatenate([np.abs(_V1), -_V1 * np.sign(_X1), _X1, _V1])[:, None]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    a=st.one_of(
        *(
            arrays(
                np.float64,
                st.tuples(st.integers(1, 12), widths),
                elements=st.one_of(st.sampled_from([0.0, -0.0, 5e-324, top, -top, _SENTINEL]), st.floats(-top, top)),
            )
            # wider rows' entries stay where their sums cannot overflow
            for widths, top in ((st.just(1), 1e308), (st.integers(2, 3), 1e300))
        )
    ),
    radius=st.one_of(st.sampled_from([5e-324, 1e-200, 1.0, 1e300]), st.floats(5e-324, 1e300)),
)
@example(a=ONE_ENTRY_SHIFT_INPUTS, radius=5e-324)
@example(a=ONE_ENTRY_SHIFT_INPUTS, radius=1e-200)
@example(a=ONE_ENTRY_SHIFT_INPUTS, radius=1e300)
def test_shift_is_the_sort_paths_for_every_width(a, radius):
    # A one-entry row skips the sort; its shift is the sorted path's, bit
    # for bit, signs of zeros included.
    assert _l1_thresholds(a, radius).tobytes() == l1_thresholds_reference(a, radius).tobytes()


def test_kkt_stack_on_max_block_past_the_range_of_squares():
    # the gradient is exactly -lam times a valid subgradient, so the distance is 0
    row_sizes, x, grad = ON_MAX_PAST_SQUARES
    assert np.array_equal(_kkt_stack(x, grad.copy(), 2e200, _size_groups(row_sizes)), [0.0])


@pytest.mark.parametrize("row_sizes", [[1], [2]])
def test_kkt_stack_is_inf_where_a_term_leaves_the_float_range(row_sizes):
    # r - lam overflows to -inf, so every on-max term r - y is infinite:
    # the distance is inf, not the rescaling's inf / inf
    size = sum(row_sizes)
    x, grad = np.ones((1, size, 1)), np.full((1, size, 1), np.finfo(float).max)
    with pytest.warns(RuntimeWarning, match="overflow"):
        value = _kkt_stack(x, grad, 1e300, _size_groups(row_sizes))
    assert value.tolist() == [np.inf]


# A converged wide block, all four entries on its max, whose gradient is
# minus a valid subgradient (lam / 4 on every entry, lam = 1) and t more on
# every entry: its distance sqrt(P) t = 8e-8 is within KKT_TOL, while its l1
# excess P t = 1.6e-7 is not, so only the sqrt(P) keeps the floor off.
CONVERGED_PLUS_T = ([2], np.ones((1, 2, 2)), np.full((1, 2, 2), -(0.25 + 4e-8)))


def measured_alone(x, grad, lam, groups):
    """The floored kernel on one column: its value, and whether any row's distance was taken."""
    with mock.patch.object(solver, "_kkt_rows", wraps=solver._kkt_rows) as rows:
        value = _kkt_stack(x, grad.copy(), lam, groups, floor=True)
    return value, rows.called


def assert_floor_sound(row_sizes, x, grad, lam):
    """A column the floored kernel leaves unmeasured, no row's distance
    taken, is above KKT_TOL both floored and exactly; every other column's
    value is the exact kernel's, bit for bit, alone or stacked.  Returns the
    number of unmeasured columns."""
    groups = _size_groups(row_sizes)
    exact = _kkt_stack(x, grad.copy(), lam, groups)
    floored = _kkt_stack(x, grad.copy(), lam, groups, floor=True)
    unmeasured = 0
    for j in range(x.shape[0]):
        alone, measured = measured_alone(x[j : j + 1], grad[j : j + 1], lam, groups)
        assert alone.tobytes() == floored[j].tobytes()
        if measured:
            assert floored[j].tobytes() == exact[j].tobytes()
        else:
            assert exact[j] > KKT_TOL and floored[j] > KKT_TOL
            unmeasured += 1
    return unmeasured


# One-wide stacks whose rows hold one entry, or 1 and 25.
one_entry_and_mixed_stacks = stacks(
    row_sizes=st.one_of(
        st.lists(st.just(1), min_size=1, max_size=8),
        st.lists(st.sampled_from([1, 25]), min_size=2, max_size=4).filter(lambda r: len(set(r)) == 2),
    ),
    widths=st.just(1),
)

# Weights at which a one-entry row's y = r - (r - lam) rounds away
# from lam for some rows of the draws, r = -g sign(th) being far from lam.
ROUNDING_LAMBDAS = [0.1, 1 / 3, 3e-8, 1e-20]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(
    case=st.one_of(stacks(), one_entry_and_mixed_stacks),
    lam=st.one_of(
        st.sampled_from([5e-324, 1e-200, 0.5, 1.0, 1e300, *ROUNDING_LAMBDAS]),
        st.floats(5e-324, 8.0),
        st.floats(5e-324, 1e300),
    ),
    scale=st.one_of(st.sampled_from([1.0, 1e-7, 3e-8, 1e150, 1e300]), st.floats(0.0, 1e300)),
)
@example(case=CONVERGED_PLUS_T, lam=1.0, scale=1.0)
def test_l1_floor_leaves_unmeasured_only_columns_that_cannot_stop(case, lam, scale):
    row_sizes, x, v = case
    assert_floor_sound(row_sizes, x, v * scale, lam)


@pytest.mark.parametrize("lam", [3e-8, 1e-20, 0.1, 1e6])
def test_l1_floor_on_one_entry_rows_at_the_tolerance(lam):
    # One-entry columns whose distance |r - y| lies within 64 ulps of
    # KKT_TOL, or within three margins of it, for zero and nonzero entries of
    # both signs: the floor takes some, measures the rest, and never one that
    # can stop.
    top = lam + KKT_TOL
    ulps = np.spacing(top) * np.arange(-64, 65)
    margins = 2.0**-40 * (top + lam) * np.linspace(-3, 3, 61)
    r = top + np.concatenate([ulps, margins])
    r = np.concatenate([r, -r])
    for th in (1.0, -1.0, 0.0):
        x = np.full((r.size, 1, 1), th)
        grad = (-r * (np.sign(th) or 1.0)).reshape(-1, 1, 1)
        assert assert_floor_sound([1], x, grad, lam) > 0
    if lam < KKT_TOL:  # y rounds away from lam where r > 2 lam
        assert (r - (r - lam) != lam).any()


@pytest.mark.parametrize("lam", [1e3, 1e6])
def test_l1_floor_on_mixed_rows_at_the_tolerance(lam):
    # Columns of one-entry rows and a 25-entry block near a solution, its
    # gradient minus a valid subgradient and t further out on every entry.
    # In the first half 5 t is within a few rounding errors of KKT_TOL: at
    # these weights the floor's l1 sum and the sort path's distance disagree
    # by more than their gap to the tolerance, and only the margin keeps such
    # columns measured.  In the second half 5 t is within three margins.
    rng = np.random.default_rng(int(lam))
    row_sizes = [1, 25, 1]
    k = 400
    x = np.zeros((k, 27, 1))
    x[:, 1:26] = 1.0
    weights = np.where(np.arange(k)[:, None] % 2, rng.uniform(0.125, 1.0, (k, 25)), 1.0)
    spread = np.where(np.arange(k)[:, None] < k // 2, 1e-6 * np.sqrt(lam) * KKT_TOL, 2.0**-40 * 6 * lam)
    t = (KKT_TOL + rng.uniform(-1.0, 1.0, (k, 1)) * spread) / 5
    grad = np.zeros_like(x)
    grad[:, 1:26, 0] = -(lam * weights / weights.sum(axis=1, keepdims=True) + t)
    grad[:, [0, 26], 0] = rng.uniform(-lam, lam, (k, 2))  # zero entries inside the dual ball
    unmeasured = assert_floor_sound(row_sizes, x, grad, lam)
    assert 0 < unmeasured < k


@st.composite
def near_solutions(draw):
    """(row_sizes, x, grad, lam): each block's gradient is minus lam times a
    valid subgradient, t further out on every entry, so its distance is at
    most sqrt(P) t and its l1 excess P t, with t from KKT_TOL / 16 to KKT_TOL."""
    row_sizes, x, _ = draw(st.one_of(stacks(), one_entry_and_mixed_stacks))
    lam = draw(st.sampled_from([0.5, 1.0, 3.0]))
    t = draw(st.floats(KKT_TOL / 16, KKT_TOL))
    weights = draw(arrays(np.float64, x.shape, elements=st.floats(0.125, 1.0)))
    sign = np.where(x < 0, -1.0, 1.0)
    grad = np.empty_like(x)
    for rows in np.split(np.arange(x.shape[1]), np.cumsum(row_sizes)[:-1]):
        a = np.abs(x[:, rows])
        top = a.max(axis=(1, 2), keepdims=True)
        w = np.where((a == top) | (top == 0.0), weights[:, rows], 0.0)  # a zero block: any point of the dual sphere
        grad[:, rows] = -(lam * sign[:, rows] * w / w.sum(axis=(1, 2), keepdims=True) + t * sign[:, rows])
    return row_sizes, x, grad, lam


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=near_solutions())
def test_l1_floor_measures_columns_near_a_solution(case):
    assert_floor_sound(*case)


def test_l1_floor_measures_a_converged_wide_block():
    row_sizes, x, grad = CONVERGED_PLUS_T
    groups = _size_groups(row_sizes)
    value, measured = measured_alone(x, grad, 1.0, groups)
    assert measured
    assert value.tobytes() == _kkt_stack(x, grad.copy(), 1.0, groups).tobytes()
    assert value[0] <= KKT_TOL


@pytest.mark.parametrize("width", [1, 2, 5])
@pytest.mark.parametrize("k", [1, 3, 40])
@pytest.mark.parametrize("rows", [13, 200])
def test_stacked_products_equal_per_column_blas_calls(width, k, rows):
    # The kernel steps the live columns in the first n slots of its buffers;
    # the stacked Gram product and the restart dots' np.vecdot must give every
    # column the value of the one-column solve's np.matmul and np.vdot, bit
    # for bit.  Run at one and at two BLAS threads (OPENBLAS_NUM_THREADS).
    rng = np.random.default_rng(1000 * rows + 10 * k + width)
    G = rng.standard_normal((rows, rows))
    G = G @ G.T / rows
    buf_x, buf_gx, buf_dz = (rng.standard_normal((k + 2, rows, width)) for _ in range(3))
    XN, GXN, DZ = buf_x[:k], buf_gx[:k], buf_dz[:k]
    np.matmul(G, XN, out=GXN)
    values = np.vecdot(DZ.reshape(k, -1), XN.reshape(k, -1))
    for j in range(k):
        assert np.array_equal(GXN[j], np.matmul(G, XN[j]))
        assert values[j] == np.vdot(DZ[j], XN[j])


def test_every_step_takes_its_restart_dots_from_the_stacked_product(monkeypatch):
    # On the kernel's own data, each step's restart dots are np.vdot's values.
    rng = np.random.default_rng(5)
    X = rng.standard_normal((60, 12))
    G = X.T @ X / 60
    c = X.T @ rng.standard_normal((60, 12)) / 60
    groups = _size_groups([2, 1, 2, 1, 3, 3])
    calls = []
    vecdot = np.vecdot

    def recording(a, b):
        values = vecdot(a, b)
        calls.append(a.shape[0])
        assert all(values[j] == np.vdot(a[j], b[j]) for j in range(a.shape[0]))
        return values

    monkeypatch.setattr(np, "vecdot", recording)
    monkeypatch.setattr(solver, "MAX_ITER", 200)
    iterations, _ = solver._lockstep_apg(G, solver._lipschitz(G), 0.05, groups, c, np.arange(12).reshape(4, 3))
    assert len(calls) == iterations.max() > 0
    assert sorted(calls, reverse=True) == calls and calls[0] == 4


@st.composite
def grid_solves(draw):
    """(G, groups, lam, grid, cols, max_iter): a stack of random grid columns, in random order.

    Each grid column's linear terms take one of three scales, so against the
    weight some stop at step 0, some converge within a few steps and some
    run until ``max_iter``; the live columns then compact out of order.
    """
    row_sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    width = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    n_cols = k * width + draw(st.integers(0, 4))
    order = draw(st.permutations(range(n_cols)))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    rows = sum(row_sizes)
    X = rng.standard_normal((3 * rows, rows))
    grid = rng.standard_normal((rows, n_cols)) * rng.choice([1e-3, 0.3, 3.0], size=n_cols)
    cols = np.array(order[: k * width]).reshape(k, width)
    lam = draw(st.floats(0.02, 0.5))
    return X.T @ X / (3 * rows), _size_groups(row_sizes), lam, grid, cols, draw(st.integers(5, 30))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=grid_solves())
def test_lockstep_writes_each_column_its_one_column_solve_in_place(case):
    # Each solved column of the grid holds its one-column solve bit for bit,
    # with its step count and residual, and no other column of the grid moves.
    G, groups, lam, grid, cols, max_iter = case
    L = solver._lipschitz(G)
    before = grid.copy()
    with mock.patch.object(solver, "MAX_ITER", max_iter):
        iterations, residuals = solver._lockstep_apg(G, L, lam, groups, grid, cols)
        for i, col in enumerate(cols):
            alone = before[:, col]
            its1, resid1 = solver._lockstep_apg(G, L, lam, groups, alone, np.arange(col.size)[None])
            assert grid[:, col].tobytes() == alone.tobytes()
            assert its1[0] == iterations[i] and resid1[0] == residuals[i]
    outside = np.setdiff1d(np.arange(grid.shape[1]), cols)
    assert grid[:, outside].tobytes() == before[:, outside].tobytes()


# Runs of one size (state blocks, then input blocks), or sizes that interleave.
size_lists = st.one_of(
    st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=4).map(
        lambda runs: [p for p, count in runs for _ in range(count)]
    ),
    st.lists(st.integers(1, 4), min_size=1, max_size=10),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sizes=size_lists)
@example(sizes=[3, 3, 3, 2, 2]).via("state blocks of 3 and input blocks of 2")
@example(sizes=[2, 1, 2, 1, 3, 3]).via("interleaved")
def test_size_groups_match_per_block_ranges(sizes):
    # Each size's block ids in order and their scalar rows as per-block
    # ranges, for a list, a tuple and an array; a slice exactly when the
    # rows are contiguous.
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    for given_sizes in (sizes, tuple(sizes), np.asarray(sizes)):
        groups = _size_groups(given_sizes)
        assert [p for p, _, _ in groups] == sorted(set(sizes))
        for p, blocks, rows in groups:
            want_blocks = [b for b, size in enumerate(sizes) if size == p]
            want_rows = block_row_indices_reference(offsets, want_blocks)
            assert type(p) is int and blocks.dtype == np.intp and blocks.tolist() == want_blocks
            contiguous = np.array_equal(want_rows, np.arange(want_rows[0], want_rows[0] + want_rows.size))
            assert isinstance(rows, slice) == contiguous
            if contiguous:
                assert (type(rows.start), type(rows.stop), rows.step) == (int, int, None)
            else:
                assert rows.dtype == np.intp
            assert np.array_equal(np.arange(offsets[-1])[rows], want_rows)
