"""Block-regularized least-squares estimator and diagnostics.

The estimator minimizes, over the stacked parameter ``theta``,

    (1 / 2d) ||Y - X theta||_F^2 + lambda_d * sum_blocks max-abs(block)

which splits into independent subproblems, one per block column.  The
subproblems are solved together by accelerated proximal gradient (momentum
with adaptive restart), block columns of one width stacked and stepped in
lockstep: a step runs one stacked Gram product for the whole stack, every
column's iterates are identical to a solve of that column alone, and a
column that stops writes its estimate into its own columns of the grid.  The
per-block max-abs prox follows from Euclidean projection onto the l1 ball,
which also produces exact zero blocks.  Convergence is certified per column
by the distance of the negative gradient from lambda_d times the
subdifferential of the block norm.  One sort-and-threshold kernel finds
every row's shift; a row of one entry, a unit block in a one-wide column,
takes the sort path's value without the sort, so the prox and the residual
run one code path for every block width.  A column's rows, of one entry or
of up to 256, take their distances only on steps where the l1 bound does
not already prove it unconverged: a block's l1 excess over lambda_d, over
the root of its entry count, never exceeds its distance, so a column the
bound puts above the tolerance, with a margin for rounding, cannot stop,
and every column that can stop is measured exactly.  The steps at which
columns stop, their residuals and the estimate keep every bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockPartition, BlockSupport, _check_grid, _finite_rows, _real_value, support_pattern
from .lti import TrajectoryBatch

_SENTINEL = -np.inf

# Relative tolerance for treating entries as tied with the block max-abs when
# measuring the distance to the subdifferential.  Iterates only approach exact
# ties in the limit, so a tolerance of zero would make the stationarity
# residual discontinuous at solutions whose blocks have several max entries;
# with the tolerance, a small residual certifies approximate optimality of a
# point within TIE_RTOL * max-abs (elementwise) of the iterate.
TIE_RTOL = 1e-6

# The stopping rule: a column stops at a residual of at most KKT_TOL, or unconverged after MAX_ITER steps.
KKT_TOL = 1e-7
MAX_ITER = 50_000

# Rows of 1 to this many entries may floor a column's residual by their l1
# excess, for which _kkt_stack proves that the floor never stops a column.
_FLOOR_ENTRIES = 256


class LeastSquaresUndefined(ValueError):
    """Raised when the plain least-squares estimate does not exist uniquely."""


@dataclass(frozen=True)
class EstimatorConfig:
    """The estimator's weight ``lambda_d`` and column scaling; ``KKT_TOL`` and ``MAX_ITER`` stop the solve.

    With ``standardize`` the design columns are scaled to unit sample
    standard deviation before solving and the estimate is mapped back, so
    the penalty acts scale-equivariantly per column.  This mirrors the
    default behavior of mainstream lasso routines and is what benchmark
    recovery thresholds are calibrated against; leave it off to minimize
    the plain objective exactly as written.
    """

    lambda_d: float
    standardize: bool = False

    def __post_init__(self):
        if not np.isfinite(_real_value("lambda_d", self.lambda_d)) or self.lambda_d < 0:
            raise ValueError("lambda_d must be finite and nonnegative")
        if not isinstance(self.standardize, bool):
            raise ValueError(f"standardize must be true or false, got {self.standardize!r}")


@dataclass(frozen=True, eq=False)
class EstimateResult:
    """Estimate, recovered block support, and solver diagnostics."""

    theta_hat: np.ndarray
    support: BlockSupport
    kkt_residual: float
    iterations: np.ndarray
    converged: bool


@dataclass(frozen=True, eq=False)
class PdwReport:
    """Dual-witness block norms on the off-support, per block column."""

    dual_norms: list
    success: bool
    gamma_margin: float


# ---------------------------------------------------------------------------
# proximal machinery


def project_l1_ball(v, radius: float) -> np.ndarray:
    """Euclidean projection of a vector onto the l1 ball of the given radius.

    Sort-and-threshold; ties are resolved by index order through the stable
    sort, and interior points are returned unchanged.
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError("expected a 1-D vector")
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    theta = _l1_thresholds(a[None], radius)[0]
    return np.sign(v) * np.maximum(a - theta, 0.0)


def prox_linf(v, tau: float) -> np.ndarray:
    """Prox of ``tau * max-abs`` at v, via v - project_l1_ball(v, tau).

    The output is exactly zero iff the l1 norm of v is at most tau.
    """
    if not tau >= 0:
        raise ValueError("tau must be nonnegative")
    v = np.asarray(v, dtype=float)
    if tau == 0:
        return v.copy()
    return v - project_l1_ball(v, tau)


def _l1_thresholds(a: np.ndarray, radius: float) -> np.ndarray:
    """Per-row shift of the sort-and-threshold projection (Duchi et al., 2008).

    Subtracting the shift and clipping at zero projects a row of ``a`` onto
    the simplex scaled to ``radius``; for the absolute values of a vector
    outside the l1 ball of that radius, it is the soft-threshold level of
    the ball projection.  Entries at ``_SENTINEL`` never enter the support.
    A one-entry row's shift is ``v - radius`` without the sort, the sort
    path's (C_1 - radius) / 1 bit for bit.
    """
    if a.shape[1] == 1:
        return a[:, 0] - radius
    a = np.sort(a, axis=1)[:, ::-1]
    css = np.cumsum(a, axis=1)
    ks = np.arange(1, a.shape[1] + 1)
    rho = np.count_nonzero(a > (css - radius) / ks, axis=1)
    # No entry passes when radius is below the rounding error of the largest
    # one; rho = 1 then makes that entry the shift instead of dividing by 0.
    np.maximum(rho, 1, out=rho)
    rows = np.arange(a.shape[0])
    return (css[rows, rho - 1] - radius) / rho


def _prox_rows(V: np.ndarray, tau: float, out: np.ndarray) -> np.ndarray:
    """Row-wise prox of ``tau * max-abs`` into ``out``, apart from V; rows in the l1 ball go to 0."""
    if tau == 0:
        np.copyto(out, V)
        return out
    a = np.abs(V, out=out)
    # numpy's pairwise sum decides which blocks are exact zeros; another order moves bits
    outside = np.flatnonzero(a.sum(axis=1) > tau)
    ao = a[outside]
    out.fill(0.0)
    if outside.size:
        Vo = V[outside]
        theta = _l1_thresholds(ao, tau)
        out[outside] = Vo - np.sign(Vo) * np.maximum(ao - theta[:, None], 0.0)
    return out


# ---------------------------------------------------------------------------
# column subproblems, solved in lockstep


def _size_groups(sizes) -> list[tuple[int, np.ndarray, np.ndarray | slice]]:
    """Group blocks by size, smallest first: (size, block ids, flat indices).

    The flat indices are a slice when the blocks of one size are adjacent.
    Indexing a (k, rows, width) stack with that slice gives a view only when
    the group spans every row of the stack; otherwise ``_block_rows`` returns
    a copy, which ``_prox_stack`` writes back.
    """
    sizes = np.asarray(sizes)
    groups = []
    for p in sorted(set(sizes.tolist())):
        blocks = np.flatnonzero(sizes == p)
        rows = np.flatnonzero(np.repeat(sizes == p, sizes))
        if rows[-1] - rows[0] + 1 == rows.size:
            rows = slice(int(rows[0]), int(rows[-1]) + 1)
        groups.append((p, blocks, rows))
    return groups


def _stack(mat: np.ndarray, cols, width: int) -> np.ndarray:
    """Gather block columns of one width into a contiguous (k, rows, width) stack."""
    sub = mat[:, cols]
    return np.ascontiguousarray(sub.reshape(mat.shape[0], -1, width).transpose(1, 0, 2))


def _block_rows(stack: np.ndarray, rows, p: int) -> np.ndarray:
    """One size group's (column, block) rows, blocks flattened; a view if they span the stack."""
    return stack[:, rows].reshape(-1, p * stack.shape[2])


def _prox_stack(V: np.ndarray, tau: float, groups, out: np.ndarray) -> None:
    for p, _, rows in groups:
        dst = _prox_rows(_block_rows(V, rows, p), tau, out=_block_rows(out, rows, p))
        if not np.may_share_memory(dst, out):  # a copy, not a view of out
            out[:, rows] = dst.reshape(out.shape[0], -1, out.shape[2])


def _kkt_stack(x: np.ndarray, grad: np.ndarray, lam: float, groups, floor: bool = False) -> np.ndarray:
    """Per-column distance of the negative gradient from lam times the block-norm subdifferential.

    ``x`` and ``grad`` are (k, rows, width) stacks; ``grad`` is scratch.
    Zero blocks contribute their l1 excess ``e = max(|g|_1 - lam, 0)`` over
    the dual ball of radius lam; nonzero blocks contribute the Euclidean
    distance to lam times the set of valid subgradients (signed simplex
    weights on the max-abs entries).  Everything is in gradient units and
    nothing is divided by lam, so a tiny lam cannot overflow; a distance
    whose squares overflow, as at a huge lam, is measured again scaled by its
    largest term.  Each column gets the max over its blocks; for lam = 0 it
    is the plain gradient max-abs.

    With ``floor``, each size group of blocks of P = p * width entries,
    P <= ``_FLOOR_ENTRIES``, bounds its columns once: with M a column's
    largest block |g|_1 in the group, a column with ``(M - lam) / sqrt(P) >
    KKT_TOL + 2**-40 * (M + lam)`` in some group gets the largest such bound
    as its value, and none of its rows is measured.  Such a column cannot
    stop, and every other column's value is the exact one, bit for bit.
    Both sides of the test grow with M, so it holds for the column's block
    of largest l1 if for any.  Proof: every valid subgradient u has
    |u|_1 = lam, so |g + u|_2 >= |g + u|_1 / sqrt(P) >= (|g|_1 - lam) /
    sqrt(P), and a zero block's value is e.  For P = 1 that bound is a zero
    entry's value by the same ops, and at most |r - y| = |g sign(th) + lam|
    for a nonzero one, the kernel's shift being r - lam and so y = r - (r -
    lam) being lam to within 2 u0 (s + lam).
    In rounding (u0 = 2**-53, to first order, s the floor's |g|_1, summed in
    any order): each sum of |g| errs by at most (P - 1) u0 s, which the
    margin covers many times for a zero block's e.  The sort path's tests
    and shift (C_k - lam) / k, C_k the sum of the top k, err by at most
    2 u0 (s + lam); a count that falls short leaves each later entry within
    4 u0 (s + lam) of the shift, and one that overshoots keeps the shift
    within P u0 (s + lam) of the exact one, as its last passing entry
    bounds the entries it took, so the kernel's weights sum to at most
    lam + (P + 1)**2 u0 (s + lam).  Its squares, sums and root lose at most
    (P + 3) u0 relative, the floor's own ops 7 u0.  So the measured distance
    would exceed KKT_TOL by (s + lam) u0 (2**13 - (P**2 + 4 P + 10) / sqrt(P))
    or more, which leaves half the margin for higher-order terms at
    P = 256; at P = 1 the subtracted term is 15.  The test implies
    s > 1e-7, so underflow, at most P * 2**-1074, cannot matter; a sum that
    overflows fails the test, and a distance that overflows is inf or NaN,
    which stops no column either.
    """
    k = x.shape[0]
    if lam == 0:
        return np.abs(grad, out=grad).reshape(k, -1).max(axis=1, initial=0.0)
    worst = np.zeros(k)  # the floor's bounds first, then the live columns' distances
    row_sets = []
    for p, _, rows in groups:
        Th = _block_rows(x, rows, p)
        Qm = _block_rows(grad, rows, p)
        P = Th.shape[1]
        if floor and P <= _FLOOR_ENTRIES:
            # each column's largest l1; einsum is faster than .sum(axis=1), and any order keeps the proof
            l1 = np.abs(Qm) if P == 1 else np.einsum("ij->i", np.abs(Qm))
            M = l1.reshape(k, -1).max(axis=1)
            b = np.maximum(M - lam, 0.0) / np.sqrt(P)
            np.maximum(worst, np.where(b > KKT_TOL + 2.0**-40 * (M + lam), b, 0.0), out=worst)
        row_sets.append((Th, Qm))
    live = np.flatnonzero(worst == 0.0)
    if live.size == 0:
        return worst
    for Th, Qm in row_sets:
        if live.size < k:  # the live columns' rows only
            Th, Qm = (a.reshape(k, -1, a.shape[1])[live].reshape(-1, a.shape[1]) for a in (Th, Qm))
        per_row = _kkt_rows(Th, Qm, lam)
        worst[live] = np.maximum(worst[live], per_row.reshape(live.size, -1).max(axis=1))
    return worst


def _kkt_rows(Th: np.ndarray, Qm: np.ndarray, lam: float) -> np.ndarray:
    """:func:`_kkt_stack`'s distances for rows of one size, ``Qm`` as scratch.

    Zero rows give their l1 excess; nonzero rows take the distance by
    projecting onto the simplex of radius lam over their max entries.
    """
    nz = np.flatnonzero(Th.any(axis=1))
    Thn = Th[nz]
    Qn = np.negative(Qm[nz])
    per_row = np.abs(Qm, out=Qm).sum(axis=1)
    per_row -= lam
    np.maximum(per_row, 0.0, out=per_row)
    an = np.abs(Thn)
    on_max = an >= ((1.0 - TIE_RTOL) * an.max(axis=1))[:, None]
    r = np.where(on_max, Qn * np.sign(Thn), _SENTINEL)
    # projection onto the simplex of radius lam over the max entries
    y = np.maximum(r - _l1_thresholds(r, lam)[:, None], 0.0)
    with np.errstate(over="ignore"):  # past ~1e154 the squares overflow; rescaled below
        dist2 = (np.where(on_max, 0.0, Qn) ** 2).sum(axis=1)
        dist2 += (np.where(on_max, r - y, 0.0) ** 2).sum(axis=1)
    per_row[nz] = np.sqrt(dist2)
    big = ~np.isfinite(dist2)
    if big.any():
        terms = np.abs(np.where(on_max[big], r[big] - y[big], Qn[big]))
        top = terms.max(axis=1)
        with np.errstate(invalid="ignore"):  # inf / inf: a row with an infinite term is inf away
            scaled = top * np.sqrt(((terms / top[:, None]) ** 2).sum(axis=1))
        per_row[nz[big]] = np.where(np.isinf(top), top, scaled)
    return per_row


def _lockstep_apg(
    Gmat: np.ndarray, L: float, lam: float, groups, grid: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Accelerated proximal gradient with adaptive restart on a stack of block columns, in place.

    ``cols`` is a (k, width) array of ``grid``'s scalar columns, one block
    column per row; ``grid`` holds their linear terms, and a column that
    stops writes its estimate into its own columns of the grid.  A step runs
    over the whole stack: one stacked product with ``Gmat`` and one
    ``np.vecdot`` of restart dots, whose loops make a one-column solve's BLAS
    calls per column (``np.vdot``'s ``ddot`` for a dot), so each column's
    iterates are a one-column solve's bit for bit.
    ``lam`` is the weight, already checked.  A column stops when its
    residual reaches ``KKT_TOL`` or after ``MAX_ITER`` steps.  The residuals
    take :func:`_kkt_stack`'s l1 floor on every step but the one that
    reaches ``MAX_ITER``; a floored column cannot stop, so each column stops
    on a measured residual at the step the exact one gives, and records it.
    Returns the step counts and the residuals.
    """
    k, width = cols.shape
    c = _stack(grid, cols, width)
    iterations = np.zeros(k, dtype=int)
    residuals = np.empty(k)
    live = np.arange(k)  # live[i]: the row of cols that slot i steps
    t = np.ones(k)
    # The step buffers are one block reused in place, so steps do not churn
    # the heap and the block is freed whole; six separate ones split the
    # heap's free space, and sweep_agents peaked 3 MB higher.
    x, z, gx, gz, x_new, gx_new = np.zeros((6,) + c.shape)
    n = k
    it = 0
    while True:
        # gx_new holds no live value here: it is the residual's scratch
        resid = _kkt_stack(x[:n], np.subtract(gx[:n], c[:n], out=gx_new[:n]), lam, groups, floor=it < MAX_ITER)
        done = resid <= KKT_TOL
        if it == MAX_ITER:
            done[:] = True
        if done.any():
            iterations[live[done]] = it
            residuals[live[done]] = resid[done]
            grid[:, cols[live[done]]] = x[:n][done].transpose(1, 0, 2)
            keep = ~done
            m = int(keep.sum())
            if m == 0:
                return iterations, residuals
            for buf in (c, x, z, gx, gz):
                buf[:m] = buf[:n][keep]
            n, t, live = m, t[keep], live[keep]
        it += 1
        C, X, Z, GX, GZ, XN, GXN = (a[:n] for a in (c, x, z, gx, gz, x_new, gx_new))
        GZ -= C  # gradient at z, in gz's buffer
        GZ /= L
        _prox_stack(np.subtract(Z, GZ, out=GZ), lam / L, groups, out=XN)
        np.matmul(Gmat, XN, out=GXN)
        dz = np.subtract(Z, XN, out=Z)
        dx = np.subtract(XN, X, out=X)
        restart = np.vecdot(dz.reshape(n, -1), dx.reshape(n, -1)) > 0  # momentum points uphill
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = ((t - 1.0) / t_next)[:, None, None]
        np.multiply(beta, dx, out=X)  # next z, in x's buffer
        X += XN
        np.multiply(1.0 + beta, GXN, out=GZ)  # next gz, back in gz's buffer
        GZ -= np.multiply(beta, GX, out=GX)
        if restart.any():
            np.copyto(X, XN, where=restart[:, None, None])
            np.copyto(GZ, GXN, where=restart[:, None, None])
        t = np.where(restart, 1.0, t_next)
        x, z, x_new = x_new, x, z
        gx, gx_new = gx_new, gx


def _stack_cap(rows: int, width: int, d: int, n: int) -> int:
    """Most block columns one lockstep stack may hold.

    A step of :func:`_lockstep_apg` holds seven stacks, the input included,
    and with the prox and residual temporaries a solve peaks at about nine
    stacks' worth.  A stack may take a tenth of the room of a d x rows design
    and two d x n residuals, which a column-by-column solve held and a
    standardized solve frees before it builds the stacks, and at least
    64 KiB, which keeps one-wide columns at 40 per stack on small designs.
    """
    col = 8 * rows * width
    return max(1, 2**16 // col, 8 * d * (rows + 2 * n) // (10 * col))


def _lipschitz(G: np.ndarray) -> float:
    """Step-size constant: the largest eigenvalue of the Gram matrix, or 1 if it is not positive."""
    top = float(np.linalg.eigvalsh(G)[-1])
    return top if top > 0.0 else 1.0


def _check_batch(batch: TrajectoryBatch, partition: BlockPartition) -> None:
    if batch.X.shape[1] != sum(partition.row_sizes):
        raise ValueError(
            f"design has {batch.X.shape[1]} columns, partition expects {sum(partition.row_sizes)}"
        )
    if batch.Y.shape[1] != partition.n:
        raise ValueError(f"observation has {batch.Y.shape[1]} columns, partition expects {partition.n}")


def solve_block_regularized(
    batch: TrajectoryBatch, partition: BlockPartition, config: EstimatorConfig
) -> EstimateResult:
    """Solve the block-regularized least-squares problem, block columns in lockstep.

    Each block column is an independent subproblem.  Columns of one width
    are stacked and stepped together by :func:`_lockstep_apg`: the columns
    of a width split into the fewest stacks of at most :func:`_stack_cap`,
    their sizes differing by at most one, and each column's estimate and
    step count are bit-identical to those of solving it alone.  When the
    config standardizes, the reported kkt_residual certifies the
    column-scaled problem that was actually solved.
    """
    _check_batch(batch, partition)
    d = batch.d
    X = batch.X
    scale = None
    if config.standardize:
        scale = X.std(axis=0)
        scale[scale == 0.0] = 1.0
        X = X / scale
    G = X.T @ X
    G /= d
    co = np.asarray(partition.col_offsets)
    # theta holds the linear terms X^T Y / d until the solve overwrites them
    theta = np.empty(partition.shape)
    for j in range(partition.n_col_blocks):
        cols = slice(co[j], co[j + 1])
        # per-column product, so a one-column solve runs bit-identical ops
        theta[:, cols] = X.T @ np.ascontiguousarray(batch.Y[:, cols]) / d
    del X  # drops the standardized copy before the stacks are built
    L = _lipschitz(G)

    row_groups = _size_groups(partition.row_sizes)
    iterations = np.zeros(partition.n_col_blocks, dtype=int)
    residuals = np.zeros(partition.n_col_blocks)
    for width, blocks, _ in _size_groups(partition.col_sizes):
        cap = _stack_cap(theta.shape[0], width, d, partition.n)
        for chunk in np.array_split(blocks, -(-blocks.size // cap)):
            cols = co[chunk][:, None] + np.arange(width)
            iterations[chunk], residuals[chunk] = _lockstep_apg(G, L, config.lambda_d, row_groups, theta, cols)
    del G
    if scale is not None:
        theta /= scale[:, None]
    return EstimateResult(
        theta_hat=theta,
        support=support_pattern(theta, partition),
        kkt_residual=float(residuals.max()),
        iterations=iterations,
        converged=bool((residuals <= KKT_TOL).all()),
    )


def solve_least_squares(batch: TrajectoryBatch) -> np.ndarray:
    """Plain least-squares estimate via an orthogonal factorization.

    Raises :class:`LeastSquaresUndefined` when d < n+m or the design is
    rank-deficient, in which case the minimizer is not unique.
    """
    d, p = batch.X.shape
    if d < p:
        raise LeastSquaresUndefined(f"least squares undefined: d={d} < n+m={p}")
    theta, _, rank, _ = np.linalg.lstsq(batch.X, batch.Y, rcond=None)
    if rank < p:
        raise LeastSquaresUndefined(f"least squares undefined: design rank {rank} < {p}")
    return theta


def kkt_residual(
    theta: np.ndarray, batch: TrajectoryBatch, partition: BlockPartition, lambda_d: float
) -> float:
    """Stationarity residual of the block-regularized objective at theta."""
    EstimatorConfig(lambda_d)  # a negative or non-finite weight is rejected by name
    _check_batch(batch, partition)
    theta = _check_grid(theta, partition)
    _finite_rows("theta", theta)
    grad = batch.X.T @ (batch.X @ theta - batch.Y) / batch.d
    row_groups = _size_groups(partition.row_sizes)
    worst = 0.0
    for width, _, cols in _size_groups(partition.col_sizes):
        per_col = _kkt_stack(_stack(theta, cols, width), _stack(grad, cols, width), lambda_d, row_groups)
        worst = max(worst, float(per_col.max()))
    return worst


def pdw_check(
    batch: TrajectoryBatch,
    partition: BlockPartition,
    lambda_d: float,
    true_support: BlockSupport,
) -> PdwReport:
    """Primal-dual witness diagnostic against an oracle support.

    Per block column, solve the problem restricted to the supported blocks
    and pad the solution with zero off-support blocks.  The witness dual is
    the scaled negative gradient ``X^T (Y - X theta) / (d lambda_d)`` of the
    full problem at the padded solution: on the support it is the
    subgradient the restricted solve certifies, and the report gives the l1
    norm of each off-support block.  Success requires all of them strictly
    below one, i.e. the padded solution satisfies the full problem's
    optimality conditions strictly off the support.  Only X and Y are read;
    the check runs on the batch exactly as given, so standardize the batch
    beforehand to certify the column-scaled protocol.
    """
    _check_batch(batch, partition)
    if not true_support.matches(partition):
        raise ValueError("support mask shape does not match the partition")
    if not 0 < _real_value("lambda_d", lambda_d) < np.inf:
        raise ValueError(f"witness undefined: needs a positive, finite lambda_d, got {lambda_d!r}")

    X, d, co = batch.X, batch.d, partition.col_offsets
    row_sizes = np.asarray(partition.row_sizes)
    theta = np.zeros(partition.shape)
    for j, on_blocks in enumerate(true_support.mask.T):
        if not on_blocks.any():
            continue
        cols = slice(co[j], co[j + 1])
        idx_on = np.flatnonzero(np.repeat(on_blocks, row_sizes))
        X_on = X[:, idx_on]
        G_on = X_on.T @ X_on
        try:
            np.linalg.cholesky(G_on)
        except np.linalg.LinAlgError:
            raise ValueError(
                f"witness undefined: restricted design rank-deficient in block column {j + 1}"
            ) from None
        G_on /= d
        c_on = X_on.T @ batch.Y[:, cols] / d
        groups = _size_groups(row_sizes[on_blocks])
        _, resid = _lockstep_apg(G_on, _lipschitz(G_on), lambda_d, groups, c_on, np.arange(c_on.shape[1])[None])
        if not resid[0] <= KKT_TOL:
            raise ValueError(
                f"witness undefined: restricted solve did not converge in block column {j + 1}"
            )
        theta[idx_on, cols] = c_on

    Q = X.T @ (batch.Y - X @ theta) / (d * lambda_d)
    l1 = np.add.reduceat(np.abs(Q), partition.row_offsets[:-1], axis=0)
    l1 = np.add.reduceat(l1, co[:-1], axis=1)
    dual_norms = [l1[~on_blocks, j] for j, on_blocks in enumerate(true_support.mask.T)]
    worst = float(l1.max(where=~true_support.mask, initial=0.0))
    return PdwReport(dual_norms=dual_norms, success=bool(worst < 1.0), gamma_margin=1.0 - worst)
