"""Independent reference implementations used to pin expected values.

Everything here is deliberately slow and structurally different from the
library code paths it checks: bisection instead of sort-threshold for the
l1 projection, raw subgradient descent instead of proximal iterations for
the estimator, normal equations instead of an orthogonal factorization
for least squares, and one trajectory at a time instead of chunks for the
simulator.  The step-kernel references are the solver's former allocating
kernels, which the in-place ones must match bit for bit.
"""

import numpy as np

from blocksysid.solver import _SENTINEL, TIE_RTOL, _l1_thresholds


def project_l1_sort_scan(v, radius):
    """Brute-force l1 projection: try every sorted prefix as the active set."""
    v = np.asarray(v, dtype=float)
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    theta = None
    for k in range(1, len(v) + 1):
        cand = (u[:k].sum() - radius) / k
        upper = u[k - 1]
        lower = u[k] if k < len(v) else 0.0
        if lower <= cand <= upper:
            theta = cand
            break
    assert theta is not None
    return np.sign(v) * np.maximum(a - theta, 0.0)


def project_l1_bisection(v, radius, tol=1e-14):
    """l1-ball projection via bisection on the soft-threshold level."""
    v = np.asarray(v, dtype=float)
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    lo, hi = 0.0, a.max()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(a - mid, 0.0).sum() > radius:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * max(1.0, a.max()):
            break
    theta = 0.5 * (lo + hi)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def block_norm_reference(theta, row_sizes, col_sizes):
    """Sum of per-block max-abs entries computed by explicit slicing."""
    theta = np.asarray(theta, dtype=float)
    total = 0.0
    r0 = 0
    for rs in row_sizes:
        c0 = 0
        for cs in col_sizes:
            total += np.abs(theta[r0 : r0 + rs, c0 : c0 + cs]).max()
            c0 += cs
        r0 += rs
    return total


def block_subgradient(theta, row_sizes, col_sizes):
    """One valid subgradient of the block norm: uniform weight over max entries."""
    theta = np.asarray(theta, dtype=float)
    g = np.zeros_like(theta)
    r0 = 0
    for rs in row_sizes:
        c0 = 0
        for cs in col_sizes:
            blk = theta[r0 : r0 + rs, c0 : c0 + cs]
            vmax = np.abs(blk).max()
            if vmax > 0:
                on = np.abs(blk) == vmax
                g[r0 : r0 + rs, c0 : c0 + cs] = np.sign(blk) * on / on.sum()
            c0 += cs
        r0 += rs
    return g


def subgradient_minimize(X, Y, lam, row_sizes, col_sizes, iters=400_000):
    """Subgradient descent on the block-regularized objective.

    Uses the strongly-convex step 2/(mu (k+1)) with mu the smallest
    eigenvalue of the scaled Gram matrix, keeping the best iterate by
    objective value.  Slow but independent of any proximal machinery.
    """
    return subgradient_minimize_many([X], [Y], [lam], row_sizes, col_sizes, iters)[0]


def subgradient_minimize_many(Xs, Ys, lams, row_sizes, col_sizes, iters=400_000):
    """``subgradient_minimize`` on several same-shape problems stepped together.

    The problems are stacked along a leading axis; each keeps its own mu,
    step sequence and best iterate, so every problem sees the iterates it
    would see on its own, and the Python loop is paid once for all of them.
    """
    X = np.stack([np.asarray(x, dtype=float) for x in Xs])
    Y = np.stack([np.asarray(y, dtype=float) for y in Ys])
    lam = np.asarray(lams, dtype=float)[:, None, None]
    d = X.shape[1]
    G = np.stack([x.T @ x / d for x in X])
    C = np.stack([x.T @ y / d for x, y in zip(X, Y)])
    mu = np.array([float(np.linalg.eigvalsh(g)[0]) for g in G])
    if (mu <= 0).any():
        raise ValueError("reference oracle needs a strongly convex smooth part")
    mu = mu[:, None, None]
    unit_blocks = all(s == 1 for s in row_sizes) and all(s == 1 for s in col_sizes)

    def norm_part(th):
        if unit_blocks:
            return np.abs(th).sum(axis=(1, 2))
        return np.array([block_norm_reference(t, row_sizes, col_sizes) for t in th])

    def norm_subgradient(th):
        if unit_blocks:
            return np.sign(th)
        return np.stack([block_subgradient(t, row_sizes, col_sizes) for t in th])

    def objective(th):
        r = (Y - X @ th).reshape(len(th), -1)
        return 0.5 / d * np.einsum("ki,ki->k", r, r) + lam[:, 0, 0] * norm_part(th)

    theta = np.zeros((X.shape[0], X.shape[2], Y.shape[2]))
    best = theta.copy()
    best_val = objective(theta)
    for k in range(1, iters + 1):
        g = G @ theta - C + lam * norm_subgradient(theta)
        theta = theta - (2.0 / (mu * (k + 1))) * g
        if k % 50 == 0 or k == iters:
            val = objective(theta)
            better = val < best_val
            best_val[better] = val[better]
            best[better] = theta[better]
    return best


def least_squares_normal_equations(X, Y):
    """Explicit normal-equations solve; numerically worse, structurally different."""
    return np.linalg.solve(X.T @ X, X.T @ Y)


def simulate_batch_reference(model, T, d, seed):
    """(X, Y, W) of ``simulate_batch`` by stepping one trajectory at a time.

    Each step draws m input normals and then n disturbance normals from the
    trajectory's own generator and applies ``x = A x + B u + w`` with 1-D
    matrix-vector products.
    """

    def factor(sigma):
        if sigma.size == 0:
            return sigma.copy()
        evals, vecs = np.linalg.eigh(sigma)
        return vecs * np.sqrt(np.clip(evals, 0.0, None))

    n, m = model.n, model.m
    fac_u, fac_w = factor(model.sigma_u), factor(model.sigma_w)
    A, B = model.A, model.B
    X = np.empty((d, n + m))
    W = np.empty((d, n))
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(d)):
        rng = np.random.default_rng(child)
        x = np.zeros(n)
        for _ in range(T - 1):
            u = fac_u @ rng.standard_normal(m)
            w = fac_w @ rng.standard_normal(n)
            x = A @ x + B @ u + w
        X[i, :n] = x
        X[i, n:] = fac_u @ rng.standard_normal(m)
        W[i] = fac_w @ rng.standard_normal(n)
    Y = X @ np.hstack([A, B]).T + W
    return X, Y, W


def _block_rows_reference(stack, rows, p):
    return stack[:, rows].reshape(-1, p * stack.shape[2])


def prox_rows_reference(V, tau):
    """Row-wise prox of ``tau * max-abs``, gathering the rows outside the l1 ball."""
    if tau == 0:
        return V.copy()
    a = np.abs(V)
    out = np.zeros_like(V)
    outside = a.sum(axis=1) > tau
    if np.any(outside):
        Vo = V[outside]
        ao = a[outside]
        theta = _l1_thresholds(np.sort(ao, axis=1)[:, ::-1], tau)
        out[outside] = Vo - np.sign(Vo) * np.maximum(ao - theta[:, None], 0.0)
    return out


def prox_stack_reference(V, tau, groups):
    """Prox of a (k, rows, width) stack, one size group at a time, into a new array."""
    out = np.empty_like(V)
    for p, _, rows in groups:
        out[:, rows] = prox_rows_reference(_block_rows_reference(V, rows, p), tau).reshape(
            V.shape[0], -1, V.shape[2]
        )
    return out


def kkt_stack_reference(x, grad, lam, groups):
    """Per-column KKT residual of a stack in gradient units, from a full negated copy of the gradient."""
    k = x.shape[0]
    if lam == 0:
        return np.abs(grad).reshape(k, -1).max(axis=1, initial=0.0)
    worst = np.zeros(k)
    Q = np.negative(grad)
    for p, blocks, rows in groups:
        Th = _block_rows_reference(x, rows, p)
        Qm = _block_rows_reference(Q, rows, p)
        vmax = np.abs(Th).max(axis=1)
        zero = vmax == 0.0
        nz = ~zero
        per_row = np.empty(Th.shape[0])
        per_row[zero] = np.maximum(np.abs(Qm[zero]).sum(axis=1) - lam, 0.0)
        Thn = Th[nz]
        Qn = Qm[nz]
        on_max = np.abs(Thn) >= ((1.0 - TIE_RTOL) * vmax[nz])[:, None]
        r = np.where(on_max, Qn * np.sign(Thn), _SENTINEL)
        y = np.maximum(r - _l1_thresholds(np.sort(r, axis=1)[:, ::-1], lam)[:, None], 0.0)
        dist2 = (Qn * Qn * ~on_max).sum(axis=1)
        dist2 += (np.where(on_max, r - y, 0.0) ** 2).sum(axis=1)
        per_row[nz] = np.sqrt(dist2)
        np.maximum(worst, per_row.reshape(k, len(blocks)).max(axis=1), out=worst)
    return worst


def kkt_residual_longdouble(theta, grad, lam, row_sizes, col_sizes):
    """KKT residual in extended precision, block by block, from the gradient at theta.

    Squares of terms past 1e154 stay finite in np.longdouble, so this pins
    the residual at a lambda where float64 squares overflow.  The tie set is
    the solver's, decided in float64.
    """
    lam = np.longdouble(lam)
    ro, co = np.cumsum([0, *row_sizes]), np.cumsum([0, *col_sizes])
    worst = np.longdouble(0)
    for j in range(len(col_sizes)):
        for i in range(len(row_sizes)):
            th = theta[ro[i] : ro[i + 1], co[j] : co[j + 1]].ravel()
            q = -grad[ro[i] : ro[i + 1], co[j] : co[j + 1]].ravel().astype(np.longdouble)
            if not th.any():
                worst = max(worst, max(np.abs(q).sum() - lam, np.longdouble(0)))
                continue
            on_max = np.abs(th) >= (1.0 - TIE_RTOL) * np.abs(th).max()
            r = np.sort(q[on_max] * np.sign(th[on_max]))[::-1]
            css = np.cumsum(r)
            rho = max(1, int(np.count_nonzero(r > (css - lam) / np.arange(1, r.size + 1))))
            y = np.maximum(r - (css[rho - 1] - lam) / rho, 0)
            worst = max(worst, np.sqrt((q[~on_max] ** 2).sum() + ((r - y) ** 2).sum()))
    return worst
