"""Independent reference implementations used to pin expected values.

Everything here is deliberately slow and structurally different from the
library code paths it checks: bisection instead of sort-threshold for the
l1 projection, raw subgradient descent instead of proximal iterations for
the estimator, normal equations instead of an orthogonal factorization
for least squares, one trajectory at a time instead of chunks for the
simulator, and one simulation per point instead of one per horizon and
seed for the sweep.  The step-kernel references are the solver's former
allocating kernels, which the in-place ones must match bit for bit; they
take each row's shift from their own copy of the sort-and-threshold rule,
which sorts every row, one-entry rows included.
"""

import numpy as np

from blocksysid.blocks import _offsets, support_pattern
from blocksysid.experiments import ExperimentRecord, build_model, estimate
from blocksysid.lti import eigen_ratio, simulate_batch
from blocksysid.metrics import error_norms, mismatch_error, rme, rst
from blocksysid.solver import _SENTINEL, TIE_RTOL, LeastSquaresUndefined
from blocksysid.theory import check_assumptions


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


def block_row_indices_reference(row_offsets, blocks):
    """Scalar row indices of the given row blocks, one range per block, concatenated."""
    ranges = [np.arange(row_offsets[b], row_offsets[b + 1]) for b in blocks]
    return np.concatenate(ranges or [np.empty(0, dtype=int)])


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


def sweep_per_point_reference(config):
    """``run_experiment``'s records, from a model, check and batch made anew for every point.

    Points run in config order, each on ``simulate_batch(model, T, d, seed)``,
    and are scored against the model's own ``stacked()`` through
    ``error_norms``.
    """
    records = []
    for T in config.T_list:
        for d in config.d_list:
            for seed in config.seeds:
                model = build_model(config.generator, seed)
                assume = check_assumptions(model, T)
                batch = simulate_batch(model, T, d, seed)
                truth = support_pattern(model.stacked(), model.partition)
                for estimator in config.estimators:
                    row = dict.fromkeys(("mismatch", "rme", "linf", "op_norm", "normalized_2"))
                    try:
                        theta, support, lam, result = estimate(
                            estimator, batch, model.partition, config.lambda_mode, config.standardize
                        )
                    except LeastSquaresUndefined:
                        row.update(status="undefined", lambda_d=None, converged=None)
                    else:
                        errs = error_norms(theta, model.stacked())
                        mismatch = mismatch_error(support, truth)
                        row.update(
                            status="ok",
                            lambda_d=lam,
                            converged=True if result is None else result.converged,
                            mismatch=mismatch,
                            rme=rme(mismatch, model.partition),
                            linf=errs.linf_elementwise,
                            op_norm=errs.op_norm,
                            normalized_2=errs.normalized_2,
                        )
                    records.append(ExperimentRecord(
                        generator=config.generator["kind"],
                        gen_params={k: v for k, v in config.generator.items() if k != "kind"},
                        n=model.n, m=model.m, T=T, d=d, seed=seed, estimator=estimator,
                        rst=rst(d, model.n, model.m),
                        kappa=eigen_ratio(assume.lambda_min, assume.lambda_max),
                        gamma=assume.gamma,
                        **row,
                    ))
    return records


def l1_thresholds_reference(a, radius):
    """Per-row shift of the sort-and-threshold projection (Duchi et al., 2008), every row sorted."""
    a = np.sort(a, axis=1)[:, ::-1]
    css = np.cumsum(a, axis=1)
    ks = np.arange(1, a.shape[1] + 1)
    rho = np.maximum(np.count_nonzero(a > (css - radius) / ks, axis=1), 1)
    return (css[np.arange(a.shape[0]), rho - 1] - radius) / rho


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
        theta = l1_thresholds_reference(ao, tau)
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
    """Per-column KKT residual of a stack in gradient units, from a full negated copy of the gradient.

    A row whose squares overflow is measured again scaled by its largest term.
    """
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
        y = np.maximum(r - l1_thresholds_reference(r, lam)[:, None], 0.0)
        with np.errstate(over="ignore", invalid="ignore"):  # overflowed rows are measured again
            dist2 = (np.where(on_max, 0.0, Qn) ** 2).sum(axis=1)
            dist2 += (np.where(on_max, r - y, 0.0) ** 2).sum(axis=1)
        per_row[nz] = np.sqrt(dist2)
        big = ~np.isfinite(dist2)
        terms = np.abs(np.where(on_max[big], r[big] - y[big], Qn[big]))
        top = terms.max(axis=1, initial=0.0)
        per_row[np.flatnonzero(nz)[big]] = top * np.sqrt(((terms / top[:, None]) ** 2).sum(axis=1))
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


def mutual_incoherence_reference(sigma_tilde, partition, support):
    """Incoherence margin gamma, one block column at a time from its blocks' scalar indices.

    Per block column, C = Sigma_SS^{-1} Sigma_Sb over the on- and off-support
    rows; each off-support block b takes sum over on-support blocks k of
    max over rows s of k of sum_{r in b} |C_sr|, and gamma is one minus the
    largest.  A singular on-support covariance names its block column.
    """
    sizes = np.asarray(partition.row_sizes)
    worst = 0.0
    for j in range(1, partition.n_col_blocks + 1):
        on_blocks = [b for b in range(partition.n_row_blocks) if support.mask[b, j - 1]]
        off_blocks = [b for b in range(partition.n_row_blocks) if not support.mask[b, j - 1]]
        if not on_blocks or not off_blocks:
            continue
        idx_on = block_row_indices_reference(partition.row_offsets, on_blocks)
        idx_off = block_row_indices_reference(partition.row_offsets, off_blocks)
        on_starts = _offsets(sizes[on_blocks])[:-1]
        off_starts = _offsets(sizes[off_blocks])[:-1]
        try:
            coeffs = np.linalg.solve(
                sigma_tilde[np.ix_(idx_on, idx_on)], sigma_tilde[np.ix_(idx_on, idx_off)]
            )
        except np.linalg.LinAlgError:
            raise ValueError(
                f"incoherence undefined: singular on-support covariance in block column {j}"
            ) from None
        row_l1 = np.add.reduceat(np.abs(coeffs), off_starts, axis=1)
        per_off = np.maximum.reduceat(row_l1, on_starts, axis=0).sum(axis=0)
        worst = max(worst, float(per_off.max()))
    return 1.0 - worst
