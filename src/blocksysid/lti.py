"""LTI system models, benchmark generators, and trajectory simulation.

Dynamics are ``x[t+1] = A x[t] + B u[t] + w[t]`` with Gaussian inputs
``u[t] ~ N(0, sigma_u)`` and disturbances ``w[t] ~ N(0, sigma_w)``.  A batch
of d independent trajectories, each started at x[0] = 0 and run to horizon T,
contributes only its final transition to the regression data: the design row
``[x[T-1]^T u[T-1]^T]``, the observation row ``x[T]^T``, and the last-step
disturbance ``w[T-1]^T``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .blocks import BlockPartition

SYMMETRY_TOL = 1e-12
EIG_TOL = 1e-10


def stack_parameters(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Stack (A, B) into the (n+m) x n regression parameter [A B]^T."""
    return np.hstack([A, B]).T


def split_parameters(theta: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`stack_parameters`."""
    return theta[:n].T.copy(), theta[n:].T.copy()


def _check_covariance(sigma: np.ndarray, dim: int, name: str) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}, got {sigma.shape}")
    if sigma.size and np.abs(sigma - sigma.T).max() > SYMMETRY_TOL:
        raise ValueError(f"{name} is not symmetric within {SYMMETRY_TOL}")
    if sigma.size:
        evals = np.linalg.eigvalsh(sigma)
        if evals[0] < -EIG_TOL * max(1.0, evals[-1]):
            raise ValueError(f"{name} has negative eigenvalue {evals[0]:.3e}")
    return sigma


def _psd_factor(sigma: np.ndarray) -> np.ndarray:
    """Symmetric factor F with F F^T = sigma; tolerates singular covariances."""
    if sigma.size == 0:
        return sigma.copy()
    evals, vecs = np.linalg.eigh(sigma)
    return vecs * np.sqrt(np.clip(evals, 0.0, None))


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Ground-truth system (A, B), noise covariances, and block partition."""

    A: np.ndarray
    B: np.ndarray
    sigma_u: np.ndarray
    sigma_w: np.ndarray
    partition: BlockPartition

    def __post_init__(self):
        n, m = self.partition.n, self.partition.m
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        if A.shape != (n, n):
            raise ValueError(f"A must be {n}x{n}, got {A.shape}")
        if B.shape != (n, m):
            raise ValueError(f"B must be {n}x{m}, got {B.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "sigma_u", _check_covariance(self.sigma_u, m, "sigma_u"))
        object.__setattr__(self, "sigma_w", _check_covariance(self.sigma_w, n, "sigma_w"))

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def m(self) -> int:
        return self.partition.m

    def stacked(self) -> np.ndarray:
        """True regression parameter [A B]^T."""
        return stack_parameters(self.A, self.B)


@dataclass(frozen=True, eq=False)
class TrajectoryBatch:
    """Last-step regression data of d independent trajectories.

    ``Y = X @ theta_star + W`` holds exactly for the generating model.  ``W``
    is None for batches loaded from external files; ``T`` records the horizon
    the batch was simulated with, when known.
    """

    X: np.ndarray
    Y: np.ndarray
    W: np.ndarray | None = None
    T: int | None = None
    seed: int | None = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        Y = np.asarray(self.Y, dtype=float)
        if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
            raise ValueError("X and Y must be 2-D with one row per trajectory")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        if self.W is not None:
            W = np.asarray(self.W, dtype=float)
            if W.shape != Y.shape:
                raise ValueError("W must match the shape of Y")
            object.__setattr__(self, "W", W)

    @property
    def d(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True, eq=False)
class CovarianceReport:
    """Analytic covariance of one design row, with conditioning diagnostics.

    ``row_cov`` is block-diagonal: the state part equals
    ``input_stack @ sigma_u @ input_stack.T + noise_stack @ sigma_w @ noise_stack.T``
    and the input part equals ``sigma_u``.
    """

    row_cov: np.ndarray
    input_stack: np.ndarray = field(repr=False)
    noise_stack: np.ndarray = field(repr=False)
    kappa: float
    lambda_min: float
    lambda_max: float
    max_variance: float


def simulate_batch(model: SystemModel, T: int, d: int, seed: int) -> TrajectoryBatch:
    """Simulate d independent trajectories and keep only the last transition.

    Each trajectory draws from its own substream derived from
    ``(seed, trajectory index)``, so the output is bit-reproducible and does
    not depend on evaluation order.  Within a trajectory the draws are
    chronological, which keeps the stored last-step disturbance independent
    of everything that enters the design row.
    """
    if T < 2:
        raise ValueError("T must be at least 2 (the state part of the design degenerates)")
    if d < 1:
        raise ValueError("need at least one trajectory")
    n, m = model.n, model.m
    fac_u = _psd_factor(model.sigma_u)
    fac_w = _psd_factor(model.sigma_w)
    A, B = model.A, model.B

    X = np.empty((d, n + m))
    W = np.empty((d, n))
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(d)):
        rng = np.random.default_rng(child)
        x = np.zeros(n)
        for t in range(T - 1):
            u = fac_u @ rng.standard_normal(m)
            w = fac_w @ rng.standard_normal(n)
            x = A @ x + B @ u + w
        u_last = fac_u @ rng.standard_normal(m)
        w_last = fac_w @ rng.standard_normal(n)
        X[i, :n] = x
        X[i, n:] = u_last
        W[i] = w_last
    # Final transition applied at the matrix level so Y - X theta - W is
    # bitwise zero.
    Y = X @ model.stacked() + W
    return TrajectoryBatch(X=X, Y=Y, W=W, T=T, seed=seed)


def design_covariance(model: SystemModel, T: int) -> CovarianceReport:
    """Analytic covariance of a design row at horizon T.

    The state part is driven by the finite-horizon controllability stacks
    ``[A^{T-2} B ... B]`` (inputs) and ``[A^{T-2} ... I]`` (disturbances).
    """
    if T < 2:
        raise ValueError("T must be at least 2")
    n, m = model.n, model.m
    A = model.A
    # powers A^0 .. A^{T-2}, highest power leftmost in the stacks
    powers = [np.eye(n)]
    for _ in range(T - 2):
        powers.append(A @ powers[-1])
    powers.reverse()
    input_stack = np.hstack([P @ model.B for P in powers])
    noise_stack = np.hstack(powers)

    # the stacked-step covariances are block diagonal, so the quadratic forms
    # reduce to sums over the horizon
    state_cov = np.zeros((n, n))
    for P in powers:
        PB = P @ model.B
        state_cov += PB @ model.sigma_u @ PB.T + P @ model.sigma_w @ P.T
    row_cov = np.zeros((n + m, n + m))
    row_cov[:n, :n] = 0.5 * (state_cov + state_cov.T)
    row_cov[n:, n:] = model.sigma_u

    evals = np.linalg.eigvalsh(row_cov)
    lambda_min, lambda_max = float(evals[0]), float(evals[-1])
    if lambda_min <= EIG_TOL * max(lambda_max, 0.0):
        kappa = float("inf")
    else:
        kappa = lambda_max / lambda_min
    return CovarianceReport(
        row_cov=row_cov,
        input_stack=input_stack,
        noise_stack=noise_stack,
        kappa=kappa,
        lambda_min=lambda_min,
        lambda_max=lambda_max,
        max_variance=float(row_cov.diagonal().max()),
    )


def condition_number(mat: np.ndarray) -> float:
    """Eigenvalue ratio of a symmetric PSD matrix (inf when singular)."""
    evals = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    if evals[0] <= EIG_TOL * max(evals[-1], 0.0):
        return float("inf")
    return float(evals[-1] / evals[0])


def gen_synthetic(n: int, w: int, seed: int) -> SystemModel:
    """Banded random system with m = n and unit blocks.

    A and B carry unit diagonals and +/-0.3 entries (equiprobable signs) on
    the first w upper and lower diagonals; each row of A additionally gets w
    off-band, off-diagonal entries of +/-0.3 at positions drawn without
    replacement.  sigma_u = I, sigma_w = 0.5 I.
    """
    if w < 0:
        raise ValueError("band width must be nonnegative")
    if n < 2 * w + 1:
        raise ValueError(f"n={n} too small for band width w={w}: need n >= {2 * w + 1}")
    rng = np.random.default_rng(seed)
    A = np.eye(n)
    B = np.eye(n)
    for off in range(1, w + 1):
        idx = np.arange(n - off)
        for mat in (A, B):
            mat[idx, idx + off] = rng.choice((0.3, -0.3), size=n - off)
            mat[idx + off, idx] = rng.choice((0.3, -0.3), size=n - off)
    cols = np.arange(n)
    for i in range(n):
        candidates = cols[np.abs(cols - i) > w]
        if candidates.size < w:
            raise ValueError(f"n={n} too small for the band plus {w} extra entries per row")
        if w:
            picked = rng.choice(candidates, size=w, replace=False)
            A[i, picked] = rng.choice((0.3, -0.3), size=w)
    return SystemModel(
        A=A,
        B=B,
        sigma_u=np.eye(n),
        sigma_w=0.5 * np.eye(n),
        partition=BlockPartition.scalar(n, n),
    )


def gen_mass_spring(N: int, dt: float) -> SystemModel:
    """Path of N unit masses coupled by unit springs, forward-Euler discretized.

    Continuous dynamics have positions stacked above velocities; the spring
    coupling is tridiagonal with -2 on the diagonal and 1 off it.  n = 2N
    states, m = N force inputs, sigma_u = I, sigma_w = 0.5 I, unit blocks.
    """
    if N < 1:
        raise ValueError("need at least one mass")
    if dt <= 0:
        raise ValueError("sampling time must be positive")
    S = -2.0 * np.eye(N)
    idx = np.arange(N - 1)
    S[idx, idx + 1] = 1.0
    S[idx + 1, idx] = 1.0
    A_c = np.zeros((2 * N, 2 * N))
    A_c[:N, N:] = np.eye(N)
    A_c[N:, :N] = S
    B_c = np.zeros((2 * N, N))
    B_c[N:, :] = np.eye(N)
    A = np.eye(2 * N) + dt * A_c
    B = dt * B_c
    return SystemModel(
        A=A,
        B=B,
        sigma_u=np.eye(N),
        sigma_w=0.5 * np.eye(2 * N),
        partition=BlockPartition.scalar(2 * N, N),
    )


def gen_multi_agent(
    agents: int,
    degree: int,
    state_size: int,
    input_size: int,
    dt: float,
    seed: int,
) -> SystemModel:
    """Network of agents on a random directed graph, forward-Euler discretized.

    Each agent's continuous dynamics couple to its own block plus ``degree``
    distinct neighbors, sampled uniformly; the same neighbor set populates
    both A and B.  Populated block entries are drawn uniformly from
    [-0.4, -0.3] union [0.3, 0.4].  sigma_u = I, sigma_w = 0.5 I.
    """
    if agents < 1:
        raise ValueError("need at least one agent")
    if degree < 0 or degree >= agents:
        raise ValueError(f"degree must lie in [0, {agents - 1}]")
    if state_size < 1 or input_size < 1:
        raise ValueError("agent block sizes must be positive")
    if dt <= 0:
        raise ValueError("sampling time must be positive")
    rng = np.random.default_rng(seed)
    n = agents * state_size
    m = agents * input_size
    A_c = np.zeros((n, n))
    B_c = np.zeros((n, m))

    def signed_uniform(shape):
        return rng.uniform(0.3, 0.4, size=shape) * rng.choice((1.0, -1.0), size=shape)

    others = np.arange(agents)
    for a in range(agents):
        neighbors = rng.choice(others[others != a], size=degree, replace=False)
        rows = slice(a * state_size, (a + 1) * state_size)
        for b in [a] + sorted(int(x) for x in neighbors):
            A_c[rows, b * state_size : (b + 1) * state_size] = signed_uniform(
                (state_size, state_size)
            )
            B_c[rows, b * input_size : (b + 1) * input_size] = signed_uniform(
                (state_size, input_size)
            )
    A = np.eye(n) + dt * A_c
    B = dt * B_c
    return SystemModel(
        A=A,
        B=B,
        sigma_u=np.eye(m),
        sigma_w=0.5 * np.eye(n),
        partition=BlockPartition.from_block_sizes((state_size,) * agents, (input_size,) * agents),
    )


# ---------------------------------------------------------------------------
# file formats


def model_to_dict(model: SystemModel) -> dict:
    return {
        "n": model.n,
        "m": model.m,
        "row_sizes": list(model.partition.row_sizes),
        "col_sizes": list(model.partition.col_sizes),
        "A": model.A.tolist(),
        "B": model.B.tolist(),
        "sigma_u": model.sigma_u.tolist(),
        "sigma_w": model.sigma_w.tolist(),
    }


def model_from_dict(doc: dict, source: str = "model document") -> SystemModel:
    for key in ("n", "m", "row_sizes", "col_sizes", "A", "B", "sigma_u", "sigma_w"):
        if key not in doc:
            raise ValueError(f"{source}: missing field '{key}'")
    partition = BlockPartition(doc["row_sizes"], doc["col_sizes"])
    if partition.n != int(doc["n"]) or partition.m != int(doc["m"]):
        raise ValueError(f"{source}: fields n/m disagree with the block sizes")
    return SystemModel(
        A=np.asarray(doc["A"], dtype=float),
        B=np.asarray(doc["B"], dtype=float),
        sigma_u=np.asarray(doc["sigma_u"], dtype=float),
        sigma_w=np.asarray(doc["sigma_w"], dtype=float),
        partition=partition,
    )


def save_model(model: SystemModel, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path: str) -> SystemModel:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: line {err.lineno}: {err.msg}") from err
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return model_from_dict(doc, source=path)


def save_batch_csv(batch: TrajectoryBatch, path: str) -> None:
    """One row per trajectory: x[T-1] entries, u[T-1] entries, x[T] entries."""
    n = batch.Y.shape[1]
    m = batch.X.shape[1] - n
    header = (
        [f"x_{k}" for k in range(n)]
        + [f"u_{k}" for k in range(m)]
        + [f"y_{k}" for k in range(n)]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(batch.d):
            writer.writerow([repr(float(v)) for v in batch.X[i]] + [repr(float(v)) for v in batch.Y[i]])


def load_batch_csv(path: str) -> TrajectoryBatch:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty batch file") from None
        n = sum(1 for name in header if name.startswith("x_"))
        m = sum(1 for name in header if name.startswith("u_"))
        n_y = sum(1 for name in header if name.startswith("y_"))
        if n == 0 or n_y != n or n + m + n_y != len(header):
            raise ValueError(f"{path}: header does not match the x/u/y batch layout")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}")
            rows.append([float(v) for v in row])
    data = np.asarray(rows, dtype=float)
    if data.size == 0:
        raise ValueError(f"{path}: batch file has no data rows")
    return TrajectoryBatch(X=data[:, : n + m], Y=data[:, n + m :], W=None, T=None, seed=None)
