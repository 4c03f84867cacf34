"""LTI system models, benchmark generators, and trajectory simulation.

Dynamics are ``x[t+1] = A x[t] + B u[t] + w[t]`` with Gaussian inputs
``u[t] ~ N(0, sigma_u)`` and disturbances ``w[t] ~ N(0, sigma_w)``.  A batch
of d independent trajectories, each started at x[0] = 0 and run to horizon T,
contributes only its final transition to the regression data: the design row
``[x[T-1]^T u[T-1]^T]``, the observation row ``x[T]^T``, and the last-step
disturbance ``w[T-1]^T``.  Trajectory i draws from the PCG64 stream of
``np.random.SeedSequence(seed).spawn(d)[i]``; the seed words of all d
children come from one vectorized pass of numpy's seed-sequence hash.  The
simulator steps trajectories in chunks sized from a fixed buffer budget for
their normals, in buffers allocated once per call, with batched
matrix-vector products that reproduce the per-trajectory recurrence bit for
bit.  A diagonal noise factor, which every generator has, scales the normals
elementwise, which gives the same bits as its matrix-vector product.
"""

from __future__ import annotations

import csv
import json
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .blocks import BlockPartition

SYMMETRY_TOL = 1e-12
EIG_TOL = 1e-10
# Bytes of standard normals that simulate_batch holds at once; it sets the
# chunk of trajectories stepped together and so the simulator's peak memory.
NORMALS_BUDGET_BYTES = 64 << 10

# numpy's SeedSequence: the seed_seq hash of O'Neill, "PCG: a family of
# simple fast space-efficient statistically good algorithms for random number
# generation" (HMC-CS-2014-0905), with a pool of four 32-bit words.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


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


def _int_value(name: str, value) -> int:
    """An integer; floats and booleans are rejected, not truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _psd_factor(sigma: np.ndarray) -> np.ndarray:
    """Symmetric factor F with F F^T = sigma; tolerates singular covariances."""
    if sigma.size == 0:
        return sigma.copy()
    evals, vecs = np.linalg.eigh(sigma)
    return vecs * np.sqrt(np.clip(evals, 0.0, None))


def _diagonal_column(fac: np.ndarray) -> np.ndarray | None:
    """The diagonal of ``fac`` as an (r, 1) column when every other entry is zero, else None."""
    diag = np.diagonal(fac)
    return diag[:, None] if np.array_equal(fac, np.diag(diag)) else None


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
        return np.hstack([self.A, self.B]).T


@dataclass(frozen=True, eq=False)
class TrajectoryBatch:
    """Last-step regression data of d independent trajectories.

    ``Y = X @ theta_star + W`` holds exactly for the generating model.  ``W``
    is None for batches loaded from external files.  Every entry is finite;
    a batch with a NaN or an infinity is rejected when it is built.
    """

    X: np.ndarray
    Y: np.ndarray
    W: np.ndarray | None = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        Y = np.asarray(self.Y, dtype=float)
        W = None if self.W is None else np.asarray(self.W, dtype=float)
        if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
            raise ValueError("X and Y must be 2-D with one row per trajectory")
        if W is not None and W.shape != Y.shape:
            raise ValueError("W must match the shape of Y")
        for name, arr in (("X", X), ("Y", Y), ("W", W)):
            object.__setattr__(self, name, arr)
            if arr is not None and not np.isfinite(arr).all():
                row = int(np.argmin(np.isfinite(arr).all(axis=1)))
                raise ValueError(f"non-finite value in {name} row {row}")

    @property
    def d(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True, eq=False)
class CovarianceReport:
    """Analytic covariance of one design row, with conditioning diagnostics.

    ``row_cov`` is block-diagonal: the state part equals
    ``input_stack @ kron(I_{T-1}, sigma_u) @ input_stack.T
    + noise_stack @ kron(I_{T-1}, sigma_w) @ noise_stack.T``
    and the input part equals ``sigma_u``.
    """

    row_cov: np.ndarray
    input_stack: np.ndarray = field(repr=False)
    noise_stack: np.ndarray = field(repr=False)
    kappa: float
    lambda_min: float
    lambda_max: float


def _spawned_states(seed: int, d: int) -> np.ndarray:
    """(d, 4) uint64 words of ``SeedSequence(seed).spawn(d)[i].generate_state(4, np.uint64)``.

    Child i hashes the seed's 32-bit words, least significant first and
    zero-padded to the pool size, followed by the spawn key i.  The hash
    constants do not depend on the data, so they are Python ints masked to 32
    bits, and only the words are uint32 arrays: (1,) until the spawn key
    enters, (d,) after, so every child is hashed in the same array pass.
    """
    words = []
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [np.array([w], dtype=np.uint32) for w in words]
    entropy.append(np.arange(d, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(w))

    hash_const = _INIT_B
    state = np.empty((d, 2 * _POOL_SIZE), dtype=np.uint32)
    for k in range(2 * _POOL_SIZE):
        value = pool[k % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state[:, k] = value ^ (value >> 16)
    # uint64 word j is 32-bit words (2j, 2j+1), low word first, as numpy reads them
    return state.view("<u8").astype(np.uint64, copy=False)


class _SpawnedState:
    """One child's precomputed words, for the ``generate_state(4, np.uint64)`` call of PCG64.

    ``simulate_batch`` registers it as a numpy ``ISeedSequence`` when it runs,
    not at import, so importing the package does not load ``numpy.random``.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def simulate_batch(model: SystemModel, T: int, d: int, seed: int) -> TrajectoryBatch:
    """Simulate d independent trajectories and keep only the last transition.

    Trajectory i draws from ``default_rng(SeedSequence(seed).spawn(d)[i])``,
    so the output is bit-reproducible and does not depend on evaluation
    order.  X and W at d are the first d rows of X and W at a larger d; Y is
    not, since ``Y = X @ theta_star + W`` is one matrix product whose bits
    depend on the row count.  ``_spawned_states`` hashes the seed words of all d
    children at once, and numpy's PCG64 seeds itself from them as it would
    from the child.  Within a trajectory the draws are chronological, which
    keeps the stored last-step disturbance independent of everything that
    enters the design row.

    Trajectories run in chunks sized so that the chunk's normals fit in
    ``NORMALS_BUDGET_BYTES``; every buffer is allocated once per call and
    written in place.  Each trajectory fills its T rows of
    ``[u normals, w normals]`` with one draw.  The noise factors are applied
    to all T rows at once and ``B u`` to all T - 1 steps at once, since
    neither depends on x; the loop is then ``A x``, plus ``B u``, plus ``w``,
    in the association order of ``x = A x + B u + w``.  Each matmul runs one
    matrix-vector product per trajectory and step, so the result is bit-equal
    to stepping each trajectory on its own.

    A factor with zero off-diagonal entries is applied as ``diag * z + 0.0``.
    The matrix-vector product sums one nonzero term with exact zeros, which
    gives that term unchanged, or +0 where every term is zero; ``diag * z``
    can give -0 there, and adding +0.0 turns it into +0.  Both factors of
    every generator are diagonal, because ``eigh`` of ``c * I`` returns the
    exact identity; a dense factor, as a loaded model can have, keeps the
    matrix-vector product.
    """
    T, d, seed = (_int_value(name, value) for name, value in (("T", T), ("d", d), ("seed", seed)))
    if T < 2:
        raise ValueError("T must be at least 2 (the state part of the design degenerates)")
    if not 1 <= d <= _MASK32:
        raise ValueError(f"d must lie in [1, 2**32 - 1] (one spawn-key word), got {d}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    n, m = model.n, model.m
    A, B = model.A, model.B

    chunk = min(d, max(1, NORMALS_BUDGET_BYTES // (8 * T * (n + m))))
    # (k, ..., 1) stacks: matmul runs one gemv per trajectory and step, which
    # matches ``M @ v`` bit for bit where a gemm across the chunk would not
    normals = np.empty((chunk, T, n + m))
    u = np.empty((chunk, T, m, 1))
    w = np.empty((chunk, T, n, 1))
    Bu = np.empty((chunk, T - 1, n, 1))
    x = np.empty((chunk, n, 1))
    x_new = np.empty((chunk, n, 1))
    noise = []
    for sigma, out, cols in ((model.sigma_u, u, slice(0, m)), (model.sigma_w, w, slice(m, None))):
        fac = _psd_factor(sigma)
        noise.append((fac, _diagonal_column(fac), out, cols))
    states = _spawned_states(seed, d)
    np.random.bit_generator.ISeedSequence.register(_SpawnedState)
    X = np.empty((d, n + m))
    W = np.empty((d, n))
    for start in range(0, d, chunk):
        k = min(chunk, d - start)
        z = normals[:k]
        for row, words in zip(z, states[start : start + k]):
            np.random.Generator(np.random.PCG64(_SpawnedState(words))).standard_normal(out=row)
        for fac, diag, out, cols in noise:
            if diag is None:
                np.matmul(fac, z[:, :, cols, None], out=out[:k])
            else:
                np.multiply(diag, z[:, :, cols, None], out=out[:k])
                out[:k] += 0.0  # the gemv sums to +0 where diag * z gives -0
        np.matmul(B, u[:k, : T - 1], out=Bu[:k])
        xs, xs_new = x[:k], x_new[:k]
        xs.fill(0.0)
        for t in range(T - 1):
            np.matmul(A, xs, out=xs_new)
            xs_new += Bu[:k, t]
            xs_new += w[:k, t]
            xs, xs_new = xs_new, xs
        rows = slice(start, start + k)
        X[rows, :n] = xs[:, :, 0]
        X[rows, n:] = u[:k, T - 1, :, 0]
        W[rows] = w[:k, T - 1, :, 0]
    # Final transition applied at the matrix level so Y - X theta - W is
    # bitwise zero.
    Y = X @ model.stacked() + W
    return TrajectoryBatch(X=X, Y=Y, W=W)


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
    for P, PB in zip(powers, np.hsplit(input_stack, len(powers))):
        state_cov += PB @ model.sigma_u @ PB.T + P @ model.sigma_w @ P.T
    row_cov = np.zeros((n + m, n + m))
    row_cov[:n, :n] = 0.5 * (state_cov + state_cov.T)
    row_cov[n:, n:] = model.sigma_u

    evals = np.linalg.eigvalsh(row_cov)
    lambda_min, lambda_max = float(evals[0]), float(evals[-1])
    return CovarianceReport(
        row_cov=row_cov,
        input_stack=input_stack,
        noise_stack=noise_stack,
        kappa=eigen_ratio(lambda_min, lambda_max),
        lambda_min=lambda_min,
        lambda_max=lambda_max,
    )


def eigen_ratio(lambda_min: float, lambda_max: float) -> float:
    """lambda_max / lambda_min, or inf when lambda_min <= EIG_TOL * max(lambda_max, 0)."""
    if lambda_min <= EIG_TOL * max(lambda_max, 0.0):
        return float("inf")
    return lambda_max / lambda_min


def condition_number(mat: np.ndarray) -> float:
    """Eigenvalue ratio of a symmetric PSD matrix (inf when singular)."""
    evals = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    return eigen_ratio(float(evals[0]), float(evals[-1]))


def _benchmark_model(A: np.ndarray, B: np.ndarray, partition: BlockPartition) -> SystemModel:
    """The generators' noise model on (A, B): sigma_u = I, sigma_w = 0.5 I."""
    return SystemModel(A, B, np.eye(partition.m), 0.5 * np.eye(partition.n), partition)


def _forward_euler(A_c: np.ndarray, B_c: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Forward-Euler discretization (I + dt A_c, dt B_c) of continuous dynamics (A_c, B_c)."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"sampling time dt must be finite and positive, got {dt!r}")
    return np.eye(A_c.shape[0]) + dt * A_c, dt * B_c


def gen_synthetic(n: int, w: int, seed: int) -> SystemModel:
    """Banded random system with m = n and unit blocks.

    A and B carry unit diagonals and +/-0.3 entries (equiprobable signs) on
    the first w upper and lower diagonals; each row of A additionally gets w
    off-band, off-diagonal entries of +/-0.3 at positions drawn without
    replacement.
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
    return _benchmark_model(A, B, BlockPartition.scalar(n, n))


def gen_mass_spring(N: int, dt: float) -> SystemModel:
    """Path of N unit masses coupled by unit springs, forward-Euler discretized.

    Continuous dynamics have positions stacked above velocities; the spring
    coupling is tridiagonal with -2 on the diagonal and 1 off it.  n = 2N
    states, m = N force inputs, unit blocks.
    """
    if N < 1:
        raise ValueError("need at least one mass")
    S = -2.0 * np.eye(N)
    idx = np.arange(N - 1)
    S[idx, idx + 1] = 1.0
    S[idx + 1, idx] = 1.0
    A_c = np.zeros((2 * N, 2 * N))
    A_c[:N, N:] = np.eye(N)
    A_c[N:, :N] = S
    B_c = np.zeros((2 * N, N))
    B_c[N:, :] = np.eye(N)
    return _benchmark_model(*_forward_euler(A_c, B_c, dt), BlockPartition.scalar(2 * N, N))


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
    [-0.4, -0.3] union [0.3, 0.4].
    """
    if agents < 1:
        raise ValueError("need at least one agent")
    if degree < 0 or degree >= agents:
        raise ValueError(f"degree must lie in [0, {agents - 1}]")
    if state_size < 1 or input_size < 1:
        raise ValueError("agent block sizes must be positive")
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
    partition = BlockPartition.from_block_sizes((state_size,) * agents, (input_size,) * agents)
    return _benchmark_model(*_forward_euler(A_c, B_c, dt), partition)


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
    sigma_u = np.asarray(doc["sigma_u"], dtype=float)
    if sigma_u.shape == (0,):  # a model without inputs writes its 0 x 0 covariance as []
        sigma_u = sigma_u.reshape(0, 0)
    return SystemModel(
        A=np.asarray(doc["A"], dtype=float),
        B=np.asarray(doc["B"], dtype=float),
        sigma_u=sigma_u,
        sigma_w=np.asarray(doc["sigma_w"], dtype=float),
        partition=partition,
    )


def save_model(model: SystemModel, path: str) -> None:
    write_json(model_to_dict(model), path)


def write_json(doc: dict, path: str | None) -> None:
    """Write a document as JSON, indented by two spaces with a final newline; stdout when path is empty."""
    text = json.dumps(doc, indent=2) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


def read_json_object(path: str) -> dict:
    """The JSON object in a file; a syntax error or any other document names the file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: line {err.lineno}: {err.msg}") from err
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return doc


def load_model(path: str) -> SystemModel:
    return model_from_dict(read_json_object(path), source=path)


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
    try:
        return TrajectoryBatch(X=data[:, : n + m], Y=data[:, n + m :])
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
