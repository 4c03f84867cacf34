"""LTI system models, benchmark generators, and trajectory simulation.

Dynamics are ``x[t+1] = A x[t] + B u[t] + w[t]`` with Gaussian inputs
``u[t] ~ N(0, sigma_u)`` and disturbances ``w[t] ~ N(0, sigma_w)``.  A batch
of d independent trajectories, each started at x[0] = 0 and run to horizon T,
contributes only its final transition to the regression data: the design row
``[x[T-1]^T u[T-1]^T]``, the observation row ``x[T]^T``, and the last-step
disturbance ``w[T-1]^T``.  Trajectory i draws from the PCG64 stream of
``np.random.SeedSequence(seed).spawn(d)[i]``.  Every child starts from the
entropy pool that numpy's ``SeedSequence(seed)`` mixes once; only the
spawn keys and the output stage of the seed-sequence hash run here, and
then numpy's PCG64 seeding, each for all d children in one vectorized
pass.  One PCG64 draws every trajectory of a horizon: the trajectory's
128-bit state and increment are written into that generator's state before
its draw, and read back after it.  The simulator steps trajectories in
chunks sized from one scratch budget for all of a chunk's buffers,
allocated once per call, with batched matrix-vector products that
reproduce the per-trajectory recurrence bit for bit.  A diagonal noise
factor, which every generator has, scales the normals in place, which gives
the same bits as its matrix-vector product.
"""

from __future__ import annotations

import csv
import ctypes
import json
import sys
import types
from dataclasses import dataclass, field

import numpy as np

from .blocks import BlockPartition, _finite_rows, _int_value, _real_value

SYMMETRY_TOL = 1e-12
EIG_TOL = 1e-10
# Bytes of scratch arrays that simulate_batch holds at once, a chunk's
# normals and step vectors together; it sets the chunk of trajectories
# stepped together and so the simulator's memory beyond its outputs.
SCRATCH_BUDGET_BYTES = 256 << 10

# numpy's SeedSequence: the seed_seq hash of O'Neill, "PCG: a family of
# simple fast space-efficient statistically good algorithms for random number
# generation" (HMC-CS-2014-0905), with a pool of four 32-bit words.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# numpy's PCG64 seeding (pcg64_set_seed): the 128-bit LCG multiplier's words
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _float_matrix(name: str, value) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):  # a string, a ragged list, a mapping
        arr = None
    if arr is None or not np.isfinite(arr).all():
        raise ValueError(f"field '{name}' must be a rectangular array of finite numbers")
    return arr


def _check_covariance(sigma: np.ndarray, dim: int, name: str) -> None:
    if sigma.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}, got {sigma.shape}")
    if sigma.size:
        if np.abs(sigma - sigma.T).max() > SYMMETRY_TOL:
            raise ValueError(f"{name} is not symmetric within {SYMMETRY_TOL}")
        evals = np.linalg.eigvalsh(sigma)
        if evals[0] < -EIG_TOL * max(1.0, evals[-1]):
            raise ValueError(f"{name} has negative eigenvalue {evals[0]:.3e}")


def _noise_factor(sigma: np.ndarray) -> np.ndarray:
    """F = V diag(sqrt(lambda)) of ``eigh``, not always symmetric: F F^T = sigma, singular allowed; 1-D if diagonal."""
    evals, vecs = np.linalg.eigh(sigma)
    fac = vecs * np.sqrt(np.clip(evals, 0.0, None))
    diag = np.diagonal(fac)
    return diag if np.array_equal(fac, np.diag(diag)) else fac


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
        for name in ("A", "B", "sigma_u", "sigma_w"):
            object.__setattr__(self, name, _float_matrix(name, getattr(self, name)))
        if self.A.shape != (n, n):
            raise ValueError(f"A must be {n}x{n}, got {self.A.shape}")
        if self.B.shape != (n, m):
            raise ValueError(f"B must be {n}x{m}, got {self.B.shape}")
        _check_covariance(self.sigma_u, m, "sigma_u")
        _check_covariance(self.sigma_w, n, "sigma_w")

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
            if arr is not None:
                _finite_rows(name, arr)

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

    Child i hashes the seed's 32-bit words, zero-padded to the pool size,
    then its spawn key i.  The seed's part is ``SeedSequence(seed).pool``,
    after 16 hashes, four per pool word and twelve to mix the pool, and four
    more for each seed word past the pool size; so only the spawn key and
    the output stage run here.  The hash constants do not depend on the
    data, so they are Python ints masked to 32 bits, and only the words are
    uint32 arrays: (1,) until the spawn key enters, (d,) after, so every
    child is hashed in the same array pass.
    """
    extra_words = max(0, -(-seed.bit_length() // 32) - _POOL_SIZE)
    hash_const = _INIT_A * pow(_MULT_A, 16 + 4 * extra_words, 1 << 32) & _MASK32

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    pool = list(np.random.SeedSequence(seed).pool[:, None])
    key = np.arange(d, dtype=np.uint32)
    for dst in range(_POOL_SIZE):
        pool[dst] = mix(pool[dst], hashmix(key))

    hash_const = _INIT_B
    state = np.empty((d, 2 * _POOL_SIZE), dtype=np.uint32)
    for k in range(2 * _POOL_SIZE):
        value = pool[k % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state[:, k] = value ^ (value >> 16)
    # uint64 word j is 32-bit words (2j, 2j+1), low word first, as numpy reads them
    return state.view("<u8").astype(np.uint64, copy=False)


def _add128(a_hi, a_lo, b_hi, b_lo):
    """(hi, lo) uint64 words of a + b mod 2**128; the low words' sum carries into the high word."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _pcg64_seeded(words: np.ndarray) -> np.ndarray:
    """(d, 2, 2) uint64 ``[[state], [inc]]``, low word first, that numpy's PCG64 seeds from each row of ``words``.

    numpy's ``pcg64_set_seed`` reads initstate = (w0, w1) and initseq =
    (w2, w3), high word first, and sets ``inc = (initseq << 1) | 1`` and
    ``state = ((inc + initstate) * mult + inc) mod 2**128``.  uint64
    products wrap mod 2**64; the high word of the low words' product comes
    from their 32-bit limbs, whose products fit in 64 bits.  The increment
    and the state are written into the result's columns, which keeps few
    d-long temporaries live at once.
    """
    w0, w1, w2, w3 = words.T
    seeded = np.empty((len(words), 2, 2), dtype=np.uint64)
    (state_lo, state_hi), (inc_lo, inc_hi) = np.moveaxis(seeded, 0, -1)
    np.bitwise_or(w2 << 1, w3 >> 63, out=inc_hi)
    np.bitwise_or(w3 << 1, 1, out=inc_lo)
    s_hi, s_lo = _add128(inc_hi, inc_lo, w0, w1)
    a1, a0 = s_lo >> 32, s_lo & _MASK32
    m1, m0 = _PCG_MULT_LO >> 32, _PCG_MULT_LO & _MASK32
    mid = a1 * m0 + (a0 * m0 >> 32)
    carry = (mid & _MASK32) + a0 * m1
    p_hi = s_hi * _PCG_MULT_LO + s_lo * _PCG_MULT_HI + a1 * m1 + (mid >> 32) + (carry >> 32)
    state_hi[...], state_lo[...] = _add128(p_hi, s_lo * _PCG_MULT_LO, inc_hi, inc_lo)
    return seeded


def _state_view(bits) -> np.ndarray:
    """A writable (2, 2) uint64 view of a numpy PCG64's ``[[state], [inc]]``, low word first.

    ``bits.ctypes.state_address`` points to numpy's ``pcg64_state``, whose
    first field points to the ``pcg64_random_t``: the 128-bit state, then
    the increment.  A native ``__uint128_t`` build stores the low word of
    each first, numpy's emulated 128-bit struct the high word; the words
    are compared with the public ``bits.state`` to tell which, and any other
    layout is an error.  The view is valid while ``bits`` lives.
    """
    address = ctypes.c_void_p.from_address(bits.ctypes.state_address).value
    # an array interface, not a ctypes array type: a new ctypes array type
    # is a reference cycle that only the garbage collector frees
    memory = {"data": (address, False), "shape": (2, 2), "typestr": np.dtype(np.uint64).str, "version": 3}
    words = np.asarray(types.SimpleNamespace(__array_interface__=memory))
    public = bits.state["state"]
    low_first = [[value & (2**64 - 1), value >> 64] for value in (public["state"], public["inc"])]
    for view in (words, words[:, ::-1]):
        if view.tolist() == low_first:
            return view
    raise RuntimeError(f"numpy {np.__version__}: PCG64's state matches its public state in neither word order")


def _noise_scaling(model: SystemModel, T: int) -> tuple[list, int]:
    """(columns of the normals, noise factor) pairs for the simulator, and its chunk for T rows a trajectory.

    One pair covers both factors when both are diagonal.  The chunk's normals,
    step vectors and dense-factor product fit in ``SCRATCH_BUDGET_BYTES``.
    """
    n, m = model.n, model.m
    scaling = [(slice(0, m), _noise_factor(model.sigma_u)), (slice(m, n + m), _noise_factor(model.sigma_w))]
    if all(fac.ndim == 1 for _, fac in scaling):
        scaling = [(slice(0, n + m), np.concatenate([fac for _, fac in scaling]))]
    dense_rows = max((fac.shape[0] for _, fac in scaling if fac.ndim == 2), default=0)
    return scaling, max(1, SCRATCH_BUDGET_BYTES // (8 * (T * (n + m + dense_rows) + 3 * n)))


def _horizon(T, name: str = "T") -> int:
    if (T := _int_value(name, T)) < 2:
        raise ValueError(f"{name} must be at least 2 (the state part of the design degenerates), got {T}")
    return T


def _trajectory_count(d, name: str = "d") -> int:
    if not 1 <= (d := _int_value(name, d)) <= _MASK32:
        raise ValueError(f"{name} must lie in [1, 2**32 - 1] (one spawn-key word), got {d}")
    return d


def _seed(seed, name: str = "seed") -> int:
    if (seed := _int_value(name, seed)) < 0:
        raise ValueError(f"{name} must be nonnegative, got {seed}")
    return seed


def simulate_batch(model: SystemModel, T: int, d: int, seed: int) -> TrajectoryBatch:
    """Simulate d independent trajectories and keep only the last transition.

    Trajectory i draws from ``default_rng(SeedSequence(seed).spawn(d)[i])``,
    so the output is bit-reproducible and does not depend on evaluation
    order.  X and W at d are the first d rows of X and W at a larger d; Y is
    not, since ``Y = X @ theta_star + W`` is one matrix product whose bits
    depend on the row count.  So one batch at the largest d serves every
    smaller d through ``_regression_batch`` of its first d rows of X and W.
    This is the one-horizon call of ``_simulate_horizons``, through which a
    sweep simulates each seed once for all of its horizons.
    ``_spawned_states`` hashes the spawn keys of all d children into the
    parent's pool at once, and ``_pcg64_seeded`` seeds every child's PCG64
    state from the words as numpy would from the child.  Within
    a trajectory the draws are chronological, which keeps the stored
    last-step disturbance independent of everything that enters the design
    row.

    Trajectories run in chunks whose scratch fits ``SCRATCH_BUDGET_BYTES``
    (``_noise_scaling``), in buffers allocated once per horizon.  Each
    trajectory fills its T rows of ``[u normals, w normals]`` with one draw;
    the noise factors scale them in place, and u and w are views of them.
    Each step forms ``A x`` and ``B u`` and adds ``B u``, then ``w``, in the
    association order of ``x = A x + B u + w``, with one matrix-vector
    product per trajectory, so the bits equal stepping each trajectory alone.

    A factor with zero off-diagonal entries is applied as ``diag * z + 0.0``.
    The matrix-vector product sums one nonzero term with exact zeros, which
    gives that term unchanged, or +0 where every term is zero; ``diag * z``
    can give -0 there, and adding +0.0 turns it into +0.  Both factors of
    every generator are diagonal, because ``eigh`` of ``c * I`` returns the
    exact identity; a dense factor, as a loaded model can have, keeps the
    matrix-vector product.
    """
    return next(_simulate_horizons(model, (T,), d, seed))[1]


def _simulate_horizons(model: SystemModel, horizons, d: int, seed: int):
    """Yield ``(T, simulate_batch(model, T, d, seed))`` for each distinct T, ascending, from one run.

    Each later horizon resumes every trajectory where the one before stopped:
    it draws on from the trajectory's PCG64 ``state`` and ``inc``, four
    uint64 words a trajectory that every horizon but the last writes back,
    and steps on from ``x[T_prev] = A x + B u + w`` of the previous last
    transition, which it then overwrites in X and W.  So a caller drops
    every view of a batch before it asks for the next.
    """
    horizons = sorted({_horizon(T) for T in horizons})
    d, seed = _trajectory_count(d), _seed(seed)
    states = _pcg64_seeded(_spawned_states(seed, d))
    X, W = np.empty((d, model.n + model.m)), np.empty((d, model.n))
    T_prev = 0
    for T in horizons:
        keep = T < horizons[-1]
        _advance(model, X, W, T_prev, T, states, keep)
        states, T_prev = (states if keep else None), T  # no states held past the last draw
        yield T, _regression_batch(X, W, model.stacked())


def _advance(model: SystemModel, X, W, T_prev: int, T: int, states: np.ndarray, keep: bool) -> None:
    """Run every trajectory from horizon T_prev to T, in place in X and W.

    Trajectory i draws from the PCG64 state ``states[i]`` (``_pcg64_seeded``'s
    layout): one generator takes each trajectory's words in turn, through
    ``_state_view``.  New trajectories (T_prev = 0) start at x = 0; resumed
    ones first step from their last transition at T_prev, read back from X
    and W.  With ``keep``, ``states[i]`` receives the state after the draw.
    """
    n, m, d, rows_new = model.n, model.m, len(X), T - T_prev
    scaling, chunk = _noise_scaling(model, rows_new)
    # (k, ..., 1) stacks: matmul runs one gemv per trajectory, which matches
    # ``M @ v`` bit for bit where a gemm across the chunk would not
    normals = np.empty((min(chunk, d), rows_new, n + m))
    x, x_new, Bu = np.empty((3, len(normals), n, 1))
    # standard_normal draws whole 64-bit words, so no half word is ever
    # pending and the generator's has_uint32 stays unset
    bits = np.random.PCG64(0)
    view = _state_view(bits)
    rng = np.random.Generator(bits)
    for start in range(0, d, chunk):
        k = min(chunk, d - start)
        z = normals[:k]
        for row, state in zip(z, states[start : start + k]):
            view[...] = state
            rng.standard_normal(out=row)
            if keep:
                state[...] = view
        for cols, fac in scaling:
            zc = z[:, :, cols]
            if fac.ndim == 2:
                zc[...] = np.matmul(fac, zc[..., None])[..., 0]
            else:
                np.multiply(zc, fac, out=zc)
                zc += 0.0  # the gemv sums to +0 where diag * z gives -0
        rows = slice(start, start + k)
        u, w = z[:, :, :m, None], z[:, :, m:, None]
        xs, xs_new, bu = x[:k], x_new[:k], Bu[:k]
        xs[...] = X[rows, :n, None] if T_prev else 0.0
        for t in range(-1 if T_prev else 0, rows_new - 1):
            # step -1 goes on from the last transition at T_prev, in X and W
            ut, wt = (X[rows, n:, None], W[rows, :, None]) if t < 0 else (u[:, t], w[:, t])
            np.matmul(model.A, xs, out=xs_new)
            xs_new += np.matmul(model.B, ut, out=bu)
            xs_new += wt
            xs, xs_new = xs_new, xs
        X[rows, :n] = xs[:, :, 0]
        X[rows, n:] = z[:, -1, :m]
        W[rows] = z[:, -1, m:]


def _regression_batch(X: np.ndarray, W: np.ndarray, theta_star: np.ndarray) -> TrajectoryBatch:
    """The batch of rows X and W with ``Y = X @ theta_star + W``; Y - X theta_star - W is bitwise zero."""
    Y = X @ theta_star
    Y += W
    return TrajectoryBatch(X=X, Y=Y, W=W)


def design_covariance(model: SystemModel, T: int) -> CovarianceReport:
    """Analytic covariance of a design row at horizon T.

    The state part is driven by the finite-horizon controllability stacks
    ``[A^{T-2} B ... B]`` (inputs) and ``[A^{T-2} ... I]`` (disturbances).
    """
    T = _horizon(T)
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


def _sampling_time(dt) -> None:
    if not 0 < _real_value("sampling time dt", dt) <= sys.float_info.max:
        raise ValueError(f"sampling time dt must be a finite, positive number, got {dt!r}")


def _model_size(n: int, m: int, sizes: str) -> None:
    """The one upper bound on a generator's sizes: numpy must index the stacked (n+m) x n parameter."""
    if (n + m) * n > np.iinfo(np.intp).max:
        raise ValueError(f"{sizes} too large: the {n + m}x{n} parameter has more entries than numpy can index")


def _synthetic_params(n: int, w: int) -> None:
    if w < 0:
        raise ValueError("band width must be nonnegative")
    if n < 3 * w + 1:  # a middle row has 2w+1 band entries and w off-band ones
        raise ValueError(f"n={n} too small for band width w={w}: need n >= {3 * w + 1}")
    _model_size(n, n, f"n={n}")


def _mass_spring_params(masses: int, dt: float) -> None:
    if masses < 1:
        raise ValueError("need at least one mass")
    _model_size(2 * masses, masses, f"masses={masses}")
    _sampling_time(dt)


def _multi_agent_params(agents: int, degree: int, state_size: int, input_size: int, dt: float) -> None:
    if agents < 1:
        raise ValueError("need at least one agent")
    if degree < 0 or degree >= agents:
        raise ValueError(f"degree must lie in [0, {agents - 1}]")
    if state_size < 1 or input_size < 1:
        raise ValueError("agent block sizes must be positive")
    sizes = f"agents={agents}, state_size={state_size}, input_size={input_size}"
    _model_size(agents * state_size, agents * input_size, sizes)
    _sampling_time(dt)


# Each generator kind: its required parameters, its optional ones with their
# defaults, and the rule on their values that its generator runs first.  Every
# parameter but the forward-Euler sampling time dt is an integer count.
GENERATOR_PARAMS = {
    "synthetic": (("n", "w"), {}, _synthetic_params),
    "mass_spring": (("masses",), {"dt": 0.2}, _mass_spring_params),
    "multi_agent": (("agents", "degree"), {"state_size": 5, "input_size": 5, "dt": 0.2}, _multi_agent_params),
}


def _generator_params(generator) -> dict:
    """A generator mapping's parameters, its kind's defaults filled in, by the rules its generator runs."""
    if not isinstance(generator, dict) or "kind" not in generator:
        raise ValueError("generator must be a mapping with a 'kind' field")
    kind = generator["kind"]
    if not isinstance(kind, str) or kind not in GENERATOR_PARAMS:
        raise ValueError(f"unknown generator kind {kind!r}")
    required, defaults, rule = GENERATOR_PARAMS[kind]
    params = {key: value for key, value in generator.items() if key != "kind"}
    try:
        for key in required:
            if key not in params:
                raise ValueError(f"missing parameter {key!r}")
        unknown = sorted(set(params) - set(required) - set(defaults))
        if unknown:
            raise ValueError(f"unknown parameter(s) {', '.join(map(repr, unknown))}")
        counts = {key: _int_value(f"parameter {key!r}", v) for key, v in params.items() if key != "dt"}
        params = {**defaults, **params, **counts}
        rule(**params)
    except ValueError as err:
        raise ValueError(f"generator {kind!r}: {err}") from None
    return params


def gen_synthetic(n: int, w: int, seed: int) -> SystemModel:
    """Banded random system with m = n and unit blocks.

    A and B carry unit diagonals and +/-0.3 entries (equiprobable signs) on
    the first w upper and lower diagonals; each row of A additionally gets w
    off-band, off-diagonal entries of +/-0.3 at positions drawn without
    replacement.
    """
    seed = _seed(seed)
    _synthetic_params(n, w)
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
        if w:
            picked = rng.choice(candidates, size=w, replace=False)
            A[i, picked] = rng.choice((0.3, -0.3), size=w)
    return _benchmark_model(A, B, BlockPartition.scalar(n, n))


def gen_mass_spring(masses: int, dt: float) -> SystemModel:
    """Path of N = ``masses`` unit masses coupled by unit springs, forward-Euler discretized.

    Continuous dynamics have positions stacked above velocities; the spring
    coupling is tridiagonal with -2 on the diagonal and 1 off it.  n = 2N
    states, m = N force inputs, unit blocks.
    """
    _mass_spring_params(masses, dt)
    N = masses
    S = -2.0 * np.eye(N)
    idx = np.arange(N - 1)
    S[idx, idx + 1] = 1.0
    S[idx + 1, idx] = 1.0
    A_c = np.zeros((2 * N, 2 * N))
    A_c[:N, N:] = np.eye(N)
    A_c[N:, :N] = S
    B_c = np.zeros((2 * N, N))
    B_c[N:, :] = np.eye(N)
    return _benchmark_model(np.eye(2 * N) + dt * A_c, dt * B_c, BlockPartition.scalar(2 * N, N))


def gen_multi_agent(
    agents: int, degree: int, state_size: int, input_size: int, dt: float, seed: int
) -> SystemModel:
    """Network of agents on a random directed graph, forward-Euler discretized.

    Each agent's continuous dynamics couple to its own block plus ``degree``
    distinct neighbors, sampled uniformly; the same neighbor set populates
    both A and B.  Populated block entries are drawn uniformly from
    [-0.4, -0.3] union [0.3, 0.4].
    """
    seed = _seed(seed)
    _multi_agent_params(agents, degree, state_size, input_size, dt)
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
            A_c[rows, b * state_size : (b + 1) * state_size] = signed_uniform((state_size, state_size))
            B_c[rows, b * input_size : (b + 1) * input_size] = signed_uniform((state_size, input_size))
    partition = BlockPartition.from_block_sizes((state_size,) * agents, (input_size,) * agents)
    return _benchmark_model(np.eye(n) + dt * A_c, dt * B_c, partition)


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
    """The model a document describes; every fault in it is reported with ``source`` in front."""
    try:
        for key in ("n", "m", "row_sizes", "col_sizes", "A", "B", "sigma_u", "sigma_w"):
            if key not in doc:
                raise ValueError(f"missing field '{key}'")
        partition = BlockPartition(doc["row_sizes"], doc["col_sizes"])
        n, m = (_int_value(f"field '{key}'", doc[key]) for key in ("n", "m"))
        if partition.n != n or partition.m != m:
            raise ValueError("fields n/m disagree with the block sizes")
        # a model without inputs writes its 0 x 0 covariance as []
        sigma_u = doc["sigma_u"]
        if isinstance(sigma_u, list) and not sigma_u:
            sigma_u = np.zeros((0, 0))
        return SystemModel(doc["A"], doc["B"], sigma_u, doc["sigma_w"], partition)
    except ValueError as err:
        raise ValueError(f"{source}: {err}") from None


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


def _batch_columns(n: int, m: int) -> list[str]:
    """The batch file's header: x[T-1] entries, u[T-1] entries, x[T] entries."""
    return [f"x_{k}" for k in range(n)] + [f"u_{k}" for k in range(m)] + [f"y_{k}" for k in range(n)]


def save_batch_csv(batch: TrajectoryBatch, path: str) -> None:
    """One row per trajectory, under the header of ``_batch_columns``."""
    n = batch.Y.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_batch_columns(n, batch.X.shape[1] - n))
        for i in range(batch.d):
            writer.writerow([repr(float(v)) for v in batch.X[i]] + [repr(float(v)) for v in batch.Y[i]])


def load_batch_csv(path: str) -> TrajectoryBatch:
    """The batch a file of ``save_batch_csv``'s layout holds; its header must be that layout's exactly."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty batch file") from None
        n = sum(1 for name in header if name.startswith("y_"))
        if n == 0 or header != _batch_columns(n, len(header) - 2 * n):
            raise ValueError(f"{path}: header does not match the x/u/y batch layout")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as err:
                raise ValueError(f"{path}: line {lineno}: {err}") from None
    data = np.asarray(rows, dtype=float)
    if data.size == 0:
        raise ValueError(f"{path}: batch file has no data rows")
    try:
        return TrajectoryBatch(X=data[:, :-n], Y=data[:, -n:])
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
