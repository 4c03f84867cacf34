import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksysid import solver
from blocksysid.blocks import BlockPartition, block_abs_max, support_pattern
from blocksysid.experiments import build_model, resolve_lambda
from blocksysid.lti import SystemModel, TrajectoryBatch, gen_synthetic, simulate_batch
from blocksysid.solver import (
    EstimatorConfig,
    LeastSquaresUndefined,
    kkt_residual,
    pdw_check,
    solve_block_regularized,
    solve_least_squares,
)
from blocksysid.theory import lambda_schedule

from oracles import kkt_residual_longdouble, least_squares_normal_equations, subgradient_minimize


def tiny_model(seed, n=3, density=0.6):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) * 0.4 * (rng.random((n, n)) < density)
    B = rng.standard_normal((n, n)) * 0.4 * (rng.random((n, n)) < density)
    return SystemModel(
        A=A,
        B=B,
        sigma_u=np.eye(n),
        sigma_w=0.5 * np.eye(n),
        partition=BlockPartition.scalar(n, n),
    )


def blockwise_l1_max(mat, partition):
    ro, co = partition.row_offsets, partition.col_offsets
    worst = 0.0
    for i in range(partition.n_row_blocks):
        for j in range(partition.n_col_blocks):
            worst = max(worst, np.abs(mat[ro[i] : ro[i + 1], co[j] : co[j + 1]]).sum())
    return worst


def test_large_lambda_gives_exact_zero():
    model = tiny_model(0)
    batch = simulate_batch(model, 3, 30, seed=0)
    threshold = blockwise_l1_max(batch.X.T @ batch.Y / batch.d, model.partition)
    res = solve_block_regularized(
        batch, model.partition, EstimatorConfig(lambda_d=threshold * 1.0)
    )
    assert not res.theta_hat.any()
    assert not res.support.mask.any()
    assert res.converged


def test_lambda_zero_reduces_to_least_squares():
    model = tiny_model(1)
    batch = simulate_batch(model, 3, 40, seed=1)
    res = solve_block_regularized(batch, model.partition, EstimatorConfig(lambda_d=0.0))
    ls = solve_least_squares(batch)
    assert np.abs(res.theta_hat - ls).max() / max(1.0, np.abs(ls).max()) < 1e-6


def test_solver_matches_subgradient_oracle():
    model = tiny_model(2)
    batch = simulate_batch(model, 3, 40, seed=2)
    lam = lambda_schedule(1, 3, 3, 40)
    res = solve_block_regularized(batch, model.partition, EstimatorConfig(lambda_d=lam))
    ref = subgradient_minimize(
        batch.X, batch.Y, lam, model.partition.row_sizes, model.partition.col_sizes,
        iters=300_000,
    )
    assert np.abs(res.theta_hat - ref).max() < 1e-4
    assert res.kkt_residual <= 1e-7


def test_column_block_separability_bitwise():
    model = tiny_model(3, n=4)
    batch = simulate_batch(model, 3, 50, seed=3)
    part = model.partition
    lam = 0.1
    joint = solve_block_regularized(batch, part, EstimatorConfig(lambda_d=lam))
    for j in range(part.n_col_blocks):
        # same row blocks, a single column block: the j-th subproblem on its own
        sub_part = BlockPartition(part.row_sizes, (part.col_sizes[j],))
        sub_batch = TrajectoryBatch(X=batch.X, Y=batch.Y[:, j : j + 1])
        sub = solve_block_regularized(sub_batch, sub_part, EstimatorConfig(lambda_d=lam))
        assert np.array_equal(sub.theta_hat[:, 0], joint.theta_hat[:, j])


def test_objective_dominates_baselines():
    model = tiny_model(4)
    batch = simulate_batch(model, 3, 40, seed=4)
    part = model.partition
    lam = 0.15
    res = solve_block_regularized(batch, part, EstimatorConfig(lambda_d=lam))

    def objective(th):
        r = batch.Y - batch.X @ th
        return 0.5 / batch.d * float(np.vdot(r, r)) + lam * float(block_abs_max(th, part).sum())

    assert objective(res.theta_hat) <= objective(np.zeros(part.shape)) + 1e-10
    assert objective(res.theta_hat) <= objective(solve_least_squares(batch)) + 1e-10


def test_zero_support_blocks_are_exact_zeros():
    model = gen_synthetic(12, 1, seed=5)
    batch = simulate_batch(model, 3, 60, seed=5)
    lam = lambda_schedule(1, 12, 12, 60)
    res = solve_block_regularized(batch, model.partition, EstimatorConfig(lambda_d=lam))
    dead = ~np.repeat(
        np.repeat(res.support.mask, 1, axis=0), 1, axis=1
    )  # unit blocks: mask aligns with entries
    assert not res.theta_hat[dead].any()


def test_iteration_cap_reports_unconverged(monkeypatch):
    model = tiny_model(6)
    batch = simulate_batch(model, 3, 40, seed=6)
    monkeypatch.setattr(solver, "MAX_ITER", 2)
    res = solve_block_regularized(batch, model.partition, EstimatorConfig(lambda_d=0.05))
    assert not res.converged
    assert res.kkt_residual > 1e-7


def mixed_problem(seed, state_sizes, input_sizes, d, density=0.3):
    """A random regression on a mixed-width partition, as a bare batch."""
    part = BlockPartition.from_block_sizes(state_sizes, input_sizes)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((d, part.shape[0]))
    theta = rng.standard_normal(part.shape) * (rng.random(part.shape) < density)
    Y = X @ theta + 0.5 * rng.standard_normal((d, part.n))
    return TrajectoryBatch(X=X, Y=Y), part


def test_lockstep_columns_match_one_column_solves_on_mixed_widths(monkeypatch):
    # Widths (2, 1, 3, 1, 2, 1) give stacks of three, two and one columns,
    # and MAX_ITER=24 stops some columns of each shared stack before they
    # converge.  A one-column partition needs its first row block as wide as
    # the column, so the one-column solves run the same kernel on one-column
    # stacks of the inputs the joint solve recorded.
    batch, part = mixed_problem(0, (2, 1, 3, 1, 2, 1), (2, 1), d=100)
    config = EstimatorConfig(lambda_d=0.1)
    monkeypatch.setattr(solver, "MAX_ITER", 24)
    kernel = solver._lockstep_apg
    calls = []

    def recording(Gmat, L, lam, groups, grid, cols):
        c_in = grid[:, cols.ravel()]  # the kernel overwrites its linear terms
        out = kernel(Gmat, L, lam, groups, grid, cols)
        calls.append((Gmat, L, lam, groups, c_in, cols, grid[:, cols.ravel()]))
        return out

    monkeypatch.setattr(solver, "_lockstep_apg", recording)
    joint = solve_block_regularized(batch, part, config)
    monkeypatch.setattr(solver, "_lockstep_apg", kernel)

    its = joint.iterations
    assert (its == solver.MAX_ITER).any() and (its < solver.MAX_ITER).any()
    assert max(cols.shape[0] for *_, cols, _ in calls) == 3
    # stacks run by width, then by block column
    order = sorted(range(part.n_col_blocks), key=lambda j: (part.col_sizes[j], j))
    stacked = [(call, i) for call in calls for i in range(call[5].shape[0])]
    assert len(stacked) == part.n_col_blocks
    co = part.col_offsets
    for j, ((Gmat, L, lam, groups, c, cols, x), i) in zip(order, stacked):
        width = cols.shape[1]
        x1 = c[:, i * width : (i + 1) * width].copy()
        its1, resid1 = kernel(Gmat, L, lam, groups, x1, np.arange(width)[None])
        assert np.array_equal(x1, joint.theta_hat[:, co[j] : co[j + 1]])
        assert np.array_equal(x1, x[:, i * width : (i + 1) * width])
        assert its1[0] == its[j]
        assert resid1[0] <= solver.KKT_TOL or its1[0] == solver.MAX_ITER


SCALAR = {"kind": "synthetic", "n": 100, "w": 2}
AGENTS = {"kind": "multi_agent", "agents": 40, "degree": 3, "state_size": 5, "input_size": 5}


def stacked_problem(monkeypatch, problem):
    """The mixed-width solve or the AGENTS d=200 one, as (batch, partition, config).

    MAX_ITER stops some columns of a stack while others converge first, so
    columns leave a stack out of order.
    """
    if problem == "mixed":
        batch, part = mixed_problem(0, (2, 1, 3, 1, 2, 1), (2, 1), d=100)
        config = EstimatorConfig(lambda_d=0.1)
        monkeypatch.setattr(solver, "MAX_ITER", 24)
    else:
        model = build_model(AGENTS, 0)
        batch, part = simulate_batch(model, 3, 200, seed=0), model.partition
        lam = resolve_lambda("schedule", part, batch.d)
        config = EstimatorConfig(lambda_d=lam, standardize=True)
        monkeypatch.setattr(solver, "MAX_ITER", 44)
    return batch, part, config


def assert_same_solve(res, base):
    assert np.array_equal(res.theta_hat, base.theta_hat)
    assert np.array_equal(np.signbit(res.theta_hat), np.signbit(base.theta_hat))
    assert np.array_equal(res.iterations, base.iterations)
    assert res.kkt_residual == base.kkt_residual
    assert res.converged == base.converged


@pytest.mark.parametrize("problem", ["mixed", "agents"])
def test_stack_split_never_changes_a_solve(monkeypatch, problem):
    # Stacks of one column, of three and of every column of a width give the
    # solve of the default split bit for bit.
    batch, part, config = stacked_problem(monkeypatch, problem)
    base = solve_block_regularized(batch, part, config)
    assert (base.iterations < solver.MAX_ITER).any() and (base.iterations == solver.MAX_ITER).any()
    for cap in (1, 3, part.n_col_blocks + 1):
        monkeypatch.setattr(solver, "_stack_cap", lambda *args, cap=cap: cap)
        assert_same_solve(solve_block_regularized(batch, part, config), base)


@pytest.mark.parametrize("problem", ["mixed", "agents"])
def test_gram_product_split_over_two_threads_never_changes_a_solve(monkeypatch, problem):
    # With the threshold at 0, every step of a stack of two or more live
    # columns splits its Gram product between the caller and the helper
    # thread, odd column counts included; stacks of one never split.  The
    # solve is the serial one bit for bit.
    batch, part, config = stacked_problem(monkeypatch, problem)
    monkeypatch.setattr(solver, "_cpus", lambda: 1)
    base = solve_block_regularized(batch, part, config)
    monkeypatch.setattr(solver, "_cpus", lambda: 2)
    monkeypatch.setattr(solver, "_SPLIT_MADDS", 0)
    split, live = solver._split_matmul, []

    def recording(Gmat, XN, out):
        live.append(XN.shape[0])
        split(Gmat, XN, out)

    monkeypatch.setattr(solver, "_split_matmul", recording)
    for cap in (1, 3, part.n_col_blocks + 1):
        monkeypatch.setattr(solver, "_stack_cap", lambda *args, cap=cap: cap)
        live.clear()
        assert_same_solve(solve_block_regularized(batch, part, config), base)
        assert live if cap > 1 else not live
        assert all(n > 1 for n in live)
        assert any(n % 2 for n in live) == (cap > 1)


def test_split_gram_product_raises_the_helpers_error(monkeypatch):
    # An exception in the helper's half reaches the caller, after both halves
    # ran, and the helper takes the next product as before.
    rng = np.random.default_rng(3)
    G, XN = rng.standard_normal((7, 7)), rng.standard_normal((5, 7, 2))
    out = np.zeros_like(XN)
    matmul = np.matmul

    def failing_off_the_main_thread(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("helper's half")
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", failing_off_the_main_thread)
    with pytest.raises(FloatingPointError, match="helper's half"):
        solver._split_matmul(G, XN, out)
    assert np.array_equal(out[:2], matmul(G, XN[:2])) and not out[2:].any()
    monkeypatch.setattr(np, "matmul", matmul)
    solver._split_matmul(G, XN, out)
    assert np.array_equal(out, matmul(G, XN))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_splits_on_a_helper_of_its_own():
    # A child forked after a split inherits the helper's job queue but not
    # its thread; handing that queue work would wait forever.
    rng = np.random.default_rng(4)
    G, XN = rng.standard_normal((9, 9)), rng.standard_normal((4, 9, 3))
    out = np.zeros_like(XN)
    solver._split_matmul(G, XN, out)
    pid = os.fork()
    if pid == 0:  # the child exits 0 only if its split product is right
        code = 1
        try:
            child = np.zeros_like(XN)
            solver._split_matmul(G, XN, child)
            code = 0 if np.array_equal(child, out) else 1
        finally:
            os._exit(code)
    for _ in range(600):
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.05)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's split product never finished")
    assert os.waitstatus_to_exitcode(status) == 0


def test_scalar_benchmark_solves_start_no_thread():
    # sweep_scalar's solves stay below the split threshold: no helper thread
    # starts and the split's queue module is never imported.  The AGENTS
    # solve after them splits where two CPUs are usable.
    code = f"""if True:
        import sys, threading
        from blocksysid.experiments import build_model, resolve_lambda
        from blocksysid.lti import simulate_batch
        from blocksysid.solver import EstimatorConfig, _cpus, solve_block_regularized

        for generator, ds in (({SCALAR!r}, (100, 200, 400)), ({AGENTS!r}, (200,))):
            model = build_model(generator, 0)
            for d in ds:
                config = EstimatorConfig(resolve_lambda("schedule", model.partition, d), standardize=True)
                solve_block_regularized(simulate_batch(model, 3, d, 0), model.partition, config)
            print(threading.active_count(), "queue" in sys.modules, _cpus() > 1)
    """
    env = dict(os.environ, PYTHONPATH=str(Path(solver.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    scalar, agents = done.stdout.split("\n")[:2]
    assert scalar.startswith("1 False ")
    assert agents in ("2 True True", "1 False False")


@pytest.mark.parametrize(
    "generator, d, sizes",
    [
        (SCALAR, 100, [34, 33, 33]),
        (SCALAR, 200, [34, 33, 33]),
        (SCALAR, 400, [50, 50]),
        (AGENTS, 200, [8] * 5),
        (AGENTS, 400, [14, 13, 13]),
        (AGENTS, 800, [20, 20]),
    ],
)
def test_benchmark_solves_stack_sizes(monkeypatch, generator, d, sizes):
    # The block_reg solves of the sweep_scalar and sweep_agents benchmarks:
    # a stack takes a tenth of the room the dropped design frees, at least
    # 64 KiB, and each width's columns split into near-equal stacks.
    part = build_model(generator, 0).partition
    rng = np.random.default_rng(0)
    batch = TrajectoryBatch(X=rng.standard_normal((d, part.shape[0])), Y=rng.standard_normal((d, part.n)))
    seen = []

    def record_stack(Gmat, L, lam, groups, grid, cols):
        k = cols.shape[0]
        seen.append(k)
        return np.zeros(k, dtype=int), np.zeros(k)

    monkeypatch.setattr(solver, "_lockstep_apg", record_stack)
    solve_block_regularized(batch, part, EstimatorConfig(lambda_d=0.1, standardize=True))
    assert seen == sizes


@pytest.mark.parametrize("generator, d, sorts", [(SCALAR, 400, False), (AGENTS, 200, True)])
def test_only_wide_block_rows_take_the_sort_path(monkeypatch, generator, d, sorts):
    # A unit block's shift needs no sort, so no row of the sweep_scalar
    # solve reaches one; rows of the multi-agent solve's 5x5 blocks do.
    model = build_model(generator, 0)
    batch = simulate_batch(model, 3, d, seed=0)
    lam = resolve_lambda("schedule", model.partition, d)
    sort = np.sort
    sorted_rows = []

    def counting(a, axis=-1, **kwargs):
        sorted_rows.append(a.size // a.shape[axis])
        return sort(a, axis=axis, **kwargs)

    monkeypatch.setattr(np, "sort", counting)
    res = solve_block_regularized(batch, model.partition, EstimatorConfig(lambda_d=lam, standardize=True))
    assert res.converged
    assert (sum(sorted_rows) > 0) == sorts


def floored_against_exact(monkeypatch, model, d):
    """Solve a benchmark-like problem with the l1 floor and with it forced off.

    The estimate, every column's step count and every column's recorded
    residual agree bit for bit, also when MAX_ITER cuts the solve short.
    Returns the column evaluations of the floored solve and how many of them
    took a distance of any row.
    """
    part = model.partition
    batch = simulate_batch(model, 3, d, seed=0)
    config = EstimatorConfig(lambda_d=resolve_lambda("schedule", part, d), standardize=True)
    kkt, lockstep = solver._kkt_stack, solver._lockstep_apg
    rows = solver._kkt_rows
    counts = {"evaluated": 0, "measured": 0}
    residuals = []

    def counting_kkt(x, grad, lam, groups, floor=False):
        counts["evaluated"] += x.shape[0]
        return kkt(x, grad, lam, groups, floor=floor)

    def exact_kkt(x, grad, lam, groups, floor=False):
        return kkt(x, grad, lam, groups)

    # one size group per partition, so a measured column's rows all take one distance call
    def counting_rows(Th, Qm, lam):
        counts["measured"] += Th.shape[0] // part.n_row_blocks
        return rows(Th, Qm, lam)

    def recording(*args):
        iterations, resid = lockstep(*args)
        residuals.append(resid)
        return iterations, resid

    def solve(kkt_stack):
        monkeypatch.setattr(solver, "_kkt_stack", kkt_stack)
        residuals.clear()
        res = solve_block_regularized(batch, part, config)
        return res, np.concatenate(residuals).tobytes()

    monkeypatch.setattr(solver, "_lockstep_apg", recording)
    monkeypatch.setattr(solver, "_kkt_rows", counting_rows)
    floored, floored_residuals = solve(counting_kkt)
    evaluated, measured = counts["evaluated"], counts["measured"]
    exact, exact_residuals = solve(exact_kkt)
    assert floored.converged
    assert floored.theta_hat.tobytes() == exact.theta_hat.tobytes()  # signs of zeros included
    assert np.array_equal(floored.iterations, exact.iterations)
    assert floored_residuals == exact_residuals
    # the step that reaches MAX_ITER measures every column it stops
    monkeypatch.setattr(solver, "MAX_ITER", 5)
    (cut, cut_residuals), (cut_exact, cut_exact_residuals) = solve(kkt), solve(exact_kkt)
    assert not cut.converged
    assert cut.theta_hat.tobytes() == cut_exact.theta_hat.tobytes() and cut_residuals == cut_exact_residuals
    assert np.array_equal(cut.iterations, cut_exact.iterations)
    return evaluated, measured


def test_l1_floor_skips_most_sort_path_distances_and_no_bit_moves(monkeypatch):
    # The sweep_agents d=200 solve: a column whose l1 bound proves it
    # unconverged skips its nonzero-block distances.
    evaluated, measured = floored_against_exact(monkeypatch, build_model(AGENTS, 0), 200)
    assert evaluated > 0 and measured < evaluated / 4


@pytest.mark.parametrize(
    "generator, d", [(SCALAR, 100), ({"kind": "mass_spring", "masses": 10, "dt": 0.2}, 100)]
)
def test_l1_floor_on_one_entry_rows_moves_no_bit(monkeypatch, generator, d):
    # Unit blocks: a column whose largest |g| proves it unconverged skips its
    # one-entry distances (at 6,452 of 6,675 column evaluations of the
    # sweep_scalar solve, at 264 of 413 on the mass-spring one).
    evaluated, measured = floored_against_exact(monkeypatch, build_model(generator, 0), d)
    assert evaluated > 0 and measured < evaluated / 2


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    state_sizes=st.lists(st.integers(1, 3), min_size=1, max_size=6),
    input_sizes=st.lists(st.integers(1, 3), max_size=2),
    d=st.integers(30, 200),
    lam=st.floats(0.02, 0.3),
    seed=st.integers(0, 2**16),
)
def test_kkt_residual_certifies_mixed_partitions(state_sizes, input_sizes, d, lam, seed):
    batch, part = mixed_problem(seed, state_sizes, input_sizes, d)
    res = solve_block_regularized(batch, part, EstimatorConfig(lambda_d=lam))
    assert res.converged
    assert res.kkt_residual <= 1e-7
    # The solver takes the gradient as G x - X^T Y / d, the public residual
    # as X^T (X theta - Y) / d; the two agree to rounding.
    assert res.kkt_residual == pytest.approx(kkt_residual(res.theta_hat, batch, part, lam), abs=1e-12)


@pytest.mark.parametrize(
    "generator, d",
    [
        ({"kind": "synthetic", "n": 100, "w": 2}, 400),
        ({"kind": "multi_agent", "agents": 40, "degree": 3, "state_size": 5, "input_size": 5}, 800),
        ({"kind": "multi_agent", "agents": 40, "degree": 3, "state_size": 5, "input_size": 5}, 200),
        ({"kind": "multi_agent", "agents": 40, "degree": 3, "state_size": 5, "input_size": 5}, 400),
        (SCALAR, 200),
    ],
)
def test_solve_peak_memory_within_column_by_column_budget(generator, d):
    # Every benchmark point but sweep_scalar's d=100, which peaks above this
    # budget (0.95 MiB of 0.76).  Solving one column at a time held the
    # standardized design (d x p), the Gram matrix (p x p), theta (p x n)
    # and two d x n residual arrays at once; the stacks must fit in that.
    model = build_model(generator, seed=0)
    batch = simulate_batch(model, 3, d, seed=0)
    part = model.partition
    lam = resolve_lambda("schedule", part, d)
    p, n = part.shape
    budget = 8 * (d * p + p * p + p * n + 2 * d * n)
    tracemalloc.start()
    try:
        solve_block_regularized(batch, part, EstimatorConfig(lambda_d=lam, standardize=True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget


def test_step_respects_the_largest_gram_eigenvalue(monkeypatch):
    # On this standardized design, power iteration stopped 2.3% below
    # lambda_max(G), so the step 1/L overshot the proximal-gradient bound.
    model = build_model({"kind": "multi_agent", "agents": 40, "degree": 3, "state_size": 5, "input_size": 5}, 3)
    batch = simulate_batch(model, 3, 200, seed=3)
    X = batch.X / batch.X.std(axis=0)
    lam_max = np.linalg.norm(X, 2) ** 2 / batch.d
    steps = []

    def record_step(Gmat, L, lam, groups, grid, cols):
        steps.append(L)
        k = cols.shape[0]
        return np.zeros(k, dtype=int), np.zeros(k)

    monkeypatch.setattr(solver, "_lockstep_apg", record_step)
    solve_block_regularized(batch, model.partition, EstimatorConfig(lambda_d=0.1, standardize=True))
    assert steps and all(L >= lam_max * (1 - 1e-12) for L in steps)


def test_standardized_solve_scale_equivariance():
    # scaling a design column must not change the standardized support decision
    model = tiny_model(8)
    batch = simulate_batch(model, 3, 60, seed=8)
    lam = 0.2
    res = solve_block_regularized(
        batch, model.partition, EstimatorConfig(lambda_d=lam, standardize=True)
    )
    X2 = batch.X.copy()
    X2[:, 2] *= 40.0
    batch2 = TrajectoryBatch(X=X2, Y=batch.Y, W=batch.W)
    res2 = solve_block_regularized(
        batch2, model.partition, EstimatorConfig(lambda_d=lam, standardize=True)
    )
    assert np.array_equal(res.support.mask, res2.support.mask)
    np.testing.assert_allclose(res2.theta_hat[2] * 40.0, res.theta_hat[2], rtol=1e-6, atol=1e-10)


def test_non_finite_data_rejected():
    # a batch is checked once, when it is built, so no solver meets non-finite data
    model = tiny_model(9)
    batch = simulate_batch(model, 3, 20, seed=9)
    X = batch.X.copy()
    X[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite value in X row 0"):
        TrajectoryBatch(X=X, Y=batch.Y, W=batch.W)


def test_tiny_lambda_converges_without_overflow():
    # the KKT residual is measured in gradient units, so a lambda far below
    # 1e-150 neither overflows nor keeps the columns from converging
    model = gen_synthetic(6, 1, seed=0)
    batch = simulate_batch(model, 3, 40, seed=0)
    tiny = solve_block_regularized(batch, model.partition, EstimatorConfig(lambda_d=1e-200))
    small = solve_block_regularized(batch, model.partition, EstimatorConfig(lambda_d=1e-100))
    assert tiny.converged and np.isfinite(tiny.kkt_residual)
    assert np.array_equal(tiny.iterations, small.iterations)


# ---------------------------------------------------------------------------
# least squares


def test_least_squares_noiseless_recovery():
    model = SystemModel(
        A=np.array([[0.5, 0.1], [0.0, 0.3]]),
        B=np.array([[1.0], [0.5]]),
        sigma_u=np.eye(1),
        sigma_w=np.zeros((2, 2)),
        partition=BlockPartition.scalar(2, 1),
    )
    batch = simulate_batch(model, 3, 20, seed=0)
    theta = solve_least_squares(batch)
    np.testing.assert_allclose(theta, model.stacked(), atol=1e-12)


def test_least_squares_undefined_when_underdetermined():
    model = tiny_model(10)
    batch = simulate_batch(model, 3, 5, seed=0)  # d = n+m-1 = 5
    with pytest.raises(LeastSquaresUndefined):
        solve_least_squares(batch)


def test_least_squares_rank_deficient():
    X = np.zeros((8, 3))
    X[:, 0] = np.arange(8.0) + 1
    X[:, 1] = 2 * X[:, 0]  # collinear
    X[:, 2] = np.arange(8.0) ** 2
    batch = TrajectoryBatch(X=X, Y=np.ones((8, 1)))
    with pytest.raises(LeastSquaresUndefined):
        solve_least_squares(batch)


def test_least_squares_matches_normal_equations():
    model = tiny_model(11)
    batch = simulate_batch(model, 3, 80, seed=11)
    ours = solve_least_squares(batch)
    ref = least_squares_normal_equations(batch.X, batch.Y)
    assert np.abs(ours - ref).max() < 1e-8


def test_least_squares_is_dense_on_sparse_truth():
    # noisy LS estimates are nonzero everywhere, so the LS mismatch equals
    # the count of zero blocks of the truth
    model = gen_synthetic(10, 1, seed=12)
    batch = simulate_batch(model, 3, 40, seed=12)
    theta = solve_least_squares(batch)
    truth = support_pattern(model.stacked(), model.partition)
    off = ~truth.mask
    ls_support = support_pattern(theta, model.partition)
    assert ls_support.mask.all()
    assert (theta[np.repeat(off, 1, axis=0)] != 0.0).all()


# ---------------------------------------------------------------------------
# KKT residual


def test_kkt_zero_at_dominated_zero():
    model = tiny_model(13)
    batch = simulate_batch(model, 3, 30, seed=13)
    part = model.partition
    threshold = blockwise_l1_max(batch.X.T @ batch.Y / batch.d, part)
    assert kkt_residual(np.zeros(part.shape), batch, part, threshold * 1.01) == 0.0
    assert kkt_residual(np.zeros(part.shape), batch, part, threshold) == 0.0


def test_kkt_positive_below_threshold():
    model = tiny_model(14)
    batch = simulate_batch(model, 3, 30, seed=14)
    part = model.partition
    threshold = blockwise_l1_max(batch.X.T @ batch.Y / batch.d, part)
    assert kkt_residual(np.zeros(part.shape), batch, part, 0.5 * threshold) > 0.0


def test_kkt_small_at_converged_solution(monkeypatch):
    model = tiny_model(15)
    batch = simulate_batch(model, 3, 40, seed=15)
    part = model.partition
    monkeypatch.setattr(solver, "KKT_TOL", 1e-9)
    res = solve_block_regularized(batch, part, EstimatorConfig(lambda_d=0.12))
    assert kkt_residual(res.theta_hat, batch, part, 0.12) <= 1e-9


def test_kkt_lambda_zero_is_gradient_norm():
    model = tiny_model(16)
    batch = simulate_batch(model, 3, 40, seed=16)
    part = model.partition
    theta = np.zeros(part.shape)
    grad = batch.X.T @ (batch.X @ theta - batch.Y) / batch.d
    assert kkt_residual(theta, batch, part, 0.0) == pytest.approx(np.abs(grad).max())


@pytest.mark.parametrize(
    "model",
    [gen_synthetic(6, 1, seed=0), build_model({"kind": "multi_agent", "agents": 4, "degree": 1}, seed=1)],
    ids=["synthetic", "multi_agent"],
)
@pytest.mark.parametrize("tied", [False, True])
def test_kkt_residual_at_a_huge_lambda_is_finite_and_exact(model, tied):
    # at lambda >= 1e300 a nonzero block's distance is about lambda, whose
    # square overflows float64; the residual must still be finite and exact.
    # A wide block's non-max entries stand in the simplex projection as a
    # sentinel that must sort below every term: a finite -1e300 did not
    # above 1e300, and the residual read 1.36e300 at lambda = 1e301.
    part = model.partition
    batch = simulate_batch(model, 3, 40, seed=0)
    theta = model.stacked()
    if tied:  # every nonzero entry of a block on its max-abs
        theta = np.sign(theta)
    grad = batch.X.T @ (batch.X @ theta - batch.Y) / batch.d
    for lam in (1e300, 1e301, 1e305, 1e308):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = kkt_residual(theta, batch, part, lam)
        expected = kkt_residual_longdouble(theta, grad, lam, part.row_sizes, part.col_sizes)
        assert np.isfinite(value)
        assert value == float(expected)


@pytest.mark.parametrize(
    "x_cols, y_cols, theta_shape, message",
    [
        (2, 2, (3, 2), "design has 2 columns, partition expects 3"),
        (3, 1, (3, 2), "observation has 1 columns, partition expects 2"),
        (3, 2, (2, 3), "grid shape (2, 3) does not match partition shape (3, 2)"),
    ],
)
def test_kkt_residual_checks_shapes_against_the_partition(x_cols, y_cols, theta_shape, message):
    batch = TrajectoryBatch(X=np.ones((4, x_cols)), Y=np.ones((4, y_cols)))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        kkt_residual(np.zeros(theta_shape), batch, BlockPartition.scalar(2, 1), 0.1)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0])
def test_kkt_residual_rejects_a_bad_lambda(lam):
    # a weight the estimator rejects must not certify any point, as a residual of 0.0 would
    model = tiny_model(16)
    batch = simulate_batch(model, 3, 40, seed=16)
    with pytest.raises(ValueError, match="^lambda_d must be finite and nonnegative$"):
        kkt_residual(np.zeros(model.partition.shape), batch, model.partition, lam)


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(lambda_d=-0.1)


@pytest.mark.parametrize(
    ("kwargs", "message"),
    [
        ({"lambda_d": True}, "lambda_d must be a real number, got True"),
        ({"lambda_d": np.True_}, "lambda_d must be a real number, got np.True_"),
        ({"lambda_d": None}, "lambda_d must be a real number, got None"),
        ({"lambda_d": "0.1"}, "lambda_d must be a real number, got '0.1'"),
        ({"lambda_d": 0.1, "standardize": "no"}, "standardize must be true or false, got 'no'"),
        ({"lambda_d": 0.1, "standardize": 1}, "standardize must be true or false, got 1"),
    ],
)
def test_estimator_config_names_a_bad_field(kwargs, message):
    # a bool is not taken as a weight of 1, nor a truthy value as a switch
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        EstimatorConfig(**kwargs)


@pytest.mark.parametrize("lam", [True, None, "0.1"])
def test_kkt_residual_and_witness_reject_a_lambda_that_is_not_a_real_number(lam):
    model = tiny_model(16)
    batch = simulate_batch(model, 3, 40, seed=16)
    truth = support_pattern(model.stacked(), model.partition)
    message = f"lambda_d must be a real number, got {lam!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        kkt_residual(np.zeros(model.partition.shape), batch, model.partition, lam)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        pdw_check(batch, model.partition, lam, truth)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kkt_residual_rejects_a_non_finite_estimate(bad):
    # max() drops a NaN distance, so such an estimate would read 0.0, a perfect certificate
    part = BlockPartition.scalar(2, 1)
    rng = np.random.default_rng(0)
    batch = TrajectoryBatch(X=rng.standard_normal((10, 3)), Y=rng.standard_normal((10, 2)))
    theta = np.zeros(part.shape)
    theta[1, 0] = bad
    with pytest.raises(ValueError, match="^non-finite value in theta row 1$"):
        kkt_residual(theta, batch, part, 0.1)
