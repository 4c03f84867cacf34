"""End-to-end walk-through on a small banded system.

Generates a 12-state benchmark system, simulates sample trajectories,
fits the block-regularized estimator with the dimension-based weight,
and compares against plain least squares.
"""


import blocksysid as bs

n, w, T, d, seed = 12, 1, 3, 480, 0

model = bs.gen_synthetic(n, w, seed=seed)
truth = bs.support_pattern(model.stacked(), model.partition)
print(f"system: n = m = {n}, band width {w}, {truth.count()} nonzero blocks of {2 * n * n}")

report = bs.check_assumptions(model, T)
print(f"recovery conditions: gamma = {report.gamma:.3f}, "
      f"eigenvalues in [{report.lambda_min:.2f}, {report.lambda_max:.2f}], "
      f"weakest signal {report.t_min:.2f}")

batch = bs.simulate_batch(model, T, d, seed=seed)
lam = bs.lambda_schedule(1, n, n, d)
print(f"\nsolving with {d} trajectories, lambda = {lam:.4f}")

result = bs.solve_block_regularized(
    batch, model.partition, bs.EstimatorConfig(lambda_d=lam, standardize=True)
)
mm = bs.mismatch_error(result.support, truth)
errs = bs.error_norms(result.theta_hat, model.stacked())
print(f"block-regularized: mismatch {mm} (RME {bs.rme(mm, model.partition):.2%}), "
      f"max entry error {errs.linf_elementwise:.4f}, "
      f"converged in <= {result.iterations.max()} iterations per column")

theta_ls = bs.solve_least_squares(batch)
ls_support = bs.support_pattern(theta_ls, model.partition)
mm_ls = bs.mismatch_error(ls_support, truth)
errs_ls = bs.error_norms(theta_ls, model.stacked())
print(f"least squares:     mismatch {mm_ls} (dense estimate), "
      f"max entry error {errs_ls.linf_elementwise:.4f}")

scale = batch.X.std(axis=0)
standardized = bs.TrajectoryBatch(X=batch.X / scale, Y=batch.Y, W=batch.W)
witness = bs.pdw_check(standardized, model.partition, lam, truth)
print(f"\ndual witness on the oracle support (standardized design): "
      f"success = {witness.success}, margin = {witness.gamma_margin:.3f}")
