"""Identifying a physical mass-spring chain.

Thirty unit masses on a spring path, discretized by forward Euler at
0.2 s.  The true dynamics are extremely sparse (positions couple only to
neighboring velocities), and the structure is recovered from far fewer
trajectories than least squares would need to even be defined.
"""


import blocksysid as bs

N, T = 30, 3
model = bs.gen_mass_spring(N, dt=0.2)
n, m = model.n, model.m
truth = bs.support_pattern(model.stacked(), model.partition)
print(f"{N} masses -> n = {n} states, m = {m} inputs, "
      f"{truth.count()} nonzero blocks of {(n + m) * n}")

report = bs.check_assumptions(model, T)
print(f"incoherence margin gamma = {report.gamma:.3f}, "
      f"eigenvalues in [{report.lambda_min:.3f}, {report.lambda_max:.3f}]\n")

print(f"{'d':>5} {'RST':>6} {'mismatch':>9} {'linf err':>9}")
for d in (80, 160, 320, 640, 1280):
    batch = bs.simulate_batch(model, T, d, seed=1)
    lam = bs.lambda_schedule(1, n, m, d)
    res = bs.solve_block_regularized(
        batch, model.partition, bs.EstimatorConfig(lambda_d=lam, standardize=True)
    )
    mm = bs.mismatch_error(res.support, truth)
    err = bs.error_norms(res.theta_hat, model.stacked()).linf_elementwise
    print(f"{d:>5} {bs.rst(d, n, m):>6.2f} {mm:>9} {err:>9.4f}")

print(f"\n(least squares needs d >= {n + m} to exist at all)")
