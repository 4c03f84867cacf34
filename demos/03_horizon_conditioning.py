"""Longer horizons inflate the easy modes and bury the hard ones.

The covariance of a design row is shaped by the finite-horizon
controllability stacks; its condition number grows quickly with the
horizon for unstable benchmark systems, which is why identification
gets harder even though each trajectory is longer.
"""

import blocksysid as bs
from blocksysid.lti import condition_number

n, w, seed = 30, 2, 0
model = bs.gen_synthetic(n, w, seed=seed)

print(f"n+m = {2 * n}, band width {w}, seed {seed}\n")
print(f"{'T':>3} {'kappa(grams)':>14} {'kappa(row cov)':>15} {'lambda_min':>11}")
for T in range(3, 8):
    rep = bs.design_covariance(model, T)
    gram = rep.input_stack @ rep.input_stack.T + rep.noise_stack @ rep.noise_stack.T
    print(f"{T:>3} {condition_number(gram):>14.1f} {rep.kappa:>15.1f} {rep.lambda_min:>11.4f}")

print("\nthe same growth shows up in how many samples the estimator needs:")
for T in (3, 5, 7):
    rep = bs.design_covariance(model, T)
    d_min = bs.sample_threshold(rep.kappa, k_max=7, D=1, n_bar=n, m_bar=n, delta=0.05)
    print(f"  T={T}: suggested d >= {d_min}")
