"""Where support recovery switches on as the sample count grows.

Sweeps the trajectory count on a fixed 60-dimensional banded system and
tabulates the relative mismatch error.  Recovery sharpens around a
threshold in the relative number of trajectories; below the system
dimension the plain least-squares estimate does not even exist.
"""

import numpy as np

import blocksysid as bs
from blocksysid.solver import LeastSquaresUndefined

n, w, T = 30, 1, 3
seeds = range(5)
d_list = [20, 40, 80, 160, 320, 640]

print(f"n+m = {2 * n}, band width {w}, medians over {len(list(seeds))} seeds\n")
print(f"{'d':>5} {'RST':>6} {'RME':>9} {'linf err':>9}  least-squares")
for d in d_list:
    rmes, errs, ls_note = [], [], ""
    for seed in seeds:
        model = bs.gen_synthetic(n, w, seed=seed)
        batch = bs.simulate_batch(model, T, d, seed=seed)
        lam = bs.lambda_schedule(1, n, n, d)
        res = bs.solve_block_regularized(
            batch, model.partition, bs.EstimatorConfig(lambda_d=lam, standardize=True)
        )
        truth = bs.support_pattern(model.stacked(), model.partition)
        rmes.append(bs.rme(bs.mismatch_error(res.support, truth), model.partition))
        errs.append(bs.error_norms(res.theta_hat, model.stacked()).linf_elementwise)
        if not ls_note:
            try:
                bs.solve_least_squares(batch)
                ls_note = "defined (dense)"
            except LeastSquaresUndefined:
                ls_note = "undefined"
    print(f"{d:>5} {bs.rst(d, n, n):>6.2f} {np.median(rmes):>9.3%} "
          f"{np.median(errs):>9.4f}  {ls_note}")
