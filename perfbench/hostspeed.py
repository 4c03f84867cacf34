"""Host-speed probe: a fixed loop that runs no code of blocksysid.

The benchmark's machine shares its cores with other tenants, and their load
changes the speed of identical work by 20-30% over tens of seconds.
The probe does the kind of work the sweeps do (interpreted Python around
numpy calls on arrays of the solver's size), so its time follows the host's
speed; since it runs none of the package, no change to the package can move
it.  The benchmark times one probe before every pass and scales that pass's
rate by the probe's time over ``REFERENCE_S``.
"""

from __future__ import annotations

import time

import numpy as np

ITERATIONS = 15_000
# Median probe time, with one BLAS thread, on the 2-vCPU shared VM the
# benchmark was tuned on; it only sets the scale of the corrected rates.
REFERENCE_S = 0.26

_SIZE = 200  # the Gram matrix of sweep_scalar is 200 x 200
_G = np.random.default_rng(0).standard_normal((_SIZE, _SIZE)) / 8.0


def probe() -> float:
    """Seconds one fixed loop takes on this host right now."""
    start = time.perf_counter()
    v = np.ones(_SIZE)
    for _ in range(ITERATIONS):
        v = _G @ v
        v = v / np.linalg.norm(v)
        np.maximum(np.abs(v) - 0.01, 0.0) * np.sign(v)
        acc = 0.0
        for j in range(20):
            acc += j * 0.5
    return time.perf_counter() - start
