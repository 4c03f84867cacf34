"""Support-recovery and estimation-accuracy metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockPartition, BlockSupport


@dataclass(frozen=True)
class ErrorReport:
    """Norms of the estimation error, plus the scale-free operator-norm ratio."""

    linf_elementwise: float
    op_norm: float
    normalized_2: float


def mismatch_error(est: BlockSupport, truth: BlockSupport) -> int:
    """False positives plus false negatives between two block supports."""
    if est.mask.shape != truth.mask.shape:
        raise ValueError(f"support shapes differ: {est.mask.shape} vs {truth.mask.shape}")
    return int(np.count_nonzero(est.mask != truth.mask))


def rme(mismatch: int, partition: BlockPartition) -> float:
    """Mismatch error relative to the total number of blocks in the grid."""
    total = partition.n_row_blocks * partition.n_col_blocks
    if not 0 <= mismatch <= total:
        raise ValueError(f"mismatch {mismatch} outside [0, {total}]")
    return mismatch / total


def rst(d: int, n: int, m: int) -> float:
    """Trajectory count relative to the system dimension n+m."""
    if n + m <= 0:
        raise ValueError("system dimension must be positive")
    return d / (n + m)


def error_norms(theta_hat: np.ndarray, theta_star: np.ndarray) -> ErrorReport:
    """Max-abs and operator norms of the estimation error.

    ``normalized_2`` divides the operator norm of the error by that of the
    true parameter, which must therefore be nonzero.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    return _error_report(theta_hat, theta_star, _op_norm(theta_star))


def _op_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


def _error_report(theta_hat: np.ndarray, theta_star: np.ndarray, scale: float) -> ErrorReport:
    """:func:`error_norms` given ``_op_norm(theta_star)``, which a sweep computes once per model."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    if theta_hat.shape != theta_star.shape:
        raise ValueError(f"shapes differ: {theta_hat.shape} vs {theta_star.shape}")
    if scale == 0.0:
        raise ValueError("normalized error undefined for a zero true parameter")
    diff = theta_hat - theta_star
    op = _op_norm(diff)
    return ErrorReport(
        linf_elementwise=float(np.abs(diff).max()) if diff.size else 0.0,
        op_norm=op,
        normalized_2=op / scale,
    )
