"""Recovery-condition checkers and the regularization/sample-count schedules.

The exact-recovery analysis of the block-regularized estimator rests on four
conditions evaluated on the design-row covariance and the true parameter:
mutual incoherence of the off-support covariance rows (A1), bounded extreme
eigenvalues (A2), a positive floor on the nonzero-block magnitudes (A3), and
polynomially bounded block sizes (A4, asymptotic; reported informationally).

A1 is measured in the norm the primal-dual witness needs.  The penalty is a
sum of block max-abs norms, whose dual on one block is the entrywise l1
norm, so a subgradient block Z_k on the support has ||Z_k||_1 <= 1.  On an
off-support block b the witness extends the dual as Z_b = C^T Z_S with
C = Sigma_SS^{-1} Sigma_Sb, and

    ||C^T Z_S||_1 <= sum_{k in S} max_{s in k} sum_{r in b} |C_sr|,

with equality attainable when the block column is at least as wide as the
number of on-support blocks.  A1 asks this bound to stay below one.  On unit
blocks it is the usual l1 norm of the regression coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import BlockPartition, BlockSupport, _int_value, _real_value, block_abs_max, support_pattern
from .lti import SystemModel, design_covariance


@dataclass(frozen=True)
class AssumptionReport:
    """Scalar summary of the recovery conditions for one model and horizon."""

    gamma: float
    lambda_min: float
    lambda_max: float
    t_min: float
    alpha_n: float
    alpha_m: float
    satisfied: dict


def mutual_incoherence(
    sigma_tilde: np.ndarray, partition: BlockPartition, support: BlockSupport
) -> float:
    """Incoherence margin gamma of the design covariance against a support.

    For each block column, the rows of ``sigma_tilde`` belonging to each
    off-support block b are regressed on the on-support principal submatrix,
    giving coefficients C = Sigma_SS^{-1} Sigma_Sb.  The block's incoherence
    is sum over on-support blocks k of max over rows s of k of
    sum_{r in b} |C_sr|: the largest l1 norm the witness dual C^T Z_S can
    take on b when every on-support subgradient block has l1 norm one.
    gamma is one minus the largest such value; gamma > 0 is the
    recoverability condition.  On unit blocks the inner max is over a single
    row and the value is the entrywise l1 norm of C.
    """
    sigma_tilde = np.asarray(sigma_tilde, dtype=float)
    p_total = sum(partition.row_sizes)
    if sigma_tilde.shape != (p_total, p_total):
        raise ValueError(f"covariance must be {p_total}x{p_total}, got {sigma_tilde.shape}")
    if not support.matches(partition):
        raise ValueError("support mask shape does not match the partition")
    sizes = np.asarray(partition.row_sizes)
    worst = 0.0
    for j, on_blocks in enumerate(support.mask.T):
        on = np.repeat(on_blocks, sizes)  # per scalar row
        idx_on = np.flatnonzero(on)
        idx_off = np.flatnonzero(~on)
        if idx_on.size == 0 or idx_off.size == 0:
            continue
        sigma_on = sigma_tilde[idx_on]
        try:
            coeffs = np.linalg.solve(sigma_on[:, idx_on], sigma_on[:, idx_off])
        except np.linalg.LinAlgError:
            raise ValueError(
                f"incoherence undefined: singular on-support covariance in block column {j + 1}"
            ) from None
        # rows: on-support rows s; columns: off-support blocks b; entries
        # sum_{r in b} |C_sr|.  Keep each on-support block's largest row and
        # sum over the on-support blocks.
        on_sizes, off_sizes = sizes[on_blocks], sizes[~on_blocks]
        row_l1 = np.add.reduceat(np.abs(coeffs), np.cumsum(off_sizes) - off_sizes, axis=1)
        row_l1 = np.maximum.reduceat(row_l1, np.cumsum(on_sizes) - on_sizes, axis=0)
        worst = max(worst, float(row_l1.sum(axis=0).max()))
    return 1.0 - worst


def min_block_magnitude(theta_star: np.ndarray, partition: BlockPartition) -> float:
    """Smallest max-abs entry among the nonzero blocks of the true parameter."""
    maxima = block_abs_max(theta_star, partition)
    nonzero = maxima[maxima > 0]
    if nonzero.size == 0:
        raise ValueError("t_min undefined: the parameter grid has no nonzero block")
    return float(nonzero.min())


def _block_count(n_bar, m_bar) -> int:
    """n_bar + m_bar: two nonnegative integers that count at least one block between them."""
    total = 0
    for name, value in (("n_bar", n_bar), ("m_bar", m_bar)):
        if (count := _int_value(name, value)) < 0:
            raise ValueError(f"{name} must be nonnegative, got {count}")
        total += count
    if total < 1:
        raise ValueError("need at least one block")
    return total


def lambda_schedule(D: int, n_bar: int, m_bar: int, d: int) -> float:
    """Regularization weight sqrt(2 (D^2 + D log(n_bar+m_bar)) / d).

    Parameter-free default for the block-regularized estimator: it decays
    as 1/sqrt(d) and grows with the block size and the log of the block
    count, so no per-instance tuning is needed.
    """
    D, d = _int_value("D", D), _int_value("d", d)
    total = _block_count(n_bar, m_bar)
    if d < 1:
        raise ValueError("d must be at least 1")
    if D < 1:
        raise ValueError("D must be at least 1")
    return math.sqrt(2.0 * (D * D + D * math.log(total)) / d)


def sample_threshold(kappa: float, k_max: int, D: int, n_bar: int, m_bar: int, delta: float) -> int:
    """Sample-count threshold for reliable support recovery.

    Returns ``ceil(kappa^2 * k_max * (D log(n_bar+m_bar) + D^2 log(1/delta)))``,
    the bound with its absolute constant, which is not derivable, set to one.
    A bound past the float range is a ValueError that names kappa, k_max and D.
    """
    kappa, delta = _real_value("kappa", kappa), _real_value("delta", delta)
    k_max, D = _int_value("k_max", k_max), _int_value("D", D)
    total = _block_count(n_bar, m_bar)
    if not 0 < kappa < math.inf or k_max <= 0 or D <= 0:
        raise ValueError(f"kappa (finite), k_max and D must be positive, got {kappa!r}, {k_max!r}, {D!r}")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    try:  # an infinite bound, or a count past the float range, overflows
        k = float(kappa)  # a numpy scalar would warn on overflow, not raise
        return math.ceil(k * k * k_max * (D * math.log(total) + D * D * math.log(1.0 / float(delta))))
    except OverflowError:
        message = f"sample threshold overflows a float at kappa={kappa!r}, k_max={k_max!r}, D={D!r}"
        raise ValueError(message) from None


def check_assumptions(model: SystemModel, T: int) -> AssumptionReport:
    """Evaluate the recovery conditions of a model at horizon T."""
    partition = model.partition
    theta_star = model.stacked()
    report = design_covariance(model, T)
    support = support_pattern(theta_star, partition)
    gamma = mutual_incoherence(report.row_cov, partition, support)
    t_min = min_block_magnitude(theta_star, partition)

    total_blocks = partition.n_row_blocks
    log_total = math.log(total_blocks) if total_blocks > 1 else 0.0
    if log_total > 0:
        alpha_n = math.log(partition.max_state_block) / log_total
        alpha_m = (
            math.log(partition.max_input_block) / log_total if partition.max_input_block else 0.0
        )
    else:
        alpha_n = float("nan")
        alpha_m = float("nan")

    satisfied = {
        "A1": bool(gamma > 0.0),
        "A2": bool(report.kappa < math.inf),
        "A3": bool(t_min > 0.0),
    }
    return AssumptionReport(
        gamma=gamma,
        lambda_min=report.lambda_min,
        lambda_max=report.lambda_max,
        t_min=t_min,
        alpha_n=alpha_n,
        alpha_m=alpha_m,
        satisfied=satisfied,
    )
