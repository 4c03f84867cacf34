"""Simulation and block-regularized identification of sparse LTI systems."""

from types import ModuleType as _ModuleType

from .blocks import (
    BlockPartition,
    BlockSupport,
    block_range,
    support_pattern,
)
from .lti import (
    CovarianceReport,
    SystemModel,
    TrajectoryBatch,
    design_covariance,
    gen_mass_spring,
    gen_multi_agent,
    gen_synthetic,
    load_batch_csv,
    load_model,
    save_batch_csv,
    simulate_batch,
)
from .metrics import ErrorReport, error_norms, mismatch_error, rme, rst
from .solver import (
    EstimateResult,
    EstimatorConfig,
    LeastSquaresUndefined,
    PdwReport,
    kkt_residual,
    pdw_check,
    project_l1_ball,
    prox_linf,
    solve_block_regularized,
    solve_least_squares,
)
from .theory import (
    AssumptionReport,
    check_assumptions,
    lambda_schedule,
    min_block_magnitude,
    mutual_incoherence,
    sample_threshold,
)
from .experiments import (
    ExperimentConfig,
    ExperimentRecord,
    run_experiment,
    write_records_csv,
)

# The public names are the functions and classes imported above.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

__version__ = "0.1.0"
