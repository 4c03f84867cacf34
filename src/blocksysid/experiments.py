"""Config-driven experiment sweeps with machine-readable CSV output.

A sweep crosses horizons, trajectory counts, seeds, and estimators over one
generator family, producing one record per point.  Records are computed
one point after another and written in config order, so a rerun with the
same config is byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields

from .blocks import BlockPartition, _int_tuple, support_pattern
from .lti import (
    SystemModel,
    TrajectoryBatch,
    _generator_params,
    _horizon,
    _regression_batch,
    _seed,
    _simulate_horizons,
    _trajectory_count,
    eigen_ratio,
    gen_mass_spring,
    gen_multi_agent,
    gen_synthetic,
    read_json_object,
)
from .metrics import _error_report, _op_norm, mismatch_error, rme, rst
from .solver import EstimatorConfig, LeastSquaresUndefined, solve_block_regularized, solve_least_squares
from .theory import check_assumptions, lambda_schedule

ESTIMATOR_NAMES = ("block_reg", "least_squares")


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a generator family crossed with horizons, sample counts, seeds."""

    generator: dict
    T_list: tuple[int, ...]
    d_list: tuple[int, ...]
    seeds: tuple[int, ...]
    lambda_mode: str = "schedule"
    estimators: tuple[str, ...] = ("block_reg",)
    standardize: bool = True

    def __post_init__(self):
        _generator_params(self.generator)
        for name, rule in (("T_list", _horizon), ("d_list", _trajectory_count), ("seeds", _seed)):
            values = _int_tuple(name, getattr(self, name))
            object.__setattr__(self, name, tuple(rule(v, f"every entry of {name}") for v in values))
        if not isinstance(self.standardize, bool):
            raise ValueError(f"standardize must be true or false, got {self.standardize!r}")
        if not isinstance(self.estimators, (list, tuple)):
            raise ValueError(f"estimators must be a list of names, got {self.estimators!r}")
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if not self.T_list or not self.d_list or not self.seeds or not self.estimators:
            raise ValueError("T_list, d_list, seeds and estimators must be nonempty")
        for name in self.estimators:
            if name not in ESTIMATOR_NAMES:
                raise ValueError(f"unknown estimator {name!r}")
        _parse_lambda_mode(self.lambda_mode)

    @classmethod
    def from_dict(cls, doc: dict, source: str = "config") -> "ExperimentConfig":
        for key in ("generator", "T_list", "d_list", "seeds"):
            if key not in doc:
                raise ValueError(f"{source}: missing field '{key}'")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"{source}: unknown field(s) {', '.join(map(repr, unknown))}")
        try:
            return cls(**doc)
        except ValueError as err:
            raise ValueError(f"{source}: {err}") from None

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        return cls.from_dict(read_json_object(path), source=path)


@dataclass(frozen=True, kw_only=True)
class ExperimentRecord:
    """One sweep point and its CSV row, field for field; an undefined point keeps the None defaults."""

    generator: str
    gen_params: dict
    n: int
    m: int
    T: int
    d: int
    seed: int
    estimator: str
    status: str
    lambda_d: float | None = None
    mismatch: int | None = None
    rme: float | None = None
    rst: float | None
    linf: float | None = None
    op_norm: float | None = None
    normalized_2: float | None = None
    kappa: float
    gamma: float
    converged: bool | None = None


# Fixed CSV schema: every field of the record, in declaration order.
CSV_COLUMNS = tuple(f.name for f in fields(ExperimentRecord))


def _parse_lambda_mode(mode: str) -> float | None:
    """Returns the fixed weight, or None for the dimension-based schedule."""
    if mode == "schedule":
        return None
    if isinstance(mode, str) and mode.startswith("fixed:"):
        try:
            value = float(mode.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad lambda_mode {mode!r}: expected fixed:<number>") from None
        if not math.isfinite(value) or value < 0:
            raise ValueError("fixed lambda must be finite and nonnegative")
        return value
    raise ValueError(f"bad lambda_mode {mode!r}: expected 'schedule' or 'fixed:<number>'")


def resolve_lambda(mode: str, partition: BlockPartition, d: int) -> float:
    fixed = _parse_lambda_mode(mode)
    if fixed is not None:
        return fixed
    return lambda_schedule(
        partition.max_block_size, partition.n_col_blocks, partition.n_input_blocks, d
    )


def build_model(generator: dict, seed: int) -> SystemModel:
    """Instantiate a benchmark system from a generator description."""
    params, seed = _generator_params(generator), _seed(seed)
    kind = generator["kind"]
    if kind == "synthetic":
        return gen_synthetic(**params, seed=seed)
    if kind == "mass_spring":
        return gen_mass_spring(**params)
    return gen_multi_agent(**params, seed=seed)


def estimate(
    estimator: str, batch: TrajectoryBatch, partition: BlockPartition, lambda_mode: str, standardize: bool
):
    """One estimate of a batch: ``(theta, support, lambda_d, result)``, shared by sweep and solve.

    Least squares gives None for lambda_d and result, and raises
    :class:`LeastSquaresUndefined` when the estimate is not unique.
    """
    if estimator == "least_squares":
        theta = solve_least_squares(batch)
        return theta, support_pattern(theta, partition), None, None
    lam = resolve_lambda(lambda_mode, partition, batch.d)
    result = solve_block_regularized(batch, partition, EstimatorConfig(lambda_d=lam, standardize=standardize))
    return result.theta_hat, result.support, lam, result


def _record(
    config: ExperimentConfig, model: SystemModel, truth: tuple, fixed: dict, estimator: str,
    batch: TrajectoryBatch,
) -> ExperimentRecord:
    """The record of one estimator on one batch, scored against ``truth``: theta*, its support and its norm.

    ``fixed`` holds the fields that every point of the batch's (T, seed) shares.
    """
    row = dict(fixed, d=batch.d, estimator=estimator, rst=rst(batch.d, model.n, model.m))
    try:
        theta, support, lam, result = estimate(
            estimator, batch, model.partition, config.lambda_mode, config.standardize
        )
    except LeastSquaresUndefined:
        return ExperimentRecord(status="undefined", **row)
    theta_star, true_support, theta_star_norm = truth
    mm = mismatch_error(support, true_support)
    errs = _error_report(theta, theta_star, theta_star_norm)
    return ExperimentRecord(
        status="ok",
        lambda_d=lam,
        mismatch=mm,
        rme=rme(mm, model.partition),
        linf=errs.linf_elementwise,
        op_norm=errs.op_norm,
        normalized_2=errs.normalized_2,
        converged=True if result is None else result.converged,
        **row,
    )


def run_experiment(config: ExperimentConfig) -> list[ExperimentRecord]:
    """Run every sweep point and return the records in config order.

    The model, its true parameter, support and operator norm depend on the
    seed only, so they are computed once and shared by every horizon and
    trajectory count.  One simulation per seed, at the largest d, runs
    through its distinct horizons in ascending order (see
    :func:`lti._simulate_horizons`).  Each horizon's batch serves every d
    with its first d rows of X and W and a Y of their own (see
    :func:`lti.simulate_batch`), and every config index with that horizon, as
    do its recovery conditions.  Every view of it is released before the
    next horizon is drawn over its X and W.
    """
    d_max = max(config.d_list)
    points = {}
    for k, seed in enumerate(config.seeds):
        model = build_model(config.generator, seed)
        theta_star = model.stacked()
        truth = (theta_star, support_pattern(theta_star, model.partition), _op_norm(theta_star))
        for T, full in _simulate_horizons(model, config.T_list, d_max, seed):
            assume = check_assumptions(model, T)
            fixed = dict(
                generator=config.generator["kind"],
                gen_params={key: v for key, v in config.generator.items() if key != "kind"},
                n=model.n,
                m=model.m,
                T=T,
                seed=seed,
                kappa=eigen_ratio(assume.lambda_min, assume.lambda_max),
                gamma=assume.gamma,
            )
            for j, d in enumerate(config.d_list):
                batch = full if d == d_max else _regression_batch(full.X[:d], full.W[:d], theta_star)
                records = [
                    _record(config, model, truth, fixed, estimator, batch) for estimator in config.estimators
                ]
                for i in (i for i, t in enumerate(config.T_list) if t == T):
                    points[i, j, k] = records
            del full, batch
    return [rec for key in sorted(points) for rec in points[key]]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


def records_to_csv(records: list[ExperimentRecord]) -> str:
    """Render records with the fixed column schema; field order never drifts."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow([_fmt(getattr(rec, col)) for col in CSV_COLUMNS])
    return out.getvalue()


def write_records_csv(records: list[ExperimentRecord], path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(records_to_csv(records))
