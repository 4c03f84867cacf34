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
import numbers
import time
from dataclasses import dataclass, field, fields

from .blocks import BlockPartition, support_pattern
from .lti import (
    SystemModel,
    TrajectoryBatch,
    _int_value,
    eigen_ratio,
    gen_mass_spring,
    gen_multi_agent,
    gen_synthetic,
    read_json_object,
    simulate_batch,
)
from .metrics import error_norms, mismatch_error, rme, rst
from .solver import EstimatorConfig, LeastSquaresUndefined, solve_block_regularized, solve_least_squares
from .theory import AssumptionReport, check_assumptions, lambda_schedule

# Parameters of each generator kind: the required names, then the optional
# names with their defaults.  All but dt are counts.
GENERATOR_PARAMS = {
    "synthetic": (("n", "w"), {}),
    "mass_spring": (("masses",), {"dt": 0.2}),
    "multi_agent": (("agents", "degree"), {"state_size": 5, "input_size": 5, "dt": 0.2}),
}
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
    output_path: str | None = None

    def __post_init__(self):
        _generator_params(self.generator)
        for name in ("T_list", "d_list", "seeds"):
            object.__setattr__(self, name, _int_tuple(name, getattr(self, name)))
        if not isinstance(self.standardize, bool):
            raise ValueError(f"standardize must be true or false, got {self.standardize!r}")
        if not isinstance(self.estimators, (list, tuple)):
            raise ValueError(f"estimators must be a list of names, got {self.estimators!r}")
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if not self.T_list or not self.d_list or not self.seeds or not self.estimators:
            raise ValueError("T_list, d_list, seeds and estimators must be nonempty")
        if any(t < 2 for t in self.T_list):
            raise ValueError("every horizon must be at least 2")
        if any(d < 1 for d in self.d_list):
            raise ValueError("every trajectory count must be positive")
        if any(seed < 0 for seed in self.seeds):
            raise ValueError(f"every entry of seeds must be nonnegative, got {list(self.seeds)}")
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
        return cls(**doc)

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        return cls.from_dict(read_json_object(path), source=path)


@dataclass(frozen=True)
class ExperimentRecord:
    """One sweep point: parameters, recovery metrics, and diagnostics."""

    generator: str
    gen_params: dict
    n: int
    m: int
    T: int
    d: int
    seed: int
    estimator: str
    status: str
    lambda_d: float | None
    mismatch: int | None
    rme: float | None
    rst: float | None
    linf: float | None
    op_norm: float | None
    normalized_2: float | None
    kappa: float
    gamma: float
    converged: bool | None
    # Wall time stays out of the CSV so that reruns with the same seeds are
    # byte-identical; it remains available on the record.
    wall_time_seconds: float = field(compare=False)


# Fixed CSV schema: the record's compared fields, in declaration order.
CSV_COLUMNS = tuple(f.name for f in fields(ExperimentRecord) if f.compare)


def _int_tuple(name: str, values) -> tuple[int, ...]:
    """A list field of integers."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{name} must be a list of integers, got {values!r}")
    return tuple(_int_value(f"every entry of {name}", v) for v in values)


def _generator_params(generator) -> dict:
    """A generator mapping's parameters, checked against its kind, with its defaults filled in.

    Counts come back as ints, and dt as a finite float.
    """
    if not isinstance(generator, dict) or "kind" not in generator:
        raise ValueError("generator must be a mapping with a 'kind' field")
    kind = generator["kind"]
    if not isinstance(kind, str) or kind not in GENERATOR_PARAMS:
        raise ValueError(f"unknown generator kind {kind!r}")
    required, optional = GENERATOR_PARAMS[kind]
    params = {k: v for k, v in generator.items() if k != "kind"}
    for key in required:
        if key not in params:
            raise ValueError(f"generator {kind!r}: missing parameter {key!r}")
    unknown = sorted(set(params) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"generator {kind!r}: unknown parameter(s) {', '.join(map(repr, unknown))}")
    for key, value in params.items():
        name = f"generator {kind!r} parameter {key!r}"
        if key != "dt":
            params[key] = _int_value(name, value)
        elif isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
        else:
            params[key] = float(value)
    return {**optional, **params}


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
        partition.max_block_size, partition.n_state_blocks, partition.n_input_blocks, d
    )


def build_model(generator: dict, seed: int) -> SystemModel:
    """Instantiate a benchmark system from a generator description."""
    params = _generator_params(generator)
    kind = generator["kind"]
    if kind == "synthetic":
        return gen_synthetic(**params, seed=seed)
    if kind == "mass_spring":
        return gen_mass_spring(N=params["masses"], dt=params["dt"])
    return gen_multi_agent(**params, seed=seed)


def estimate(
    estimator: str, batch: TrajectoryBatch, partition: BlockPartition, lambda_mode: str, standardize: bool
):
    """One estimate of a batch: ``(theta, support, lambda_d, result)``, shared by sweep and solve.

    Least squares gives None for lambda_d and result, marks a block nonzero
    when any entry is, and raises :class:`LeastSquaresUndefined` when the
    estimate is not unique.
    """
    if estimator == "least_squares":
        theta = solve_least_squares(batch)
        return theta, support_pattern(theta, partition, zero_tol=0.0), None, None
    lam = resolve_lambda(lambda_mode, partition, batch.d)
    result = solve_block_regularized(batch, partition, EstimatorConfig(lambda_d=lam, standardize=standardize))
    return result.theta_hat, result.support, lam, result


def _run_point(
    config: ExperimentConfig, model: SystemModel, assume: AssumptionReport, T: int, d: int, seed: int
) -> list[ExperimentRecord]:
    partition = model.partition
    theta_star = model.stacked()
    true_support = support_pattern(theta_star, partition, zero_tol=0.0)
    batch = simulate_batch(model, T, d, seed)
    gen_params = {k: v for k, v in config.generator.items() if k != "kind"}
    base = dict(
        generator=config.generator["kind"],
        gen_params=gen_params,
        n=model.n,
        m=model.m,
        T=T,
        d=d,
        seed=seed,
        kappa=eigen_ratio(assume.lambda_min, assume.lambda_max),
        gamma=assume.gamma,
    )

    records = []
    for estimator in config.estimators:
        start = time.perf_counter()
        scores = dict.fromkeys(("mismatch", "rme", "linf", "op_norm", "normalized_2"))
        try:
            theta, support, lam, result = estimate(
                estimator, batch, partition, config.lambda_mode, config.standardize
            )
        except LeastSquaresUndefined:
            status, lam, converged = "undefined", None, None
        else:
            status, converged = "ok", True if result is None else result.converged
            mm = mismatch_error(support, true_support)
            errs = error_norms(theta, theta_star)
            scores.update(
                mismatch=mm,
                rme=rme(mm, partition),
                linf=errs.linf_elementwise,
                op_norm=errs.op_norm,
                normalized_2=errs.normalized_2,
            )
        records.append(
            ExperimentRecord(
                estimator=estimator,
                status=status,
                lambda_d=lam,
                rst=rst(d, model.n, model.m),
                converged=converged,
                wall_time_seconds=time.perf_counter() - start,
                **scores,
                **base,
            )
        )
    return records


def run_experiment(config: ExperimentConfig) -> list[ExperimentRecord]:
    """Run every sweep point and return the records in config order.

    The model and its recovery conditions depend on the seed and the horizon
    only, so they are computed once and shared by every trajectory count.
    """
    models = {seed: build_model(config.generator, seed) for seed in config.seeds}
    checks = {(T, seed): check_assumptions(models[seed], T) for T in config.T_list for seed in config.seeds}

    return [
        rec
        for T in config.T_list
        for d in config.d_list
        for seed in config.seeds
        for rec in _run_point(config, models[seed], checks[T, seed], T, d, seed)
    ]


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
