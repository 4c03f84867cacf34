"""Command-line front end: gen, solve, check, and sweep subcommands."""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import sys

from .lti import GENERATOR_PARAMS, load_batch_csv, load_model, model_to_dict, simulate_batch, write_json
from .experiments import (
    ESTIMATOR_NAMES,
    ExperimentConfig,
    _parse_lambda_mode,
    build_model,
    estimate,
    run_experiment,
    write_records_csv,
)
from .solver import kkt_residual
from .theory import check_assumptions

# One gen flag per generator parameter, counts as ints; kinds and defaults come from the table.
_GEN_FLAGS = (
    ("n", "state dimension"),
    ("w", "band width"),
    ("masses", "mass count"),
    ("agents", "agent count"),
    ("degree", "neighbors per agent"),
    ("state_size", "per-agent state block size"),
    ("input_size", "per-agent input block size"),
    ("dt", "forward-Euler sampling time"),
)


def _param_help(name: str, text: str) -> str:
    """Help for a gen flag: the kinds that take the parameter, with their defaults."""
    uses = [
        kind + (f" (default {optional[name]})" if name in optional else "")
        for kind, (required, optional, _) in GENERATOR_PARAMS.items()
        if name in required or name in optional
    ]
    return f"{text}: {', '.join(uses)}"


def _lambda_arg(text: str) -> str:
    """Type of ``solve --lambda``: the sweep's lambda_mode, 'schedule' for 'auto', else 'fixed:<text>'."""
    mode = "schedule" if text == "auto" else f"fixed:{text}"
    try:
        _parse_lambda_mode(mode)
    except ValueError:
        message = f"expected 'auto' or a finite, nonnegative number, got {text!r}"
        raise argparse.ArgumentTypeError(message) from None
    return mode


@functools.cache
def _openblas() -> tuple | None:
    """(get, set) of the thread count of the OpenBLAS that numpy loaded, or None where none is found."""
    try:
        with open("/proc/self/maps") as fh:
            maps = [line.rstrip("\n").split(maxsplit=5) for line in fh]  # the sixth field, the path, may hold spaces
        libs = sorted({fields[5] for fields in maps if len(fields) == 6 and "openblas" in fields[5].lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:  # a mapping ctypes cannot load, such as a deleted file
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get, put = (getattr(handle, name.format(verb), None) for verb in ("get", "set"))
            if get is not None and put is not None:
                return get, put
    return None


def _cmd_gen(args) -> int:
    # every flag given goes to the generator, whose parameter rule rejects one its kind does not take
    gen = {name: getattr(args, name) for name, _ in _GEN_FLAGS if getattr(args, name) is not None}
    if args.seed is not None and args.generator == "mass_spring":  # the one generator with nothing random
        raise ValueError("gen --generator mass_spring takes no --seed: the model has no random part")
    write_json(model_to_dict(build_model({"kind": args.generator, **gen}, args.seed or 0)), args.out)
    return 0


def _cmd_solve(args) -> int:
    model = load_model(args.model)
    if args.batch:
        if args.T is not None or args.d is not None:
            raise ValueError("solve takes --batch, or --T and --d to simulate one, but not both")
        if args.seed is not None:
            raise ValueError("solve --batch takes no --seed, which seeds the simulation that --batch replaces")
        batch = load_batch_csv(args.batch)
    else:
        if args.T is None or args.d is None:
            raise ValueError("solve needs --batch, or --T and --d to simulate one")
        batch = simulate_batch(model, args.T, args.d, args.seed or 0)
    theta, support, lam, result = estimate(
        args.estimator, batch, model.partition, args.lambda_d, args.standardize
    )
    if result is None:  # least squares: certified at lambda 0, which the sweep does not pay for
        lam, residual, converged = 0.0, kkt_residual(theta, batch, model.partition, 0.0), True
    else:
        residual, converged = result.kkt_residual, result.converged
    doc = {
        "theta_hat": theta.tolist(),
        "support_mask": support.mask.astype(int).tolist(),
        "lambda_d": float(lam),
        "kkt_residual": float(residual),
    }
    write_json(doc, args.out)
    if not converged:
        print(f"warning: solver hit the iteration cap (kkt residual {residual:.3e})", file=sys.stderr)
    return 0


def _cmd_check(args) -> int:
    report = check_assumptions(load_model(args.model), args.T)
    write_json(dataclasses.asdict(report), args.out)
    return 0


def _cmd_sweep(args) -> int:
    records = run_experiment(ExperimentConfig.from_json_file(args.config))
    write_records_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocksysid",
        description="Simulate sparse block LTI systems and identify them from sample trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="emit a benchmark system as a model JSON file")
    p_gen.add_argument("--generator", required=True, choices=tuple(GENERATOR_PARAMS))
    for name, text in _GEN_FLAGS:
        p_gen.add_argument(
            "--" + name.replace("_", "-"), type=float if name == "dt" else int, help=_param_help(name, text)
        )
    p_gen.add_argument("--seed", type=int, help="model seed (default 0); mass_spring takes none")
    p_gen.add_argument("--out", help="output path (stdout when omitted)")
    p_gen.set_defaults(func=_cmd_gen)

    p_solve = sub.add_parser("solve", help="one-shot estimate from a model (simulated or loaded batch)")
    p_solve.add_argument("--model", required=True, help="model JSON file")
    p_solve.add_argument("--batch", help="batch CSV file; otherwise simulate with --T/--d/--seed")
    p_solve.add_argument("--T", type=int, help="horizon for simulation")
    p_solve.add_argument("--d", type=int, help="trajectory count for simulation")
    p_solve.add_argument("--seed", type=int, help="seed of the simulated batch (default 0)")
    p_solve.add_argument(
        "--lambda",
        dest="lambda_d",
        type=_lambda_arg,
        default="auto",
        help="regularization weight, or 'auto' for the dimension-based schedule",
    )
    p_solve.add_argument("--estimator", choices=ESTIMATOR_NAMES, default="block_reg")
    p_solve.add_argument(
        "--standardize",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="scale design columns to unit std before solving (matches the sweep runner)",
    )
    p_solve.add_argument("--out", help="output path (stdout when omitted)")
    p_solve.set_defaults(func=_cmd_solve)

    p_check = sub.add_parser("check", help="recovery-condition report for a model")
    p_check.add_argument("--model", required=True, help="model JSON file")
    p_check.add_argument("--T", type=int, required=True, help="horizon")
    p_check.add_argument("--out", help="output path (stdout when omitted)")
    p_check.set_defaults(func=_cmd_check)

    p_sweep = sub.add_parser("sweep", help="run a full experiment sweep from a config file")
    p_sweep.add_argument("--config", required=True, help="sweep config JSON file")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    """Run one command with numpy's OpenBLAS on one thread.

    So the output's bytes do not depend on the thread count that OpenBLAS
    started with; the caller's count is set again on return.
    """
    args = build_parser().parse_args(argv)
    blas = _openblas()
    if blas is None:
        print("warning: no OpenBLAS found to run on one thread; output may depend on the BLAS thread count",
              file=sys.stderr)
    else:
        threads = blas[0]()
        blas[1](1)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        if blas is not None:
            blas[1](threads)
