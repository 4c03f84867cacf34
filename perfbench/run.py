"""Sweep-level benchmark of blocksysid.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_scalar --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --trace 1

One closed-loop caller runs whole sweeps ("passes") back to back through
``blocksysid.cli.main(["sweep", ...])`` with the library defaults but one
BLAS thread, for about ``--seconds`` and at least two passes, timing one
host-speed probe (hostspeed.py) before each pass.  Every pass's CSV is
checked (see check.py).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of tracer.py.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where attempted and failed
count sweep points over all passes.  Details, the environment and the spans
go to perfbench/out/.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads and inherited by the set-up probes.
# With OpenBLAS's default of one thread per core, the solver's 200 x 200
# matrix-vector products split across both cores of the 2-vCPU machine, and
# a pass's time then hangs on the other tenants' load on both cores and on
# thread hand-off, not on the program.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import hostspeed  # noqa: E402
from check import check_pass, parse_rows  # noqa: E402
from tracer import LAYER_METRICS, ROOT as ROOT_SPAN, Tracer, layer_metrics  # noqa: E402
from workloads import WARMUP, WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference"

SETUP_PROBES = 7  # fresh interpreters per run; setup_s is their median, host-speed corrected
MIN_PASSES = 2  # two passes of one run must give identical rows
WORKERS_ENV_VAR = "BLOCKSYSID_WORKERS"

END_TO_END_UNITS = {"setup_s": "s", "points_per_s": "1/s", "peak_rss_mb": "MB"}
# Printed with the end-to-end metrics, not reported to BENCHMARK.json.
INFO_UNITS = {"setup_wall_s": "s", "points_per_wall_s": "1/s", "probe_s": "s", "points_failed_frac": "frac"}
HARNESS_LAYER_UNITS = {
    "experiments.points": "count",
    "experiments.csv_identical": "flag",
    "trace.pass_s": "s",
    "trace.overhead_frac": "frac",
}


def load_cli():
    """Import the front end from this checkout's sources, never an installed copy."""
    if not (SRC / "blocksysid" / "__init__.py").is_file():
        raise SystemExit(f"error: no blocksysid sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from blocksysid import cli

    if Path(cli.__file__).resolve().parent != (SRC / "blocksysid").resolve():
        raise SystemExit(f"error: imported blocksysid from {cli.__file__}, not from {SRC}")
    return cli


def _loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked through its C API."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_version = None
    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_rev": rev,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": _loadavg(),
    }


def quartiles(values: list[float]) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def setup_sample(config_path: Path, warmup_path: Path) -> float:
    # No timeout: with one, subprocess polls the child in 50 ms steps and the
    # sample is rounded up to that grid.
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), str(config_path),
         str(warmup_path), str(OUT / "setup-probe.csv")],
        check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


class Pass(NamedTuple):
    probe_s: float  # host-speed probe timed just before the pass
    traced: bool
    seconds: float
    text: str | None  # the CSV, or None when the sweep failed
    error: str | None
    tracer: Tracer | None


def run_pass(cli, config_path: Path, out_csv: Path) -> tuple[float, str | None, str | None]:
    """One sweep through the front end: (seconds, CSV text or None, error or None)."""
    out_csv.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        code = cli.main(["sweep", "--config", str(config_path), "--out", str(out_csv)])
        error = None if code == 0 else f"cli.main returned {code}"
    except Exception as err:  # a raising sweep fails its points; the benchmark goes on
        traceback.print_exc()
        error = f"cli.main raised {err!r}"
    seconds = time.perf_counter() - start
    if error is None and not out_csv.is_file():
        error = "cli.main wrote no CSV"
    return seconds, None if error else out_csv.read_text(), error


def run_passes(cli, config_path: Path, out_csv: Path, seconds: float, trace: bool) -> list[Pass]:
    """Closed loop: the next pass starts when the last one ends.

    Another pass starts only while a typical one, with its probe, still ends
    within ``seconds``, so a run lasts about ``seconds`` whatever the pass
    length.  With ``trace`` every second pass is traced.
    """
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + statistics.median(p.probe_s + p.seconds for p in passes) <= seconds
    ):
        probe_s = hostspeed.probe()
        if trace and len(passes) % 2 == 1:
            with Tracer() as tracer:
                passes.append(Pass(probe_s, True, *run_pass(cli, config_path, out_csv), tracer))
        else:
            passes.append(Pass(probe_s, False, *run_pass(cli, config_path, out_csv), None))
    return passes


def check_passes(passes: list[Pass], workload, seed: int) -> tuple[list[str], bool, str | None]:
    """(one line per failed point and pass, CSV identical flag, reference file name)."""
    ref_path = REFERENCE / f"{workload.name}-seed{seed}.csv"
    reference_text = ref_path.read_text() if ref_path.is_file() else None
    reference = parse_rows(reference_text) if reference_text is not None else None
    first = parse_rows(passes[0].text) if passes[0].text is not None else None
    failures = []
    for k, p in enumerate(passes):
        rows = parse_rows(p.text) if p.text is not None else None
        bad = check_pass(rows, workload.points_of(seed), workload.estimators, first if k else None, reference)
        failures += [f"pass {k}: {p.error or reason}" for reason in bad.values()]
    # Against the reference where one exists, else against the run's first pass.
    baseline = reference_text if reference_text is not None else passes[0].text
    identical = all(p.text == baseline for p in passes)
    return failures, identical, ref_path.name if reference_text is not None else None


def per_layer(passes: list[Pass], points: int, identical: bool, spans_path: Path):
    """(metrics, units, problems, missing names) of a traced run; spans go to ``spans_path``."""
    traced = [p for p in passes if p.traced]
    per_pass = [layer_metrics(p.tracer.spans, p.tracer.missing) for p in traced]
    metrics, units, problems = {}, {}, []
    for name, (unit, _, _) in LAYER_METRICS.items():
        got = [m[name] for m in per_pass]
        units[name] = unit
        metrics[name] = None if got[0] is None else statistics.median(got)
        if unit == "count" and len(set(got)) > 1:
            problems.append(f"{name} differs across traced passes: {got}")
    for p, layer in zip(traced, per_pass):
        selfs = sum(v for k, v in layer.items() if v is not None and LAYER_METRICS[k][0] == "s")
        root = sum(s.seconds for s in p.tracer.spans if s.parent is None and s.name == ROOT_SPAN)
        if abs(selfs - root) > 1e-6 * max(root, 1.0):
            problems.append(f"self times sum to {selfs:.6f} s, traced pass took {root:.6f} s")
    traced_s = statistics.median(p.seconds for p in traced)
    metrics["experiments.points"] = float(points)
    metrics["experiments.csv_identical"] = float(identical)
    metrics["trace.pass_s"] = traced_s
    metrics["trace.overhead_frac"] = traced_s / statistics.median(p.seconds for p in passes if not p.traced) - 1.0
    units.update(HARNESS_LAYER_UNITS)
    with open(spans_path, "w") as fh:
        for k, p in enumerate(passes):
            for s in p.tracer.spans if p.traced else ():
                fh.write(json.dumps({"pass": k, "id": s.id, "parent": s.parent, "name": s.name,
                                     "start": s.start, "end": s.end, **s.info}) + "\n")
    missing = sorted({n for p in traced for n in p.tracer.missing})
    return metrics, units, problems, missing


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run, check and measure one workload; returns the detail document."""
    cli = load_cli()
    os.environ.pop(WORKERS_ENV_VAR, None)
    OUT.mkdir(exist_ok=True)
    env = environment()
    tag = f"{workload.name}-seed{seed}"
    config_path = write_json(OUT / f"{tag}.config.json", workload.config(seed))
    warmup_path = write_json(OUT / "warmup.config.json", WARMUP.config(seed))

    setup = [] if trace else [setup_sample(config_path, warmup_path) for _ in range(SETUP_PROBES)]
    run_pass(cli, warmup_path, OUT / "warmup.csv")
    passes = run_passes(cli, config_path, OUT / f"{tag}.pass.csv", seconds, trace)
    failures, identical, reference = check_passes(passes, workload, seed)
    attempted = workload.points * len(passes)

    if trace:
        metrics, units, problems, missing = per_layer(passes, workload.points, identical, OUT / f"{tag}.spans.jsonl")
        stats = {}
    else:
        # Each pass's rate is scaled by its own probe to the host speed at
        # which the probe takes REFERENCE_S: the other tenants slow the probe
        # and the pass next to it alike, and the run's median drops the
        # passes they hit unevenly.  The set-up samples, taken before any
        # probe, are scaled by the run's median probe.
        slowdown = statistics.median(p.probe_s for p in passes) / hostspeed.REFERENCE_S
        stats = {
            "setup_s": quartiles([t / slowdown for t in setup]),
            "points_per_s": quartiles(
                [workload.points / p.seconds * p.probe_s / hostspeed.REFERENCE_S for p in passes]
            ),
            "peak_rss_mb": quartiles([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]),
        }
        metrics = {k: v["median"] for k, v in stats.items()}
        units, problems, missing = END_TO_END_UNITS, [], []
        stats["setup_wall_s"] = quartiles(setup)
        stats["points_per_wall_s"] = quartiles([workload.points / p.seconds for p in passes])
        stats["probe_s"] = quartiles([p.probe_s for p in passes])
        stats["points_failed_frac"] = {"median": len(failures) / attempted, "n": attempted}

    env["loadavg_end"] = _loadavg()
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k], **({"missing": True} if v is None else {})}
                    for k, v in metrics.items()},
    }
    detail = {
        "workload": workload.name, "seed": seed, "trace": int(trace), "env": env,
        "pass_seconds": [p.seconds for p in passes], "pass_traced": [p.traced for p in passes],
        "probe_seconds": [p.probe_s for p in passes],
        "setup_seconds": setup, "stats": stats, "failures": failures, "problems": problems,
        "missing": missing, "reference": reference, "result": result,
    }
    write_json(OUT / f"{tag}.trace{int(trace)}.json", detail)
    return detail


def print_detail(detail: dict) -> None:
    result = detail["result"]
    print(f"{detail['workload']} seed={detail['seed']} trace={detail['trace']} "
          f"passes={len(detail['pass_seconds'])} points={result['attempted']} failed={result['failed']} "
          f"reference={detail['reference'] or 'none (invariants only)'}")
    if detail["trace"]:
        for name, m in result["metrics"].items():
            value = "missing" if m["value"] is None else f"{m['value']:.6g}"
            print(f"  {name:30s} {value:>14s} {m['unit']}")
        for name in detail["missing"]:
            print(f"  missing: {name} no longer exists in blocksysid")
    else:
        for name, st in detail["stats"].items():
            unit = END_TO_END_UNITS.get(name) or INFO_UNITS[name]
            quart = f"q1 {st['q1']:.6g}  q3 {st['q3']:.6g}  " if "q1" in st else ""
            print(f"  {name:20s} {st['median']:12.6g} {unit:5s} ({quart}n={st['n']})")
    for line in detail["failures"][:1] + detail["problems"]:
        print(f"  FAIL {line}")
    print("env " + json.dumps(detail["env"], sort_keys=True))


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process, so each reports its own peak memory."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
        if done.returncode != 0:
            raise SystemExit(f"error: workload {name} exited with {done.returncode}\n{done.stderr}")
        result = json.loads(done.stdout.splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=36.0,
        help="measure about this long: passes start while a typical one ends in time, at least two",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        detail = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        print_detail(detail)
        result = detail["result"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
