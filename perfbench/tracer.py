"""Per-layer spans recorded from outside the package.

``Tracer`` replaces each traced public function of ``blocksysid`` with a
wrapper, at every module namespace that binds it, and restores the originals
on exit.  Each call becomes a span (id, parent id, name, start, end) kept in
memory; a span's self time is its duration minus that of its direct
children, so the self times of one pass sum to the duration of its root span,
``cli.main``.  Work counts are read off arguments and results at the same
boundaries.  A traced name that no longer exists is reported as missing,
never as zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

PACKAGE = "blocksysid"

ROOT = "cli.main"
BLOCK_REG = "solver.solve_block_regularized"
LEAST_SQUARES = "solver.solve_least_squares"
BLOCK_ABS_MAX = "blocks.block_abs_max"
CHECK = "theory.check_assumptions"
INCOHERENCE = "theory.mutual_incoherence"
GENERATORS = ("lti.gen_synthetic", "lti.gen_multi_agent")
SIMULATE = "lti.simulate_batch"
COVARIANCE = "lti.design_covariance"

# Layer -> traced public names, as "<home module>.<name>".  Work below
# cli.main that no traced name covers (config parsing, CSV writing, record
# building) is self time of the nearest traced caller.
LAYERS = {
    "cli": (ROOT,),
    "experiments": ("experiments.run_experiment", "experiments.build_model"),
    "solver": (BLOCK_REG, LEAST_SQUARES),
    "blocks": (BLOCK_ABS_MAX,),
    "theory": (CHECK, INCOHERENCE),
    "lti": (*GENERATORS, SIMULATE, COVARIANCE),
    "metrics": ("metrics.error_norms", "metrics.mismatch_error", "metrics.rme", "metrics.rst"),
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _count_work(name: str, info: dict, result) -> None:
    if name == BLOCK_REG:
        info["iterations"] = int(result.iterations.sum())
        info["iterations_max"] = int(result.iterations.max()) if result.iterations.size else 0
        info["columns"] = int(result.iterations.size)
    elif name == BLOCK_ABS_MAX:
        info["blocks"] = int(result.size)
    elif name == SIMULATE:
        info["trajectories"] = int(result.d)


class Tracer:
    """Context manager that traces ``LAYERS`` while it is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name: str, fn):
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(len(spans), stack[-1].id if stack else None, name)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span.info["raised"] = type(err).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            _count_work(name, span.info, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [
            mod for key, mod in list(sys.modules.items()) if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for names in LAYERS.values():
            for qualified in names:
                home, attr = qualified.split(".")
                fn = getattr(importlib.import_module(f"{PACKAGE}.{home}"), attr, None)
                if fn is None:
                    self.missing.append(qualified)
                    continue
                wrapper = self._wrap(qualified, fn)
                for mod in modules:
                    if vars(mod).get(attr) is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per traced name."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.seconds
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += span.seconds - covered[span.id]
    return totals


class _PassView:
    """Sums over the spans of one traced pass, by traced name."""

    def __init__(self, spans: list[Span]):
        self.selfs = self_times(spans)
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        for span in spans:
            self.by_name[span.name].append(span)

    def secs(self, *names: str) -> float:
        return sum(self.selfs.get(n, 0.0) for n in names)

    def calls(self, *names: str) -> int:
        return sum(len(self.by_name[n]) for n in names)

    def total(self, name: str, key: str) -> int:
        return sum(s.info.get(key, 0) for s in self.by_name[name])

    def largest(self, name: str, key: str) -> int:
        return max((s.info.get(key, 0) for s in self.by_name[name]), default=0)

    def raised(self, name: str, error: str) -> int:
        return sum(s.info.get("raised") == error for s in self.by_name[name])


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# Per-layer metric -> (unit, traced names it needs, value of one pass).  The
# "_s" metrics are self times and together cover every traced name once.
LAYER_METRICS = {
    "solver.block_reg_s": ("s", (BLOCK_REG,), lambda v: v.secs(BLOCK_REG)),
    "solver.block_reg_calls": ("count", (BLOCK_REG,), lambda v: v.calls(BLOCK_REG)),
    "solver.col_iterations": ("count", (BLOCK_REG,), lambda v: v.total(BLOCK_REG, "iterations")),
    "solver.col_iterations_max": ("count", (BLOCK_REG,), lambda v: v.largest(BLOCK_REG, "iterations_max")),
    "solver.kkt_evals": (
        "count", (BLOCK_REG,), lambda v: v.total(BLOCK_REG, "iterations") + v.total(BLOCK_REG, "columns")
    ),
    "solver.us_per_col_iteration": (
        "us", (BLOCK_REG,), lambda v: 1e6 * _per(v.secs(BLOCK_REG), v.total(BLOCK_REG, "iterations"))
    ),
    "solver.least_squares_s": ("s", (LEAST_SQUARES,), lambda v: v.secs(LEAST_SQUARES)),
    "solver.ls_defined_frac": (
        "frac", (LEAST_SQUARES,),
        lambda v: _per(v.calls(LEAST_SQUARES) - v.raised(LEAST_SQUARES, "LeastSquaresUndefined"), v.calls(LEAST_SQUARES)),
    ),
    "blocks.block_abs_max_s": ("s", (BLOCK_ABS_MAX,), lambda v: v.secs(BLOCK_ABS_MAX)),
    "blocks.block_abs_max_calls": ("count", (BLOCK_ABS_MAX,), lambda v: v.calls(BLOCK_ABS_MAX)),
    "blocks.blocks_scanned": ("count", (BLOCK_ABS_MAX,), lambda v: v.total(BLOCK_ABS_MAX, "blocks")),
    "theory.check_s": ("s", (CHECK,), lambda v: v.secs(CHECK)),
    "theory.check_calls": ("count", (CHECK,), lambda v: v.calls(CHECK)),
    "theory.incoherence_s": ("s", (INCOHERENCE,), lambda v: v.secs(INCOHERENCE)),
    "lti.generate_s": ("s", GENERATORS, lambda v: v.secs(*GENERATORS)),
    "lti.simulate_s": ("s", (SIMULATE,), lambda v: v.secs(SIMULATE)),
    "lti.design_covariance_s": ("s", (COVARIANCE,), lambda v: v.secs(COVARIANCE)),
    "lti.trajectories": ("count", (SIMULATE,), lambda v: v.total(SIMULATE, "trajectories")),
    "lti.us_per_trajectory": (
        "us", (SIMULATE,), lambda v: 1e6 * _per(v.secs(SIMULATE), v.total(SIMULATE, "trajectories"))
    ),
    "metrics.self_s": ("s", LAYERS["metrics"], lambda v: v.secs(*LAYERS["metrics"])),
    "metrics.calls": ("count", LAYERS["metrics"], lambda v: v.calls(*LAYERS["metrics"])),
    "experiments.self_s": ("s", LAYERS["experiments"], lambda v: v.secs(*LAYERS["experiments"])),
    "cli.self_s": ("s", LAYERS["cli"], lambda v: v.secs(*LAYERS["cli"])),
}


def layer_metrics(spans: list[Span], missing: list[str]) -> dict[str, float | None]:
    """Per-layer self times and work counts of one traced pass; None where a name is missing."""
    view = _PassView(spans)
    return {
        name: None if any(n in missing for n in needs) else float(value(view))
        for name, (_, needs, value) in LAYER_METRICS.items()
    }
