"""Correctness checks on the sweep CSV of each benchmark pass.

A point is one (T, d, seed) of the sweep and owns one row per estimator.  A
point fails when its pass did not produce a CSV, when its rows are not one per
configured estimator, when a block_reg row has ``converged=false``, when least squares is defined or undefined on the wrong
side of d = n+m, when a row differs from the run's first pass, or when a row
differs from the reference CSV recorded for the seed (if there is one).
"""

from __future__ import annotations

import csv
import io
import math

# Fields the reference must match character for character: the support, the
# model constants and the status of each fit.
EXACT_FIELDS = (
    "generator", "gen_params", "n", "m", "T", "d", "seed", "estimator",
    "status", "lambda_d", "mismatch", "rme", "rst", "kappa", "gamma", "converged",
)
# Error norms depend on the solver's last bits.  The block_reg solve stops at
# a KKT residual of 1e-7 on a possibly rank-deficient design, so a sound change
# of step size moves these norms by far more than rounding but far less than
# this tolerance.
CLOSE_FIELDS = ("linf", "op_norm", "normalized_2")
REL_TOL = 1e-4


def parse_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def point_key(row: dict) -> tuple[str, str, str]:
    return row["T"], row["d"], row["seed"]


def group_points(rows: list[dict]) -> dict[tuple, list[dict]]:
    points: dict[tuple, list[dict]] = {}
    for row in rows:
        points.setdefault(point_key(row), []).append(row)
    return points


def _close(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    return math.isfinite(g) and math.isfinite(w) and abs(g - w) <= REL_TOL * max(abs(w), 1e-300)


def compare_row(row: dict, ref: dict) -> str | None:
    """The first field where ``row`` departs from ``ref``, or None."""
    for name in EXACT_FIELDS:
        if row.get(name) != ref.get(name):
            return f"{name}={row.get(name)!r}, reference {ref.get(name)!r}"
    for name in CLOSE_FIELDS:
        if not _close(row.get(name, ""), ref.get(name, "")):
            return f"{name}={row.get(name)!r}, reference {ref.get(name)!r} (rel tol {REL_TOL:g})"
    return None


def invariant_error(row: dict) -> str | None:
    """Properties every row has on every seed, reference or not."""
    if row["estimator"] == "block_reg" and row["converged"] != "true":
        return f"converged={row['converged']!r}: block_reg hit the iteration cap"
    if row["estimator"] == "least_squares":
        below = int(row["d"]) < int(row["n"]) + int(row["m"])
        if below != (row["status"] == "undefined"):
            return f"status={row['status']!r} with d={row['d']}, n+m={int(row['n']) + int(row['m'])}"
    return None


def _point_error(
    rows: list[dict], estimators: tuple[str, ...], first: list[dict] | None, reference: list[dict] | None
) -> str | None:
    got = tuple(row["estimator"] for row in rows)
    if got != estimators:
        return f"point T={rows[0]['T']} d={rows[0]['d']} seed={rows[0]['seed']}: estimators {got}, expected {estimators}"
    for idx, row in enumerate(rows):
        where = f"row T={row['T']} d={row['d']} seed={row['seed']} estimator={row['estimator']}"
        reason = invariant_error(row)
        if reason is None and first is not None and (idx >= len(first) or row != first[idx]):
            reason = "differs from the first pass of this run"
        if reason is None and reference is not None:
            reason = compare_row(row, reference[idx]) if idx < len(reference) else "not in the reference"
        if reason is not None:
            return f"{where}: {reason}"
    return None


def check_pass(
    rows: list[dict] | None, expected_points: list[tuple], estimators: tuple[str, ...],
    first: list[dict] | None, reference: list[dict] | None,
) -> dict[tuple, str]:
    """Map each failed point of one pass to its first bad row and field.

    ``rows`` is None when the pass produced no CSV; every point then fails,
    as it does when the CSV holds a point the config does not.
    """
    if rows is None:
        return {key: "the sweep produced no CSV" for key in expected_points}
    got = group_points(rows)
    extra = sorted(set(got) - set(expected_points))
    if extra:
        return {key: f"the CSV holds point (T, d, seed) = {extra[0]} not in the config" for key in expected_points}
    first_pts = group_points(first) if first is not None else {}
    ref_pts = group_points(reference) if reference is not None else {}
    failed = {}
    for key in expected_points:
        if key not in got:
            failed[key] = f"point T={key[0]} d={key[1]} seed={key[2]} missing from the CSV"
            continue
        reason = _point_error(
            got[key],
            estimators,
            first_pts.get(key, []) if first is not None else None,
            ref_pts.get(key, []) if reference is not None else None,
        )
        if reason is not None:
            failed[key] = reason
    return failed
