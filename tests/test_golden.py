"""Sweep CSVs, byte for byte against the goldens that ``tests/golden/record.py`` recorded."""

import csv
import io
import json

import pytest

from golden.record import VERSIONS_PATH, golden_names, library_versions, sweep_csv


def first_difference(golden: str, got: str) -> str:
    """Where two CSVs first differ: the 1-based line and the golden header's name for the field."""
    want, have = (list(csv.reader(io.StringIO(text))) for text in (golden, got))
    header = want[0] if want else []
    for line, (a, b) in enumerate(zip(want, have), start=1):
        for col, (x, y) in enumerate(zip(a, b)):
            if x != y:
                name = header[col] if col < len(header) else f"#{col + 1}"
                return f"line {line}, field {name!r}: golden {x!r}, got {y!r}"
        if len(a) != len(b):
            return f"line {line}: golden has {len(a)} fields, got {len(b)}"
    if len(want) != len(have):
        return f"golden has {len(want)} lines, got {len(have)}"
    return "the same fields, in other bytes"


def test_first_difference_names_the_line_and_the_field():
    golden = "a,b\n1,2\n3,4\n"
    assert first_difference(golden, "a,b\n1,2\n3,5\n") == "line 3, field 'b': golden '4', got '5'"
    assert first_difference(golden, "b,a\n2,1\n4,3\n") == "line 1, field 'a': golden 'a', got 'b'"
    assert first_difference(golden, "a,b\n1,2\n") == "golden has 3 lines, got 2"
    assert first_difference(golden, "a,b\n1,2,9\n3,4\n") == "line 2: golden has 2 fields, got 3"
    assert first_difference(golden, golden.replace("\n", "\r\n")) == "the same fields, in other bytes"


def test_every_golden_has_its_csv():
    assert golden_names() == [
        "mass_spring", "multi_agent", "simulate_bulk", "sweep_agents", "sweep_scalar", "synthetic", "tiny_spring"
    ]
    for name in golden_names():
        assert (VERSIONS_PATH.parent / f"{name}.csv").is_file()


@pytest.mark.parametrize("name", golden_names())
def test_sweep_csv_matches_its_golden(name):
    golden = (VERSIONS_PATH.parent / f"{name}.csv").read_bytes().decode()
    got = sweep_csv(name)
    if got != golden:
        recorded = json.loads(VERSIONS_PATH.read_text())
        pytest.fail(
            f"{name}.csv: {first_difference(golden, got)}\n"
            f"recorded with {recorded}, running {library_versions()}"
        )


@pytest.mark.parametrize("name", golden_names())
def test_command_line_sweep_at_two_blas_threads_matches_its_golden(name):
    # The front end runs numpy's OpenBLAS on one thread, so the bytes do not
    # depend on the thread count that OpenBLAS started with.
    golden = (VERSIONS_PATH.parent / f"{name}.csv").read_bytes().decode()
    got = sweep_csv(name, blas_threads=2)
    assert got == golden, f"{name}.csv at two BLAS threads: {first_difference(golden, got)}"
