"""Record the golden sweep CSVs that ``tests/test_golden.py`` compares with.

Each ``<name>.config.json`` in this directory is a sweep config.  Recording
runs it through the ``sweep`` command, in a fresh interpreter with BLAS on
one thread as the benchmark runs it, and writes its CSV to ``<name>.csv``,
and the numpy and BLAS versions to ``versions.json``.  At several BLAS
threads the error norms of both estimators and the condition numbers of the
benchmark-sized sweeps take other bits; the command line runs OpenBLAS on
one thread whatever ``OPENBLAS_NUM_THREADS`` says, which the tests check by
sweeping at two.  Run it from the repository root:

    PYTHONPATH=src python tests/golden/record.py

A golden changes only in a change that says so, with the columns that moved
and the largest relative change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import blocksysid

HERE = Path(__file__).resolve().parent
PACKAGE_PARENT = Path(blocksysid.__file__).resolve().parents[1]
VERSIONS_PATH = HERE / "versions.json"


def golden_names() -> list[str]:
    return sorted(path.name.removesuffix(".config.json") for path in HERE.glob("*.config.json"))


def sweep_csv(name: str, blas_threads: int = 1) -> str:
    """The CSV that the config ``<name>.config.json`` sweeps to now, BLAS started on ``blas_threads``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads), OMP_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_PARENT), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / f"{name}.csv"
        config = HERE / f"{name}.config.json"
        done = subprocess.run(
            [sys.executable, "-m", "blocksysid", "sweep", "--config", str(config), "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
        )
        if done.returncode != 0:
            raise RuntimeError(f"sweep of {name} exited {done.returncode}:\n{done.stderr}")
        return out.read_bytes().decode()


def library_versions() -> dict:
    """The numpy and BLAS builds that the sweep's floating-point bits depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.25 has no mode argument
        blas = {"name": "unknown", "version": "unknown"}
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def main() -> None:
    for name in golden_names():
        with open(HERE / f"{name}.csv", "w", newline="") as fh:
            fh.write(sweep_csv(name))
    VERSIONS_PATH.write_text(json.dumps(library_versions(), indent=2) + "\n")


if __name__ == "__main__":
    main()
