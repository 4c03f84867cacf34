"""Record the golden sweep CSVs that ``tests/test_golden.py`` compares with.

Each ``<name>.config.json`` in this directory is a sweep config.  Recording
runs it and writes its CSV to ``<name>.csv``, and the numpy and BLAS versions
to ``versions.json``.  Run it from the repository root:

    PYTHONPATH=src python tests/golden/record.py

A golden changes only in a change that says so, with the columns that moved
and the largest relative change.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from blocksysid.experiments import ExperimentConfig, records_to_csv, run_experiment

HERE = Path(__file__).resolve().parent
VERSIONS_PATH = HERE / "versions.json"


def golden_names() -> list[str]:
    return sorted(path.name.removesuffix(".config.json") for path in HERE.glob("*.config.json"))


def sweep_csv(name: str) -> str:
    """The CSV that the config ``<name>.config.json`` sweeps to now."""
    config = ExperimentConfig.from_json_file(str(HERE / f"{name}.config.json"))
    return records_to_csv(run_experiment(config))


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
