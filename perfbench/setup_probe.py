"""One set-up sample: a fresh interpreter made ready to run a sweep.

Run as ``python3 setup_probe.py <src dir> <config> <warm-up config> <warm-up csv>``.
It imports blocksysid from ``<src dir>``, loads the workload's config and
makes one warm-up sweep through the front end; the caller times the whole
process, interpreter start-up included, because users pay it on every CLI run.
"""

import sys


def main(src: str, config: str, warmup_config: str, warmup_out: str) -> int:
    sys.path.insert(0, src)
    from blocksysid import cli
    from blocksysid.experiments import ExperimentConfig

    ExperimentConfig.from_json_file(config)
    return cli.main(["sweep", "--config", warmup_config, "--out", warmup_out])


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
