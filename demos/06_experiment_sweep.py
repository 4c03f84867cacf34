"""Config-driven sweeps with reproducible CSV output.

Builds a sweep configuration in code (the CLI accepts the same document
as JSON), runs it, and shows that a rerun is byte-identical -- the CSV
is safe to diff across machines and runs.
"""

import tempfile
from pathlib import Path

import blocksysid as bs
from blocksysid.experiments import records_to_csv

config = bs.ExperimentConfig(
    generator={"kind": "synthetic", "n": 20, "w": 1},
    T_list=(3,),
    d_list=(40, 120, 360),
    seeds=(0, 1, 2),
    estimators=("block_reg", "least_squares"),
)

records = bs.run_experiment(config)
print(f"{len(records)} records "
      f"({len(config.d_list)} sample counts x {len(config.seeds)} seeds x 2 estimators)\n")

print(f"{'d':>5} {'estimator':>14} {'status':>10} {'RME':>8} {'normalized_2':>13}")
for rec in records:
    if rec.seed != 0:
        continue
    rme_txt = f"{rec.rme:.3%}" if rec.rme is not None else "-"
    err_txt = f"{rec.normalized_2:.4f}" if rec.normalized_2 is not None else "-"
    print(f"{rec.d:>5} {rec.estimator:>14} {rec.status:>10} {rme_txt:>8} {err_txt:>13}")

text = records_to_csv(records)
rerun = records_to_csv(bs.run_experiment(config))
print(f"\nrerun byte-identical: {text == rerun}")

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "records.csv"
    bs.write_records_csv(records, str(out))
    head = out.read_text().splitlines()
    print(f"wrote {len(head) - 1} rows; header:\n  {head[0]}")
