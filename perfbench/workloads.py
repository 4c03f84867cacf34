"""The benchmark's fixed sweep workloads, each derived from one seed.

Every workload is a sweep config run through the real front end with the
library defaults (no worker count; run.py pins BLAS to one thread).  The
seed ``s`` only picks the model and trajectory seeds; sizes never depend on
it.  A pass is kept to a few seconds so that a run holds many passes and
one probe of the host's speed per pass (see hostspeed.py).
"""

from __future__ import annotations

from dataclasses import dataclass

BOTH = ("block_reg", "least_squares")


@dataclass(frozen=True)
class Workload:
    name: str
    generator: dict
    T_list: tuple[int, ...]
    d_list: tuple[int, ...]
    seed_offsets: tuple[int, ...]
    estimators: tuple[str, ...]

    def config(self, seed: int) -> dict:
        """Sweep config document for the benchmark seed ``seed``."""
        return {
            "generator": dict(self.generator),
            "T_list": list(self.T_list),
            "d_list": list(self.d_list),
            "seeds": [seed + k for k in self.seed_offsets],
            "lambda_mode": "schedule",
            "estimators": list(self.estimators),
            "standardize": True,
        }

    @property
    def points(self) -> int:
        return len(self.T_list) * len(self.d_list) * len(self.seed_offsets)

    def points_of(self, seed: int) -> list[tuple[str, str, str]]:
        """(T, d, seed) of every sweep point, as CSV text, in CSV order."""
        return [
            (str(T), str(d), str(seed + k)) for T in self.T_list for d in self.d_list for k in self.seed_offsets
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # 100 one-wide block columns: the solver's Python-overhead case, and
        # the heaviest block_abs_max grid (200x100).
        Workload(
            name="sweep_scalar",
            generator={"kind": "synthetic", "n": 100, "w": 2},
            T_list=(3,),
            d_list=(100, 200, 400),
            seed_offsets=(0,),
            estimators=BOTH,
        ),
        # Few wide 5x5 block columns on a small 80x40 block grid; least
        # squares is undefined at d=200 and defined at 400 and 800.
        Workload(
            name="sweep_agents",
            generator={"kind": "multi_agent", "agents": 40, "degree": 3, "state_size": 5, "input_size": 5},
            T_list=(3,),
            d_list=(200, 400, 800),
            seed_offsets=(0,),
            estimators=BOTH,
        ),
        # 20k trajectories and least squares only: the simulator dominates
        # and the APG solver is bypassed.  Two horizons separate the fixed
        # per-trajectory cost from the recurrence cost.
        Workload(
            name="simulate_bulk",
            generator={"kind": "synthetic", "n": 30, "w": 1},
            T_list=(3, 10),
            d_list=(10_000,),
            seed_offsets=(0,),
            estimators=("least_squares",),
        ),
    )
}

# Tiny sweep made once before timing, and once by every set-up probe, so
# lazy initialisation inside numpy and the package is paid outside the passes.
WARMUP = Workload(
    name="warmup",
    generator={"kind": "synthetic", "n": 6, "w": 1},
    T_list=(3,),
    d_list=(20,),
    seed_offsets=(0,),
    estimators=BOTH,
)
