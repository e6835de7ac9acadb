"""The benchmark's workloads: which `mixedsums verify` command each runs,
the fields its set-up builds, and the report rows it must produce.

A workload's inputs come from the seed alone. `acceptance_sweep` keeps the
CLI's `sample` policy for `a`, so its inputs are the same for every seed;
the other two draw one `a` from F_q* (element indices 1..q-1).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

MANIFESTS = Path(__file__).resolve().parent / "manifests"

# The seeded `a` of a manifest row; every other `a` is an element index or null.
SEEDED_A = "seeded"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    q_args: tuple[str, ...]          # --q values, as a user types them
    fields: tuple[tuple[int, int], ...]  # (p, n) of each field, for set-up
    suites: tuple[str, ...]
    seeded_a: bool                   # draw `a` from the seed, else --a sample
    # Median set-up and verify seconds of the reference program (perfbench/
    # reference) on a 2-vCPU Xeon VM; run.py reports the program's times
    # as these, scaled by how much slower or faster it is than the reference.
    reference_setup_s: float
    reference_verify_s: float

    def draw_a(self, seed: int) -> int | None:
        if not self.seeded_a:
            return None
        (p, n), = self.fields
        return random.Random(seed).randrange(1, p**n)

    def verify_argv(self, a: int | None) -> list[str]:
        argv = ["verify"]
        for q in self.q_args:
            argv += ["--q", q]
        argv += ["--a", "sample" if a is None else str(a)]
        for s in self.suites:
            argv += ["--suite", s]
        return argv

    def manifest(self, a: int | None) -> list[tuple[str, int, int | None, int, float]]:
        """Expected rows (check_id, q, a, instances, tol) for this run's `a`."""
        rows = json.loads((MANIFESTS / f"{self.name}.json").read_text())
        return [(cid, q, a if ra == SEEDED_A else ra, inst, tol)
                for cid, q, ra, inst, tol in rows]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="acceptance_sweep",
            why="the README acceptance set: nine small fields, all suites, "
                "--a sample; scalar calls in chars, sums and mellin dominate, "
                "mixed does almost nothing",
            q_args=("5", "9", "13", "17", "25", "29", "37", "41", "49"),
            fields=((5, 1), (3, 2), (13, 1), (17, 1), (5, 2), (29, 1), (37, 1),
                    (41, 1), (7, 2)),
            suites=("all",),
            seeded_a=False,
            reference_setup_s=0.132,
            reference_verify_s=2.819,
        ),
        Workload(
            name="mellin_q257",
            why="one mid-size field, seeded a, classical+transforms+mellin: "
                "all-character sweeps (jacobi, gauss, closed forms) and the gf "
                "gathers inside them dominate",
            q_args=("257",),
            fields=((257, 1),),
            suites=("classical", "transforms", "mellin"),
            seeded_a=True,
            reference_setup_s=0.130,
            reference_verify_s=7.726,
        ),
        Workload(
            name="main_q625",
            why="main identity at the stress size q=5^4, seeded a: the q x q "
                "gather loop of mixed_table is nearly all the time and sets "
                "peak memory",
            q_args=("5^4",),
            fields=((5, 4),),
            suites=("main",),
            seeded_a=True,
            reference_setup_s=0.139,
            reference_verify_s=17.47,
        ),
    )
}
