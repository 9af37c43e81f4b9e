"""Workload recipes: a seeded synthetic scene plus fixed estimator flags.

Each workload drives ``evtraj synth -> evtraj estimate -> evtraj eval``.
The workload seed reaches the program only as ``evtraj synth --seed``. The
estimator flags are the same for every workload seed, and the estimator
keeps its default ``--seed 0``, so a seed changes the events and nothing
else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# The seven ground-truth query times of every scene: the synth default
# linspace(0, 1, 7), to within one ulp. Flow maps are written at these times.
QUERY_TIMES = tuple(i / 6 for i in range(7))

_ARC_SCENE = {
    "width": "128",
    "height": "96",
    "motion": "circular",
    "cx": "63.5",
    "cy": "47.5",
    "angle": repr(math.pi / 6),
    "points": "400",
    "n_events": "50000",
    "noise": "0.1",
}


@dataclass(frozen=True)
class Workload:
    name: str
    scene: dict  # key=value scene config for `evtraj synth`
    flags: tuple  # `evtraj estimate` flags beyond the events file and --out
    iterations: int

    def flag(self, name: str, default):
        """Value of an estimator flag, or the CLI default it leaves in place."""
        if name not in self.flags:
            return default
        return type(default)(self.flags[self.flags.index(name) + 1])

    def scene_text(self) -> str:
        return "".join(f"{k}={v}\n" for k, v in self.scene.items())

    def synth_argv(self, spec_path, out_dir, seed: int) -> list:
        return ["synth", str(spec_path), "--out", str(out_dir), "--seed", str(seed)]

    def estimate_argv(self, events_path, out_dir) -> list:
        return [
            "estimate", str(events_path), "--out", str(out_dir),
            "--iters", str(self.iterations),
            "--flow-times", ",".join(repr(t) for t in QUERY_TIMES),
            *self.flags,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's headline mode; the KNN association dominates.
        Workload(
            name="fit-arc-128",
            scene=_ARC_SCENE,
            flags=(),
            iterations=10,
        ),
        # Objective kernels dominate; an association change should not move it.
        Workload(
            name="splat-dense-128",
            scene={
                "width": "128",
                "height": "96",
                "motion": "constant",
                "vx": "5",
                "vy": "-3",
                "points": "200",
                "n_events": "200000",
                "noise": "0.1",
            },
            flags=("--sigma", "1", "--stride", "8", "--k", "8", "--nbins", "5"),
            iterations=6,
        ),
        # Three volume builds per iteration share one neighbour set.
        Workload(
            name="fixedref-arc-128",
            scene=_ARC_SCENE,
            flags=("--fixed-ref",),
            iterations=4,
        ),
        # 240x180 KNN scaling and dense interpolate_flow. Not in BENCHMARK.json:
        # one run takes about 52 s, which the driver's time budget cannot hold
        # next to the other three. Run it by hand.
        Workload(
            name="flow-240",
            scene={
                "width": "240",
                "height": "180",
                "motion": "bezier",
                "offsets": "4:-2,9:1,12:5",
                "points": "400",
                "n_events": "100000",
                "noise": "0.1",
            },
            flags=("--sigma", "1"),
            iterations=2,
        ),
    )
}
