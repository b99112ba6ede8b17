"""The benchmark's workloads: seeded `attsync run` command lines and inputs.

Why each workload exists is recorded next to its name in BENCHMARK.json.

Each workload is one CLI invocation with a fixed amount of work (craft
count, horizon, seed count), so every sample of a workload costs the same
whatever the benchmark seed; the seed only changes the data.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import yaml

DT = 0.005  # integration step of every workload [s]


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str | None   # None: a generated YAML scenario run with --config
    craft: int
    duration: float      # horizon [s]
    seeds: int = 1       # k > 1 runs a --seeds sweep of k consecutive seeds
    decimate: int | None = None  # None keeps the scenario's default (10)
    # rounds of bench/reference.py on each side of an untraced sample: the two
    # brackets together take about as long as the program, which balances the
    # noise of the two timings (a fifth on ring200, so that a run still holds
    # three of its long samples)
    ref_rounds: int = 4

    def argv(self, seed: int, out_dir: str, config_path: str | None) -> list:
        """`attsync run` arguments for one sample of this workload."""
        if self.preset is None:
            argv = ["run", "--config", config_path]
        else:
            argv = ["run", "--preset", self.preset,
                    "--duration", repr(self.duration)]
            if self.seeds > 1:
                argv += ["--seeds", "%d..%d" % (seed, seed + self.seeds - 1)]
            else:
                argv += ["--seed", str(seed)]
        if self.decimate is not None:
            argv += ["--decimate", str(self.decimate)]
        return argv + ["--out", out_dir]

    def run_dirs(self, seed: int, out_dir: str) -> list:
        """(scenario seed, directory) of every trajectory/summary pair written."""
        if self.seeds > 1:
            return [(s, os.path.join(out_dir, "seed_%d" % s))
                    for s in range(seed, seed + self.seeds)]
        return [(seed, out_dir)]

    @property
    def full_horizon(self) -> bool:
        """True for a preset run at the presets' own 40 s horizon."""
        return self.preset is not None and self.duration == 40.0


WORKLOADS = {w.name: w for w in (
    Workload(name="preset-leaderless-fullrate", preset="paper-leaderless",
             craft=6, duration=4.0, decimate=1, ref_rounds=4),
    Workload(name="preset-tracking-sweep", preset="paper-tracking",
             craft=6, duration=2.0, seeds=5, ref_rounds=6),
    # 1 s gives 21 records, enough for the metrics() R x N x N tensor to
    # set the peak resident set above the YAML parser's
    Workload(name="ring200-leaderless-shadow", preset=None,
             craft=200, duration=1.0, ref_rounds=4),
)}


def ring_yaml(seed: int, craft: int, duration: float) -> str:
    """Leaderless directed ring with one extra seeded in-link per craft.

    Inertias are seeded SPD matrices 0.2 A A^T + 0.6 I; gains and generator
    tuning follow the paper-leaderless preset; initial states are drawn by
    the program from the scenario seed.
    """
    rng = np.random.default_rng(seed)
    adjacency = np.zeros((craft, craft), dtype=int)
    spacecraft = []
    for i in range(craft):
        prev = (i - 1) % craft
        adjacency[i, prev] = 1
        extra = [j for j in range(craft) if j not in (i, prev)]
        adjacency[i, extra[rng.integers(len(extra))]] = 1
        a = rng.standard_normal((3, 3))
        inertia = 0.2 * a @ a.T + 0.6 * np.eye(3)
        spacecraft.append({"inertia": inertia.tolist(), "initial": "random"})
    doc = {
        "mode": "leaderless",
        "dt": DT,
        "duration": duration,
        "seed": seed,
        "shadow_switch": True,
        "decimate": 10,
        "smoothing_rate": 1.0,
        "rate_leak": 0.2,
        "gains": {"Lambda": 1.0, "K": 3.0, "Gamma": 3.0},
        "topology": {"adjacency": adjacency.tolist()},
        "spacecraft": spacecraft,
    }
    return yaml.safe_dump(doc, default_flow_style=None, sort_keys=False,
                          width=1 << 20)
