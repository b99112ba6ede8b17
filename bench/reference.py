"""A fixed reference computation that measures how fast the host runs now.

On a shared host the speed of the same code drifts by tens of percent over
minutes, as neighbours load the machine.  Each untraced sample runs this
kernel right before and right after the program, in the same process, and
the benchmark reports the program's wall time in units of the kernel's time
(`wall_ref`).  The drift slows both alike and cancels; a change to the
program moves only the numerator, because this file is not program code.

One round mixes the two kinds of work the workloads spend their time on:
per-call numpy dispatch on 3-vectors and 3x3 matrices (the N=6 presets) and
pairwise arrays over a fleet (the 200-craft ring).
"""

from __future__ import annotations

import time

import numpy as np

STEPS = 900        # RK4 steps of the small-array part of one round
FLEET = 60         # craft in the array part (its arrays stay below malloc's mmap
                   # threshold, so the kernel leaves the program's peak RSS alone)
SWEEPS = 700       # pairwise sweeps of the array part of one round


def _one_round(state: np.ndarray, fleet: np.ndarray) -> float:
    inertia = np.array([[1.0, 0.1, 0.0], [0.1, 0.8, 0.05], [0.0, 0.05, 0.6]])
    inverse = np.linalg.inv(inertia)
    h = 0.005

    def rate(w):
        return inverse @ (-np.cross(w, inertia @ w))

    w = state
    for _ in range(STEPS):
        k1 = rate(w)
        k2 = rate(w + 0.5 * h * k1)
        k3 = rate(w + 0.5 * h * k2)
        k4 = rate(w + h * k3)
        w = w + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    acc = float(w @ w)
    for _ in range(SWEEPS):
        diff = fleet[:, None, :] - fleet[None, :, :]
        dist = np.einsum("ijk,ijk->ij", diff, diff)
        near = np.where(dist < 1.0, dist, 0.0)
        acc += float(np.einsum("ij,ijk->k", near, diff) @ fleet[0])
    return acc


def reference_seconds(rounds: int) -> float:
    """Wall time of `rounds` rounds of the kernel [s]; checks its result."""
    rng = np.random.default_rng(0)
    state = np.array([0.3, -0.2, 0.1])
    fleet = rng.standard_normal((FLEET, 3))
    t0 = time.perf_counter()
    results = [_one_round(state, fleet) for _ in range(rounds)]
    elapsed = time.perf_counter() - t0
    if not np.isfinite(results[0]) or any(r != results[0] for r in results):
        raise RuntimeError("reference kernel gave %r" % results)
    return elapsed
