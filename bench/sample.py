"""One benchmark sample: a single `attsync.cli.main` call in a fresh process.

Usage: python3 bench/sample.py '<json spec>' where the spec holds
`argv` (the CLI arguments), `trace` (bool), `spans_path` (where a traced
sample writes its spans) and `ref_rounds` (rounds of bench/reference.py run
right before and right after the program; 0 runs none).  The program's own
stdout and stderr are kept in memory; the sample prints one JSON line with
its timings, the mean time of the two reference brackets (`ref_s`), the CLI
exit code, the process's peak resident set and, when traced, the per-span
summary.

setup_s is the time from `main` entry to the first `Simulation.run` entry,
plus, for each later seed of a sweep, the time from that seed's
`ScenarioConfig.to_scenario` call to its `Simulation.run` entry, plus all
time inside `validity_report`.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import attsync.cli as cli  # noqa: E402
from reference import reference_seconds  # noqa: E402
from tracing import Tracer, patch  # noqa: E402


class PhaseClock:
    """Accumulates setup_s from the Simulation.run, to_scenario and
    validity_report boundaries (see the module docstring)."""

    def __init__(self):
        self.setup_s = 0.0
        self._seed_start = None
        self._in_report = False

    def install(self) -> None:
        patch("simulator.Simulation.run", self._run)
        patch("config.ScenarioConfig.to_scenario", self._to_scenario)
        patch("cli.validity_report", self._validity_report)

    def start(self, t0: float) -> None:
        self._seed_start = t0

    def _run(self, fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            self.setup_s += time.perf_counter() - self._seed_start
            self._seed_start = None
            return fn(*args, **kwargs)
        return run

    def _to_scenario(self, fn):
        @functools.wraps(fn)
        def to_scenario(*args, **kwargs):
            if self._seed_start is None and not self._in_report:
                self._seed_start = time.perf_counter()
            return fn(*args, **kwargs)
        return to_scenario

    def _validity_report(self, fn):
        @functools.wraps(fn)
        def validity_report(*args, **kwargs):
            self._in_report = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.setup_s += time.perf_counter() - t0
                self._in_report = False
        return validity_report


def main() -> None:
    spec = json.loads(sys.argv[1])
    if not os.path.abspath(cli.__file__).startswith(os.path.join(ROOT, "src")):
        sys.exit("attsync was not imported from %s/src" % ROOT)
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()  # before the clock, so spans exclude its wrappers
    clock = PhaseClock()
    clock.install()
    rounds = spec["ref_rounds"]
    ref_before = reference_seconds(rounds) if rounds else 0.0
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        clock.start(t0)
        rc = cli.main(spec["argv"])
        wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ref_after = reference_seconds(rounds) if rounds else 0.0
    result = {
        "rc": rc,
        "wall_s": wall_s,
        "setup_s": clock.setup_s,
        "ref_s": (ref_before + ref_after) / 2,
        "peak_rss_mb": peak_rss_mb,
        "stderr_tail": err.getvalue()[-400:],
    }
    if tracer is not None:
        result["spans"] = tracer.summary()
        tracer.write(spec["spans_path"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
