"""Batch command-line front end: validate, run, preset list.

Runs write two files per scenario into the output directory (flag --out,
else the ATTSYNC_OUT_DIR environment variable, else ./attsync-out):

* trajectory.csv: one row per logged step; columns t, then per craft i the
  blocks sigma_i_{x,y,z}, omega_i_{x,y,z}, u_i_{x,y,z}, theta_hat_i_{1..6},
  then V (Lyapunov), D (max pairwise attitude distance), and T (max
  distance to the reference) in tracking mode.  T, like the tracking rate
  of summary.json, is taken to whichever of the reference and its shadow
  (the same attitude) lies closer to each craft.  Full double precision,
  '.' decimal separator.  A helper process (`attsync.csvwriter`) formats it
  while the run integrates, each block of records as soon as it is derived,
  into trajectory.csv.part.  Its stdin pipe is widened to hold a run's blocks
  (1 MiB where the platform allows), so the run does not wait on it, and it
  drains the last ones while the summaries are built.  The files land only
  after that: trajectory.csv appears under its name when it is complete, and
  a diverged run leaves none, removing one that an earlier run left there.
* summary.json, compact JSON on one line: the scenario description the run
  used (as written, with defaults and flag overrides applied;
  `ScenarioConfig.from_dict` of it reproduces the run), step count, validity
  checks, and either final metrics, record count and wall-clock time or,
  when the run diverged, a `diverged` block naming the craft (1-based),
  quantity and time.

On stdout `run` prints per scenario the CSV path, record count, wall clock,
metrics and any --assert-converged verdict; the config is only in summary.json.

A --seeds a..b sweep parses the description once, realizes it at each seed
(`ScenarioConfig.to_scenario(seed)`) and runs one integration (one
`Simulation` ensemble); each seed_<n>/ gets the files of its own --seed n
run, with the run's one validity report, and each seed's wall_clock_s is
the whole sweep's integration wall, never a share of it.

Exit status: 0 on success, 1 on a failed validity or convergence check,
2 on config errors (--seed with --seeds, say) or an unusable path, found before
integrating, or when the trajectory.csv helper process fails, 3 when a
trajectory diverges (the maximum over seeds).  A run refused with exit 2 leaves
behind no directory that it created, and no run that returns leaves a .part
file or a process behind.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time

try:
    import fcntl
except ImportError:  # not a POSIX platform: the writer keeps the default pipe
    fcntl = None

import numpy as np

from . import csvwriter
from .csvwriter import csv_header
from .config import ScenarioConfig, preset, preset_names
from .errors import ConfigError, SimulationDiverged
from .simulator import Simulation, TrajectoryLog, metrics
from .topology import graph_checks, in_degrees

ENV_OUT_DIR = "ATTSYNC_OUT_DIR"
DEFAULT_OUT_DIR = "attsync-out"
DEFAULT_CONVERGED_TOL = 1e-2
_CSV_BLOCK = 64  # records per block of trajectory.csv
# the process that formats a run's trajectory.csv files; -S: it imports no site packages
_WRITER_COMMAND = (sys.executable, "-S", csvwriter.__file__)
# the writer's stdin pipe, Linux's default pipe-max-size: it holds the whole float64
# stream of a run such as a 200-craft, 21-record one (504 KB), so the run never waits
_PIPE_BYTES = 1 << 20


# -- validity reporting --------------------------------------------------

def validity_report(cfg: ScenarioConfig, scenario=None) -> dict:
    """Structured preflight checks; `valid` is the conjunction of all of them.

    `scenario` is the Scenario already built from `cfg`; without one the
    report builds it, once the graph checks pass, to check that the rest of
    the construction succeeds.
    """
    report = {
        "mode": cfg.doc["mode"],
        "spacecraft": cfg.n,
        "in_degrees": in_degrees(cfg.topology).tolist(),
    }
    checks = graph_checks(cfg.topology, cfg.doc["mode"])
    if all(ok for ok, _ in checks):
        try:
            if scenario is None:
                cfg.to_scenario()
            checks.append((True, "scenario constructible"))
        except ConfigError as exc:
            checks.append((False, "scenario construction failed: %s" % exc))
    report["checks"] = [{"ok": bool(ok), "text": text} for ok, text in checks]
    report["valid"] = all(ok for ok, _ in checks)
    return report


def _print_report(report):
    print("mode: %s" % report["mode"])
    print("spacecraft: %d" % report["spacecraft"])
    print("in-degrees: %s" % " ".join("%g" % d for d in report["in_degrees"]))
    for c in report["checks"]:
        print("[%s] %s" % ("ok" if c["ok"] else "fail", c["text"]))
    print("valid: %s" % ("yes" if report["valid"] else "no"))


# -- trajectory output ---------------------------------------------------

def _table(log, rows):
    """Records `rows` (a slice) of the log as trajectory.csv's float64 rows."""
    per_craft = np.concatenate([log.sigma[rows], log.omega[rows], log.torque[rows],
                                log.theta_hat[rows]], axis=2)
    series = [log.lyapunov, log.disagreement]
    if log.tracking_error is not None:
        series.append(log.tracking_error)
    return np.column_stack([log.times[rows], per_craft.reshape(len(per_craft), -1)]
                           + [x[rows] for x in series])


def write_trajectory_csv(log, path, writer=None) -> None:
    """Write `log` to `path` as trajectory.csv: the documented column schema, full
    double precision, `_CSV_BLOCK` records at a time straight from the log's arrays,
    each row by `csvwriter.format_rows`.

    Given a `CsvWriter`, hand all of the log's rows to its process instead, which
    appends them to `path`'s part file: `run` streams each record block of a run
    through here."""
    if writer is not None:
        writer.append(path, _table(log, slice(None)))
        return
    n_rec, n = log.sigma.shape[:2]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(csv_header(n, log.tracking_error is not None)) + "\n")
        for r in range(0, n_rec, _CSV_BLOCK):
            fh.write(csvwriter.format_rows(_table(log, slice(r, r + _CSV_BLOCK)).tolist()))


class CsvWriter:
    """The helper process that writes a run's trajectory.csv files, formatting rows
    (see `attsync.csvwriter`) on another core while the run integrates.

    Each file, of `n` craft with the T column when `tracking`, is written as
    `path + ".part"`; `commit` renames it into place.  The process starts at the
    first `append`, its stdin pipe widened to `_PIPE_BYTES` where the platform
    allows.  `close` reaps it, killing it if it still runs, and removes every part
    file not committed.
    """

    def __init__(self, paths, n, tracking):
        self.parts = {path: path + ".part" for path in paths}
        self._index = {path: i for i, path in enumerate(paths)}
        self._args = (str(n), "1" if tracking else "0")
        self._proc = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def append(self, path, table) -> None:
        """Send the rows of `table`, a float64 (row, column) array, to `path`'s file."""
        if self._proc is None:
            self._proc = subprocess.Popen(_WRITER_COMMAND + self._args, stdin=subprocess.PIPE)
            try:  # AttributeError: no fcntl, or no F_SETPIPE_SZ
                fcntl.fcntl(self._proc.stdin.fileno(), fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
            except (AttributeError, OSError):
                pass  # the default pipe carries the same bytes, with waits
            names = b"\0".join(map(os.fsencode, self.parts.values()))
            self._send(csvwriter.FRAME.pack(len(self.parts), len(names)), names)
        payload = table.tobytes()
        self._send(csvwriter.FRAME.pack(self._index[path], len(payload)), payload)

    def _send(self, *chunks) -> None:
        try:
            for chunk in chunks:
                self._proc.stdin.write(chunk)
            self._proc.stdin.flush()  # the process formats each block as it comes
        except BrokenPipeError:  # the process is gone
            raise _writer_failed(self._end(kill=True)) from None

    def _end(self, kill=False) -> int:
        """Close the stream and reap the process, killing it first if `kill` and it
        still runs; its exit status."""
        if kill and self._proc.poll() is None:
            self._proc.kill()
        try:
            self._proc.stdin.close()
        except BrokenPipeError:
            pass  # rows left in the buffer of a process that is gone
        return self._proc.wait()

    def finish(self) -> None:
        """End the stream and wait for every file to be written; OSError if the
        process failed."""
        status = self._end() if self._proc is not None else 0
        if status:
            raise _writer_failed(status)

    def commit(self, path) -> None:
        """Rename `path`'s finished part file into place."""
        os.replace(self.parts.pop(path), path)

    def close(self) -> None:
        if self._proc is None:
            return  # nor is any part file
        self._end(kill=True)
        for part in self.parts.values():
            try:
                os.remove(part)
            except FileNotFoundError:
                pass


def _writer_failed(status) -> OSError:
    return OSError("the trajectory.csv writer exited with status %d" % status)


# -- subcommands ---------------------------------------------------------

def _load_config(args) -> ScenarioConfig:
    if (args.preset is None) == (args.config is None):
        raise ConfigError("give exactly one of --preset or --config")
    if args.preset is not None:
        return preset(args.preset)
    return ScenarioConfig.from_yaml_file(args.config)


def _apply_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    overrides = {key: getattr(args, key) for key in ("dt", "duration", "seed", "decimate")
                 if getattr(args, key) is not None}
    if args.shadow_switch:
        overrides["shadow_switch"] = True
    return cfg.with_overrides(**overrides) if overrides else cfg


def _parse_seeds(text):
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if not m:
        raise ConfigError("--seeds expects a range like 1..5")
    lo, hi = int(m.group(1)), int(m.group(2))
    if hi < lo:
        raise ConfigError("--seeds range is empty")
    return list(range(lo, hi + 1))


def _summarize(doc, report, scenario, result, wall, csv_path, assert_tol):
    """One run's summary.json text (one line with no indent, so json uses its C
    encoder), the message it prints and its exit status, from its log or from the
    divergence that stopped it."""
    summary = {"config": doc, "step_count": scenario.n_steps}
    if isinstance(result, SimulationDiverged):
        summary["validity"] = report
        summary["diverged"] = {"craft": result.craft_index + 1, "quantity": result.quantity,
                               "time": result.time, "message": str(result)}
        return json.dumps(summary) + "\n", "error: %s" % result, 3
    finals = metrics(result)
    summary.update(metrics=finals, records=result.n_records, wall_clock_s=wall, validity=report)
    lines = ["wrote %s (%d records, %.2f s wall clock)" % (csv_path, result.n_records, wall)]
    lines += ["  %s: %s" % (key, finals[key]) for key in sorted(finals)]
    status = 0
    if assert_tol is not None:
        if doc["mode"] == "leaderless":
            ok = (finals["disagreement_final"] < assert_tol
                  and finals["disagreement_rate_final"] < assert_tol)
        else:
            ok = (finals["tracking_error_final"] < assert_tol
                  and finals["tracking_rate_final"] < assert_tol)
        lines.append("converged (tol %g): %s" % (assert_tol, "yes" if ok else "no"))
        status = 0 if ok else 1
    return json.dumps(summary) + "\n", "\n".join(lines), status


def _write_run(out_dir, csv_path, result, text, writer) -> None:
    """Put one run's files in place: its summary.json `text`, and the trajectory.csv
    part file `writer` finished; a diverged run leaves none, not even an older run's."""
    if isinstance(result, SimulationDiverged):
        try:
            os.remove(csv_path)
        except FileNotFoundError:
            pass
    else:
        writer.commit(csv_path)
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        fh.write(text)


def _make_dirs(path, created):
    """os.makedirs(path, exist_ok=True) one component at a time, appending each
    directory it makes to `created`; `newdir/..` makes newdir, so it is listed."""
    head, tail = os.path.split(path)
    if not tail:  # a trailing separator
        head, tail = os.path.split(head)
    if head and tail and not os.path.exists(head):
        _make_dirs(head, created)
    if not os.path.isdir(path):
        os.mkdir(path)
        created.append(path)


def cmd_run(args) -> int:
    if args.seed is not None and args.seeds is not None:
        raise ConfigError("give at most one of --seed or --seeds")
    cfg = _apply_overrides(_load_config(args), args)
    out_base = args.out or os.environ.get(ENV_OUT_DIR) or DEFAULT_OUT_DIR
    runs = [(cfg.doc["seed"], out_base)]
    if args.seeds is not None:
        runs = [(s, os.path.join(out_base, "seed_%d" % s)) for s in _parse_seeds(args.seeds)]
    scenarios = [cfg.to_scenario(s) for s, _ in runs]  # one parse, realized per seed
    csv_paths = [os.path.join(out_dir, "trajectory.csv") for _, out_dir in runs]
    created = []  # a run refused, or whose writer fails, leaves none of these
    with CsvWriter(csv_paths, cfg.n, cfg.doc["mode"] == "tracking") as writer:
        def stream(blocks):  # each member's rows, as soon as they are derived
            for path, block in zip(csv_paths, blocks):
                if isinstance(block, TrajectoryLog):
                    write_trajectory_csv(block, path, writer)

        try:
            for _, out_dir in runs:  # an unusable path fails before the integration
                _make_dirs(out_dir, created)
            t0 = time.perf_counter()
            results = Simulation(scenarios).run(decimate=cfg.doc["decimate"], sink=stream)
            wall = time.perf_counter() - t0  # every seed reports the whole integration
            # the writer drains its last blocks while the summaries are built
            report = validity_report(cfg, scenarios[0])  # the seed draws no part of it
            outcomes = [_summarize({**cfg.doc, "seed": s}, report, scenario, result, wall,
                                   csv_path, args.assert_converged)
                        for (s, _), scenario, result, csv_path
                        in zip(runs, scenarios, results, csv_paths)]
            writer.finish()  # files land only once every trajectory.csv is written
        except (ConfigError, OSError):
            writer.close()  # its part files, before the directories that hold them
            for path in filter(os.path.isdir, reversed(created)):
                os.rmdir(path)
            raise
        status = 0
        for (s, out_dir), csv_path, result, (text, message, code) in zip(
                runs, csv_paths, results, outcomes):
            if args.seeds is not None:
                print("seed %d -> %s" % (s, out_dir))
            _write_run(out_dir, csv_path, result, text, writer)
            print(message, file=sys.stderr if code == 3 else sys.stdout)
            status = max(status, code)
    return status


def cmd_validate(args) -> int:
    report = validity_report(_load_config(args))
    _print_report(report)
    return 0 if report["valid"] else 1


def cmd_preset(args) -> int:
    for name in preset_names():
        cfg = preset(name)
        print("%-18s %d spacecraft, %s" % (name, cfg.n, cfg.doc["mode"]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attsync",
        description="Distributed adaptive attitude synchronization simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("--preset", help="built-in scenario name (see 'preset list')")
        p.add_argument("--config", help="path to a scenario YAML file")

    p_val = sub.add_parser("validate", help="preflight a scenario description")
    add_source(p_val)
    p_val.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="simulate and write trajectory/summary files")
    add_source(p_run)
    p_run.add_argument("--dt", type=float, help="integration step override [s]")
    p_run.add_argument("--duration", type=float, help="horizon override [s]")
    p_run.add_argument("--seed", type=int, help="seed override for random initial states")
    p_run.add_argument("--seeds", help="inclusive seed range a..b; writes seed_<n>/ dirs")
    p_run.add_argument("--out", help="output directory (default $%s or %s)"
                                     % (ENV_OUT_DIR, DEFAULT_OUT_DIR))
    p_run.add_argument("--decimate", type=int, help="log every k-th step (1 = full rate)")
    p_run.add_argument("--assert-converged", nargs="?", type=float,
                       const=DEFAULT_CONVERGED_TOL, default=None, metavar="TOL",
                       help="exit 1 unless final errors are below TOL (default %g)"
                            % DEFAULT_CONVERGED_TOL)
    p_run.add_argument("--shadow-switch", action="store_true",
                       help="map attitudes to the shadow set when |sigma| > 1")
    p_run.set_defaults(func=cmd_run)

    p_pre = sub.add_parser("preset", help="built-in scenarios")
    p_pre.add_argument("action", choices=["list"])
    p_pre.set_defaults(func=cmd_preset)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
