"""Batch command-line front end: validate, run, preset list.

Runs write two files per scenario into the output directory (flag --out,
else the ATTSYNC_OUT_DIR environment variable, else ./attsync-out):

* trajectory.csv: one row per logged step; columns t, then per craft i the
  blocks sigma_i_{x,y,z}, omega_i_{x,y,z}, u_i_{x,y,z}, theta_hat_i_{1..6},
  then V (Lyapunov), D (max pairwise attitude distance), and T (max
  distance to the reference) in tracking mode.  Full double precision,
  '.' decimal separator.
* summary.json: final metrics, step count, wall-clock time, validity
  checks, and the exact config the run used.

Exit status: 0 on success, 1 on a failed validity or convergence check,
2 on config errors, 3 when a trajectory diverges.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from .config import ScenarioConfig, preset, preset_names
from .errors import ConfigError, SimulationDiverged
from .simulator import Simulation, metrics
from .topology import CommTopology, graph_checks

ENV_OUT_DIR = "ATTSYNC_OUT_DIR"
DEFAULT_OUT_DIR = "attsync-out"
DEFAULT_CONVERGED_TOL = 1e-2


# -- validity reporting --------------------------------------------------

def validity_report(cfg: ScenarioConfig, scenario=None) -> dict:
    """Structured preflight checks; `valid` is the conjunction of all of them.

    `scenario` is the Scenario already built from `cfg`; without one the
    report builds it to check that construction succeeds.
    """
    report = {
        "mode": cfg.mode,
        "spacecraft": cfg.n,
        "in_degrees": [float(d) for d in cfg.adjacency.sum(axis=1)],
    }
    try:
        topo = CommTopology(cfg.adjacency, cfg.leader_weights)
    except ValueError as exc:
        checks = [(False, "adjacency invalid: %s" % exc)]
    else:
        # inertia and gain matrices were validated while parsing the config
        checks = [(True, "adjacency is square, nonnegative, zero-diagonal"),
                  (True, "inertia matrices symmetric positive definite"),
                  (True, "gains valid (Lambda, K symmetric positive definite; "
                         "Gamma diagonal)")]
        checks += graph_checks(topo, cfg.mode)
        if cfg.mode == "tracking":
            checks.append((cfg.reference is not None, "reference trajectory present"))
        try:
            if scenario is None:
                cfg.to_scenario()
            checks.append((True, "scenario constructible"))
        except (ConfigError, ValueError) as exc:
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

def csv_header(n: int, tracking: bool) -> list:
    cols = ["t"]
    for i in range(1, n + 1):
        cols += ["sigma_%d_%s" % (i, ax) for ax in "xyz"]
        cols += ["omega_%d_%s" % (i, ax) for ax in "xyz"]
        cols += ["u_%d_%s" % (i, ax) for ax in "xyz"]
        cols += ["theta_hat_%d_%d" % (i, k) for k in range(1, 7)]
    cols += ["V", "D"]
    if tracking:
        cols.append("T")
    return cols


def write_trajectory_csv(log, path) -> None:
    """Write the documented column schema, full double precision."""
    n = log.sigma.shape[1]
    tracking = log.tracking_error is not None
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(csv_header(n, tracking)) + "\n")
        for r in range(log.n_records):
            vals = [log.times[r]]
            for i in range(n):
                vals.extend(log.sigma[r, i])
                vals.extend(log.omega[r, i])
                vals.extend(log.torque[r, i])
                vals.extend(log.theta_hat[r, i])
            vals.append(log.lyapunov[r])
            vals.append(log.disagreement[r])
            if tracking:
                vals.append(log.tracking_error[r])
            fh.write(",".join(repr(float(v)) for v in vals) + "\n")


# -- subcommands ---------------------------------------------------------

def _load_config(args) -> ScenarioConfig:
    if (args.preset is None) == (args.config is None):
        raise ConfigError("give exactly one of --preset or --config")
    if args.preset is not None:
        return preset(args.preset)
    return ScenarioConfig.from_yaml_file(args.config)


def _apply_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    overrides = {}
    if args.dt is not None:
        overrides["dt"] = args.dt
    if args.duration is not None:
        overrides["duration"] = args.duration
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.decimate is not None:
        overrides["decimate"] = args.decimate
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


def _run_one(cfg: ScenarioConfig, out_dir, assert_tol) -> int:
    os.makedirs(out_dir, exist_ok=True)
    scenario = cfg.to_scenario()
    t0 = time.perf_counter()
    try:
        log = Simulation(scenario).run(decimate=cfg.decimate)
    except SimulationDiverged as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    wall = time.perf_counter() - t0
    m = metrics(log)
    finals = {k: v for k, v in m.items() if k != "series"}
    csv_path = os.path.join(out_dir, "trajectory.csv")
    write_trajectory_csv(log, csv_path)
    summary = {
        "config": cfg.to_dict(),
        "metrics": finals,
        "step_count": scenario.n_steps,
        "records": log.n_records,
        "wall_clock_s": wall,
        "validity": validity_report(cfg, scenario),
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print("wrote %s (%d records, %.2f s wall clock)" % (csv_path, log.n_records, wall))
    for key in sorted(finals):
        print("  %s: %s" % (key, finals[key]))
    if assert_tol is not None:
        if cfg.mode == "leaderless":
            ok = (finals["disagreement_final"] < assert_tol
                  and finals["disagreement_rate_final"] < assert_tol)
        else:
            ok = (finals["tracking_error_final"] < assert_tol
                  and finals["tracking_rate_final"] < assert_tol)
        print("converged (tol %g): %s" % (assert_tol, "yes" if ok else "no"))
        if not ok:
            return 1
    return 0


def cmd_run(args) -> int:
    cfg = _apply_overrides(_load_config(args), args)
    out_base = args.out or os.environ.get(ENV_OUT_DIR) or DEFAULT_OUT_DIR
    print("config:")
    for line in cfg.to_yaml().rstrip("\n").split("\n"):
        print("  " + line)
    if args.seeds is not None:
        status = 0
        for s in _parse_seeds(args.seeds):
            out_dir = os.path.join(out_base, "seed_%d" % s)
            print("running seed %d -> %s" % (s, out_dir))
            status = max(status, _run_one(cfg.with_overrides(seed=s), out_dir,
                                          args.assert_converged))
        return status
    return _run_one(cfg, out_base, args.assert_converged)


def cmd_validate(args) -> int:
    report = validity_report(_load_config(args))
    _print_report(report)
    return 0 if report["valid"] else 1


def cmd_preset(args) -> int:
    for name in preset_names():
        cfg = preset(name)
        print("%-18s %d spacecraft, %s" % (name, cfg.n, cfg.mode))
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
    except FileNotFoundError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
