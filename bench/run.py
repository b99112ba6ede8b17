"""attsync benchmark: end-to-end runs of `attsync run` plus an outside-in trace.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample is one `attsync.cli.main(["run", ...])` call in a fresh Python
process (bench/sample.py) with BLAS/OpenMP threads pinned to 1; samples run
one after another until the --seconds budget would be exceeded, and at
least two run, so every run has a same-seed pair for the determinism check.
All samples of a run use the inputs made from --seed.

End-to-end figures (untraced samples only; median, quartiles, count):
  wall_s             `main` entry to return, all seeds of the workload
  wall_ref           wall_s divided by ref_s of the same sample
  setup_s            config load/parse, to_scenario, Simulation construction
                     and validity_report (exact boundaries: bench/sample.py)
  craft_steps_per_s  sum over seeds of N x n_steps, divided by wall_s
  peak_rss_mb        peak resident set of the sample's process [MiB]
  ref_s              time of the fixed reference kernel (bench/reference.py)
                     run right before and right after the program, mean of
                     the two
  fail_ratio         failed samples / attempted samples (the result line's
                     `failed` / `attempted`)

The host's speed drifts by tens of percent over minutes, which moves wall_s
between runs of the same code by more than any useful bound.  The drift
slows the reference kernel alike, so the bounded end-to-end metric of
BENCHMARK.json is wall_ref, not wall_s; wall_s, craft_steps_per_s and ref_s
are printed here and reported as per-layer metrics of the traced run.

A sample fails when the CLI exits non-zero (3: diverged), an output value is
non-finite, trajectory.csv and summary.json disagree on the record count,
the logged V breaks v[k+1] <= v[k] + 1e-4 (1 + v[k]), a preset
run at the full 40 s horizon ends with errors >= 1e-2, or its
trajectory.csv differs from the run's first sample with the same seed.

With --trace 1 half the budget runs untraced samples and half traced ones
(spans from bench/tracing.py); the traced trajectory.csv must match the
untraced one byte for byte, and the span call counts must repeat exactly.
The result line then carries the per-layer metrics.

Inputs, results (with the environment record) and span files go to
.bench_work/ in the checkout.  The last stdout line is the JSON result.
All three workloads, one after another:

    for w in preset-leaderless-fullrate preset-tracking-sweep \
             ring200-leaderless-shadow; do
        python3 bench/run.py --workload $w --seed 1 --seconds 40 --trace 0
    done
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS")
for _var in PINNED_THREADS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import yaml  # noqa: E402

from checks import check_run_dir  # noqa: E402
from tracing import LAYERS, SPANS  # noqa: E402
from workloads import WORKLOADS, ring_yaml  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")
SAMPLE = os.path.join(ROOT, "bench", "sample.py")
MIN_SAMPLES = 2  # per kind of sample; two untraced give the same-seed pair
HARD_LIMIT_S = 165.0  # no sample may run past this point of the run

# metric names and units of the result line
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    CONTRACT = json.load(_fh)
UNITS = {"wall_s": "s", "wall_ref": "ref", "setup_s": "s",
         "craft_steps_per_s": "1/s", "peak_rss_mb": "MiB", "ref_s": "s"}


def run_sample(workload, seed, config_path, trace, out_dir, spans_path, deadline):
    """Run one sample in a child process and check its outputs."""
    shutil.rmtree(out_dir, ignore_errors=True)
    spec = {"argv": workload.argv(seed, out_dir, config_path), "trace": trace,
            "spans_path": spans_path,
            "ref_rounds": 0 if trace else workload.ref_rounds}
    t0 = time.perf_counter()
    sample = {"trace": trace, "reasons": []}
    try:
        proc = subprocess.run([sys.executable, SAMPLE, json.dumps(spec)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc = None
    sample["elapsed_s"] = time.perf_counter() - t0
    if proc is None:
        sample["reasons"].append("timed out")
        return sample
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sample["reasons"].append("sample process exited %d: %s"
                                 % (proc.returncode, proc.stderr.strip()[-400:]))
        return sample
    sample.update(json.loads(lines[-1]))
    if sample["rc"] != 0:
        sample["reasons"].append("attsync run exited %d: %s"
                                 % (sample["rc"], sample["stderr_tail"].strip()))
    else:
        sample["outputs"] = {}
        for s, run_dir in workload.run_dirs(seed, out_dir):
            try:
                out = check_run_dir(run_dir, workload.full_horizon)
            except (OSError, ValueError, KeyError) as exc:
                out = {"reasons": ["unreadable output: %s" % exc]}
            sample["reasons"] += ["seed %d: %s" % (s, r) for r in out.pop("reasons")]
            sample["outputs"][str(s)] = out
    shutil.rmtree(out_dir, ignore_errors=True)
    return sample


def collect(workload, seed, config_path, trace, budget_s, min_samples, run_start):
    """Samples until the next one would overrun the budget (at least min)."""
    tag = "%s-seed%d" % (workload.name, seed)
    out_dir = os.path.join(WORK, "runs", tag)
    spans_path = os.path.join(WORK, "results", tag + "-spans.csv")
    samples = []
    start = time.perf_counter()
    deadline = run_start + HARD_LIMIT_S
    while True:
        now = time.perf_counter()
        if len(samples) >= min_samples:
            typical = statistics.median(s["elapsed_s"] for s in samples)
            if now - start + typical > budget_s:
                break
        if now >= deadline or (samples and "timed out" in samples[-1]["reasons"]):
            break
        samples.append(run_sample(workload, seed, config_path, trace,
                                  out_dir, spans_path, deadline))
    return samples


def check_repeats(samples):
    """Same-seed samples must write identical CSVs and make identical calls."""
    ref_outputs = ref_calls = None
    for sample in samples:
        if "outputs" not in sample:
            continue
        shas = {s: o.get("sha256") for s, o in sample["outputs"].items()}
        if ref_outputs is None:
            ref_outputs = shas
        elif shas != ref_outputs:
            sample["reasons"].append(
                "trajectory.csv differs from the first same-seed sample%s"
                % (" (traced)" if sample["trace"] else ""))
        if "spans" in sample:
            calls = {k: v["calls"] for k, v in sample["spans"].items()}
            if ref_calls is None:
                ref_calls = calls
            elif calls != ref_calls:
                sample["reasons"].append("span call counts differ between traced samples")


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(samples):
    """Per metric: median, quartiles and count over the untraced samples."""
    series = {
        "wall_s": [s["wall_s"] for s in samples],
        "wall_ref": [s["wall_s"] / s["ref_s"] for s in samples],
        "setup_s": [s["setup_s"] for s in samples],
        "craft_steps_per_s": [sum(o["craft_steps"] for o in s["outputs"].values())
                              / s["wall_s"] for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        "ref_s": [s["ref_s"] for s in samples],
    }
    return {k: quartiles(v) for k, v in series.items()}


def per_layer(traced, e2e):
    """Span table medians over traced samples, derived ratios and bases, and
    the untraced samples' raw timings."""
    out = {}
    for span in SPANS:
        rows = [s["spans"][span] for s in traced]
        out[span + ".calls"] = rows[0]["calls"]
        out[span + ".busy_s"] = statistics.median(r["busy_s"] for r in rows)
        out[span + ".self_s"] = statistics.median(r["self_s"] for r in rows)
    out["simulator.metrics.peak_mb"] = statistics.median(
        s["spans"]["simulator.metrics"]["peak_mb"] for s in traced)
    outputs = traced[0]["outputs"].values()
    steps = sum(o["steps"] for o in outputs)
    records = sum(o["records"] for o in outputs)
    csv_bytes = sum(o["csv_bytes"] for o in outputs)
    rhs_calls = out["control.controller_outputs.calls"]
    untraced_wall = e2e["wall_s"]["median"]
    traced_wall = statistics.median(s["wall_s"] for s in traced)
    out.update({
        "steps": steps,
        "records": records,
        "rhs_evals_per_step": rhs_calls / steps,
        "records_per_step": records / steps,
        "us_per_rhs": 1e6 * out["control.controller_outputs.busy_s"] / rhs_calls,
        "cli.csv_bytes": csv_bytes,
        "cli.csv_mb_per_s": csv_bytes / 1e6 / out["cli.write_trajectory_csv.busy_s"],
        "untraced_wall_s": untraced_wall,
        "craft_steps_per_s": e2e["craft_steps_per_s"]["median"],
        "ref_s": e2e["ref_s"]["median"],
        "traced_wall_s": traced_wall,
        "trace_overhead_s": traced_wall - untraced_wall,
    })
    return out


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed, yaml_bytes):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyyaml": yaml.__version__,
        "yaml_csafeloader": hasattr(yaml, "CSafeLoader"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": {v: os.environ[v] for v in PINNED_THREADS},
        "git_commit": git_commit(),
        "seed": seed,
        "ring_yaml_bytes": yaml_bytes,
    }


def print_report(workload, seed, env, e2e, attempted, failed, samples, layers):
    print("workload %s  seed %d  (python %s, numpy %s, PyYAML %s, nproc %d, %s)"
          % (workload.name, seed, env["python"], env["numpy"], env["pyyaml"],
             env["nproc"], env["cpu_model"]))
    print("%-18s %-5s %12s %12s %12s %4s" % ("metric", "unit", "median", "q1", "q3", "n"))
    for name, q in e2e.items():
        print("%-18s %-5s %12.6g %12.6g %12.6g %4d"
              % (name, UNITS[name], q["median"], q["q1"], q["q3"], q["n"]))
    print("%-18s %-5s %12.6g   (%d of %d samples failed)"
          % ("fail_ratio", "1", failed / attempted, failed, attempted))
    for sample in samples:
        for reason in sample["reasons"]:
            print("  failed: %s" % reason)
    first = next((s for s in samples if "outputs" in s), None)
    if first is not None:
        for s, out in first["outputs"].items():
            print("trajectory.csv seed %s sha256 %s" % (s, out.get("sha256")))
    if not layers:
        return
    print()
    print("%-36s %9s %11s %11s" % ("span (traced, median)", "calls", "busy_s", "self_s"))
    for module, spans, moves, on in LAYERS:
        print("%s -> %s; on %s" % (module, moves, on))
        for span in spans:
            print("  %-34s %9d %11.6f %11.6f"
                  % (span, layers[span + ".calls"], layers[span + ".busy_s"],
                     layers[span + ".self_s"]))
    print("simulator.metrics tracemalloc peak: %.3f MiB"
          % layers["simulator.metrics.peak_mb"])
    print("rhs_evals_per_step %.6f (%d controller_outputs calls / %d steps)"
          % (layers["rhs_evals_per_step"], layers["control.controller_outputs.calls"],
             layers["steps"]))
    print("records_per_step %.6f (%d records / %d steps)"
          % (layers["records_per_step"], layers["records"], layers["steps"]))
    print("us_per_rhs %.3f" % layers["us_per_rhs"])
    print("cli.csv_mb_per_s %.3f (%d bytes)"
          % (layers["cli.csv_mb_per_s"], layers["cli.csv_bytes"]))
    print("trace_overhead_s %.4f (traced %.4f - untraced %.4f)"
          % (layers["trace_overhead_s"], layers["traced_wall_s"],
             layers["untraced_wall_s"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "attsync", "cli.py")):
        sys.exit("error: %s has no src/attsync; run from a repository checkout" % ROOT)
    run_start = time.perf_counter()
    workload = WORKLOADS[args.workload]
    tag = "%s-seed%d" % (workload.name, args.seed)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)

    config_path = yaml_bytes = None
    if workload.preset is None:
        text = ring_yaml(args.seed, workload.craft, workload.duration)
        config_path = os.path.join(WORK, "inputs", tag + ".yaml")
        os.makedirs(os.path.dirname(config_path), exist_ok=True)
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        yaml_bytes = len(text.encode("utf-8"))

    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = collect(workload, args.seed, config_path, False, budget,
                       MIN_SAMPLES, run_start)
    traced = []
    if args.trace:
        traced = collect(workload, args.seed, config_path, True, budget,
                         MIN_SAMPLES, run_start)
    samples = untraced + traced
    check_repeats(samples)
    failed = sum(1 for s in samples if s["reasons"])
    ok_untraced = [s for s in untraced if not s["reasons"]]
    ok_traced = [s for s in traced if not s["reasons"]]

    env = environment(args.seed, yaml_bytes)
    e2e = end_to_end(ok_untraced) if ok_untraced else {}
    layers = {}
    if ok_traced and e2e:
        layers = per_layer(ok_traced, e2e)
    print_report(workload, args.seed, env, e2e, len(samples), failed, samples, layers)

    with open(os.path.join(WORK, "results", "%s-trace%d.json" % (tag, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "environment": env,
                   "end_to_end": e2e, "per_layer": layers,
                   "attempted": len(samples), "failed": failed,
                   "samples": samples}, fh, indent=1)

    if args.trace:
        section, values = CONTRACT["per_layer"], layers
    else:
        section, values = CONTRACT["end_to_end"], {k: q["median"] for k, q in e2e.items()}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in section} if values else {}
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
