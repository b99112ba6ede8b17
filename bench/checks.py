"""Output checks applied to every timed `attsync run` output directory."""

from __future__ import annotations

import hashlib
import io
import json
import os

import numpy as np

V_SLACK = 1e-4        # the acceptance gate's certificate rule
CONVERGED_TOL = 1e-2  # the CLI's --assert-converged default


def _reject_constant(token):
    raise ValueError("non-finite value %s" % token)


def check_run_dir(run_dir: str, full_horizon: bool) -> dict:
    """Check one trajectory.csv / summary.json pair.

    Returns the CSV's sha256 and size, the step and record counts and the
    craft-steps the run covered, plus `reasons`: one line per failed check
    (empty when the output is correct).
    """
    reasons = []
    csv_path = os.path.join(run_dir, "trajectory.csv")
    with open(csv_path, "rb") as fh:
        raw = fh.read()
    with open(os.path.join(run_dir, "summary.json"), encoding="utf-8") as fh:
        try:
            summary = json.load(fh, parse_constant=_reject_constant)
        except ValueError as exc:
            reasons.append("summary.json: %s" % exc)
            summary = None
    text = raw.decode("utf-8")
    header = text.split("\n", 1)[0].split(",")
    table = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    if not np.isfinite(table).all():
        reasons.append("trajectory.csv holds non-finite values")
    v = table[:, header.index("V")]
    bad = np.nonzero(v[1:] > v[:-1] + V_SLACK * (1.0 + v[:-1]))[0]
    if bad.size:
        k = int(bad[0])
        reasons.append("V rises at row %d: %r -> %r"
                       % (k + 1, float(v[k]), float(v[k + 1])))
    out = {"sha256": hashlib.sha256(raw).hexdigest(), "csv_bytes": len(raw),
           "steps": 0, "records": table.shape[0], "craft_steps": 0,
           "reasons": reasons}
    if summary is None:
        return out
    if summary["records"] != table.shape[0]:
        reasons.append("trajectory.csv has %d rows, summary.json says %d"
                       % (table.shape[0], summary["records"]))
    out["steps"] = summary["step_count"]
    out["craft_steps"] = len(summary["config"]["spacecraft"]) * summary["step_count"]
    if full_horizon:
        m = summary["metrics"]
        if summary["config"]["mode"] == "leaderless":
            finals = (m["disagreement_final"], m["disagreement_rate_final"])
        else:
            finals = (m["tracking_error_final"], m["tracking_rate_final"])
        if max(finals) >= CONVERGED_TOL:
            reasons.append("not converged: final errors %r" % (finals,))
    return out
