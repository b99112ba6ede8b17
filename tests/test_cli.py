"""Command-line front end: exit codes, file outputs, overrides, schemas."""
import copy
import errno
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from attsync import cli, simulator
from attsync.cli import (
    _apply_overrides,
    _load_config,
    _parse_seeds,
    build_parser,
    csv_header,
    main,
)
from attsync.config import ScenarioConfig, preset
from attsync.errors import ConfigError, SimulationDiverged
from attsync.simulator import Simulation
from tests.conftest import FLEET_J


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(lang):
    text = README.read_text(encoding="utf-8")
    return re.findall(r"```%s\n(.*?)```" % lang, text, re.S)


def pair_config_dict(**extra):
    data = {
        "mode": "leaderless",
        "duration": 1.0,
        "seed": 1,
        "topology": {"adjacency": [[0.0, 1.0], [1.0, 0.0]]},
        "gains": {"Lambda": 1.0, "K": 3.0, "Gamma": 3.0},
        "spacecraft": [{"inertia": FLEET_J[0]}, {"inertia": FLEET_J[1]}],
        "smoothing_rate": 1.0,
        "rate_leak": 0.2,
        "shadow_switch": True,
    }
    data.update(extra)
    return data


def write_config(tmp_path, name="scenario.yaml", **extra):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(pair_config_dict(**extra)), encoding="utf-8")
    return str(path)


# ------------------------------------------------------------ exit codes


def test_preset_list(capsys):
    assert main(["preset", "list"]) == 0
    out = capsys.readouterr().out
    assert "paper-leaderless" in out and "paper-tracking" in out
    assert "6 spacecraft" in out


def test_validate_preset_ok(capsys):
    assert main(["validate", "--preset", "paper-leaderless"]) == 0
    out = capsys.readouterr().out
    assert "valid: yes" in out
    assert "directed spanning tree exists" in out


def test_validate_reports_missing_in_neighbor(tmp_path, capsys):
    cfg = copy.deepcopy(preset("paper-leaderless").doc)
    cfg["topology"]["adjacency"][0] = [0.0] * 6
    path = tmp_path / "broken.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 1
    out = capsys.readouterr().out
    # each failure is named once: the scenario is not built on a failed graph
    assert out.count("node 1 has no in-neighbor") == 1
    assert out.count("[fail]") == 1
    assert "scenario construction" not in out
    assert "valid: no" in out


def test_validate_reports_unreachable_leader(tmp_path, capsys):
    cfg = copy.deepcopy(preset("paper-tracking").doc)
    cfg["topology"]["leader_weights"] = [0.0] * 6
    path = tmp_path / "unrooted.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 1
    assert "leader reaches no node" in capsys.readouterr().out


def test_validate_reports_missing_reference(tmp_path, capsys):
    cfg = copy.deepcopy(preset("paper-tracking").doc)
    del cfg["reference"]
    path = tmp_path / "no_reference.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 1
    out = capsys.readouterr().out
    assert "tracking mode requires a reference trajectory" in out
    assert "valid: no" in out


def test_config_errors_exit_2(tmp_path, capsys, monkeypatch):
    assert main(["validate", "--preset", "no-such-preset"]) == 2
    assert main(["validate"]) == 2  # neither source given
    both = write_config(tmp_path)
    assert main(["validate", "--preset", "paper-leaderless", "--config", both]) == 2
    assert main(["validate", "--config", str(tmp_path / "missing.yaml")]) == 2
    bad = tmp_path / "bad.yaml"
    bad.write_text("mode: [unclosed", encoding="utf-8")
    assert main(["validate", "--config", str(bad)]) == 2
    capsys.readouterr()
    # so is a scalar PyYAML cannot construct, whatever it raises, and a run
    # refused for it leaves no --out directory
    tagged = tmp_path / "tagged.yaml"
    for scalar in ("!!int foo", "!!float x", "!!timestamp 2001-13-45",
                   "!!bool maybe", "!!timestamp foo", "!!int ''"):
        tagged.write_text("mode: %s\n" % scalar, encoding="utf-8")
        assert main(["validate", "--config", str(tagged)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid YAML: ")
        assert err.endswith(", line 1, column 7\n")  # where the scalar starts
        assert main(["run", "--config", str(tagged),
                     "--out", str(tmp_path / "bad_tag")]) == 2
        assert capsys.readouterr().err.startswith("config error: invalid YAML: ")
        assert not (tmp_path / "bad_tag").exists()
    # a config that is not UTF-8 text is a config error naming the file
    latin = tmp_path / "latin.yaml"
    latin.write_bytes(b"mode: leaderless\n# \xff\n")
    for command in ("validate", "run"):
        assert main([command, "--config", str(latin)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: %s is not UTF-8 text: " % latin)
    # an unusable path is an error before any integration, never a traceback
    monkeypatch.setattr(cli, "Simulation", None)
    for command in ("validate", "run"):
        assert main([command, "--config", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    for seeds in ([], ["--seeds", "1..2"]):
        assert main(["run", "--config", both, "--out", both] + seeds) == 2
        assert capsys.readouterr().err.startswith("error: ")
    # a sweep refused at its second directory removes its first
    (tmp_path / "x").mkdir()
    (tmp_path / "x" / "seed_2").touch()
    assert main(["run", "--preset", "paper-tracking", "--duration", "0.1",
                 "--seeds", "1..2", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 17] File exists: ")
    assert os.listdir(tmp_path / "x") == ["seed_2"]
    # and a path refused below directories it made removes them too
    deep = tmp_path / "new" / "a" / ("n" * 300)
    assert main(["run", "--preset", "paper-tracking", "--out", str(deep)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "new").exists()
    assert main(["run", "--preset", "paper-tracking", "--seed", "7",
                 "--seeds", "1..2", "--out", str(tmp_path / "out")]) == 2
    assert (capsys.readouterr().err
            == "config error: give at most one of --seed or --seeds\n")


def test_partial_step_duration_exits_2(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["run", "--preset", "paper-leaderless", "--duration", "1.0025",
                 "--out", out]) == 2
    assert "not a whole number of steps" in capsys.readouterr().err
    # a step count too large for a float is a config error, not a traceback
    assert main(["run", "--preset", "paper-leaderless", "--dt", "1e-310",
                 "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "step count" in err


@pytest.mark.parametrize("duration, count", [("1e300", "2e+301"), ("1e12", "2e+13")])
def test_unallocatable_log_exits_2_naming_the_record_count(tmp_path, capsys,
                                                           duration, count):
    # past numpy's maximum dimension, or 146 TiB: refused before the first step
    run = ["run", "--preset", "paper-leaderless", "--duration", duration]
    assert main(run + ["--out", str(tmp_path / "new" / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: a log of %s records " % count)
    assert err.count("\n") == 1
    # the refused run removes every directory it created, and only those
    assert not (tmp_path / "new").exists()
    assert main(run + ["--seeds", "1..2", "--out", str(tmp_path / "new" / "sweep")]) == 2
    assert not (tmp_path / "new").exists()
    (tmp_path / "empty").mkdir()
    assert main(run + ["--out", str(tmp_path / "empty")]) == 2
    assert (tmp_path / "empty").is_dir()


def test_refused_run_removes_directories_made_through_dotdot(tmp_path, capsys, monkeypatch):
    # `newdir/..` is created on the way to `out`, so the refused run removes it too
    monkeypatch.chdir(tmp_path)
    run = ["run", "--preset", "paper-leaderless", "--duration", "1e12"]
    for out in ("newdir/../out", "a/./b/../../c/d/", str(tmp_path / "newdir" / ".." / "out")):
        assert main(run + ["--out", out]) == 2
        assert "cannot be allocated" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_divergence_exits_3(tmp_path, capsys):
    # a step far past the stability limit of RK4 blows up within a few steps
    path = write_config(tmp_path, dt=0.5, duration=5.0)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning leaks
        code = main(["run", "--config", path, "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "diverged" in err
    assert re.search(r"\((sigma|omega|theta_hat) is not finite|\|sigma\| = ", err)
    # the failed run can still be inspected
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert set(summary) == {"config", "step_count", "validity", "diverged"}
    assert summary["config"] == ScenarioConfig.from_yaml_file(path).doc
    assert summary["step_count"] == 10 and summary["validity"]["valid"] is True
    diverged = summary["diverged"]
    assert diverged["craft"] in (1, 2)
    assert diverged["quantity"] in ("sigma", "omega", "theta_hat")
    assert 0.0 < diverged["time"] <= 5.0
    assert diverged["message"] == err.strip()[len("error: "):]
    assert "spacecraft %d diverged" % diverged["craft"] in diverged["message"]
    assert not (out / "trajectory.csv").exists()


def test_leaderless_config_with_leader_weights_is_refused(tmp_path, capsys):
    # the leader is a node of the graph only when tracking
    path = write_config(tmp_path, topology={"adjacency": [[0.0, 1.0], [1.0, 0.0]],
                                            "leader_weights": [5.0, 0.0]})
    assert main(["validate", "--config", path]) == 1
    out = capsys.readouterr().out
    assert out.count("[fail]") == 1 and "valid: no" in out
    assert "[fail] scenario construction failed: leaderless mode takes no leader weights\n" in out
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert (capsys.readouterr().err
            == "config error: leaderless mode takes no leader weights\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("relay, pair", [
    (lambda tmp: write_config(tmp, accel_source="held"), "craft 1 hears craft 2"),
    # leader -> craft 1 -> craft 2: no cycle, but craft 2 relays craft 1
    (lambda tmp: held_config(tmp, adjacency=[[0.0, 0.0], [1.0, 0.0]],
                             leader_weights=[1.0, 0.0]), "craft 2 hears craft 1"),
], ids=["cyclic-pair", "relay-chain"])
def test_held_source_on_a_cyclic_graph_fails_validation(tmp_path, capsys, relay, pair):
    # the held source takes only craft that hear the leader alone
    path = relay(tmp_path)
    with pytest.raises(ConfigError, match=pair):
        ScenarioConfig.from_yaml_file(path).to_scenario()
    assert main(["validate", "--config", path]) == 1
    out = capsys.readouterr().out
    assert out.count("[fail]") == 1
    assert "[fail] scenario construction failed: accel_source 'held'" in out
    assert pair in out
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert pair in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # the star it accepts still refuses the hold with shadow_switch, from the
    # flag or from the file
    star = held_config(tmp_path)
    assert main(["run", "--config", star, "--out", str(tmp_path / "out"),
                 "--shadow-switch"]) == 2
    assert "shadow_switch" in capsys.readouterr().err
    assert main(["validate", "--config", held_config(tmp_path, shadow_switch=True)]) == 1
    out = capsys.readouterr().out
    assert out.count("[fail]") == 1
    assert "[fail] scenario construction failed: shadow_switch" in out


@pytest.mark.parametrize("argv, extra, field", [
    (["--decimate", "0"], {}, "decimate: "),
    (["--seed", "-1"], {}, "seed: "),
    ([], {"topology": {"adjacency": [[0.0, -1.0], [1.0, 0.0]]}}, "topology: "),
    ([], {"topology": {"adjacency": [[1.0, 1.0], [1.0, 0.0]]}}, "topology: "),
    ([], {"random_bounds": {"sigma": -0.5}}, "random_bounds.sigma: "),
    ([], {"seed": None}, "seed: "),  # a run without a seed cannot be reproduced
    # integers past the float range, as a scalar, a vector entry and a matrix entry
    ([], {"dt": 10 ** 400}, "dt: must be finite"),
    ([], {"gains": {"Gamma": [10 ** 400] + [1.0] * 5}}, "gains.Gamma[0]: must be finite"),
    ([], {"topology": {"adjacency": [[0.0, 10 ** 400], [1.0, 0.0]]}},
     "topology.adjacency[0][1]: must be finite"),
    # a finite bound whose range overflows is refused before any draw
    ([], {"random_bounds": {"sigma": 1.0e308}},
     "random_bounds.sigma: the range 2 * bound is not finite"),
])
def test_bad_values_exit_2_naming_the_field(tmp_path, capsys, argv, extra, field):
    path = write_config(tmp_path, **extra)
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + field)
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------- run outputs


def test_run_writes_trajectory_and_summary(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "wrote" in printed and "disagreement_final" in printed

    csv_lines = (out / "trajectory.csv").read_text(encoding="utf-8").splitlines()
    header = csv_lines[0].split(",")
    assert header == csv_header(2, tracking=False)
    assert header[0] == "t"
    assert header[1:4] == ["sigma_1_x", "sigma_1_y", "sigma_1_z"]
    assert header[-2:] == ["V", "D"]
    # duration 1.0 at dt 0.005 = 200 steps, decimate 10 -> initial + 20 records
    assert len(csv_lines) == 1 + 21

    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert set(summary) == {"config", "metrics", "step_count", "records",
                            "wall_clock_s", "validity"}
    assert summary["step_count"] == 200
    assert summary["records"] == 21
    assert summary["validity"]["valid"] is True
    assert summary["config"]["duration"] == 1.0
    assert summary["metrics"]["disagreement_final"] == pytest.approx(
        float(csv_lines[-1].split(",")[-1]))


def test_trajectory_csv_peak_does_not_grow_with_the_record_count(tmp_path):
    # the writer formats a block of records at a time, so its Python allocation
    # peak is the same for 4096 records as for 256
    peaks = []
    for n_rec in (256, 4096):
        rng = np.random.default_rng(n_rec)
        log = types.SimpleNamespace(
            times=rng.random(n_rec), sigma=rng.random((n_rec, 6, 3)),
            omega=rng.random((n_rec, 6, 3)), torque=rng.random((n_rec, 6, 3)),
            theta_hat=rng.random((n_rec, 6, 6)), lyapunov=rng.random(n_rec),
            disagreement=rng.random(n_rec), tracking_error=rng.random(n_rec))
        tracemalloc.start()
        try:
            cli.write_trajectory_csv(log, tmp_path / "trajectory.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        lines = (tmp_path / "trajectory.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + n_rec
        per_craft = np.concatenate([log.sigma, log.omega, log.torque, log.theta_hat], axis=2)
        last = [log.times[-1], *per_craft[-1].ravel(), log.lyapunov[-1],
                log.disagreement[-1], log.tracking_error[-1]]
        assert np.array_equal(np.array(lines[-1].split(","), dtype=float), last)
    assert peaks[1] < 1.2 * peaks[0]


def rerun_from_summary(tmp_path, out):
    """Run the config a summary.json recorded; return the new trajectory bytes."""
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    path = tmp_path / "from_summary.yaml"
    text = yaml.safe_dump(ScenarioConfig.from_dict(summary["config"]).doc, sort_keys=False)
    path.write_text(text, encoding="utf-8")
    again = tmp_path / "again"
    assert main(["run", "--config", str(path), "--out", str(again)]) == 0
    return summary["config"], (again / "trajectory.csv").read_bytes()


def test_summary_config_reproduces_a_preset_run_with_overrides(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--preset", "paper-tracking", "--out", str(out), "--seed", "4",
                 "--duration", "0.2", "--decimate", "1", "--shadow-switch"]) == 0
    config, csv = rerun_from_summary(tmp_path, out)
    capsys.readouterr()
    assert csv == (out / "trajectory.csv").read_bytes()
    assert config["seed"] == 4 and config["decimate"] == 1 and config["shadow_switch"]
    assert config["gains"] == {"Lambda": 1.0, "K": 3.0, "Gamma": 3.0}  # as written


def test_summary_config_reproduces_a_yaml_run_as_written(tmp_path, capsys):
    # packed inertia, scalar gains and a partial random_bounds stay as given
    craft = [{"theta": [1.2, 0.0, 0.0, 1.0, 0.1, 0.8]}, {"inertia": FLEET_J[1]}]
    path = write_config(tmp_path, duration=0.5, spacecraft=craft,
                        random_bounds={"omega": 0.1}, gains={"K": 2.0})
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    config, csv = rerun_from_summary(tmp_path, out)
    capsys.readouterr()
    assert csv == (out / "trajectory.csv").read_bytes()
    assert config["spacecraft"] == craft and config["gains"] == {"K": 2.0}
    assert config["random_bounds"] == {"sigma": 0.5, "omega": 0.1}


def test_tracking_csv_has_reference_column(tmp_path):
    cfg = pair_config_dict(
        mode="tracking", shadow_switch=False, smoothing_rate=6.0, rate_leak=0.0,
        duration=0.5,
    )
    cfg["topology"]["leader_weights"] = [1.0, 0.0]
    cfg["reference"] = {"kind": "constant", "value": [0.1, 0.0, -0.1]}
    path = tmp_path / "tracking.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    header = (out / "trajectory.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header.split(",") == csv_header(2, tracking=True)
    assert header.endswith("V,D,T")


def test_full_rate_decimation_row_count(tmp_path, capsys):
    path = write_config(tmp_path, duration=0.5)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out), "--decimate", "1"]) == 0
    capsys.readouterr()
    csv_lines = (out / "trajectory.csv").read_text(encoding="utf-8").splitlines()
    assert len(csv_lines) == 1 + 101  # header + 100 steps at full rate + t=0


def test_identical_config_and_seed_give_identical_bytes(tmp_path, capsys):
    path = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", path, "--out", str(out_a)]) == 0
    assert main(["run", "--config", path, "--out", str(out_b)]) == 0
    capsys.readouterr()
    a = (out_a / "trajectory.csv").read_bytes()
    b = (out_b / "trajectory.csv").read_bytes()
    assert a == b


def test_overrides_reflected_in_summary_and_run(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out),
                 "--dt", "0.01", "--duration", "0.6", "--seed", "9"]) == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["config"]["dt"] == 0.01
    assert summary["config"]["duration"] == 0.6
    assert summary["config"]["seed"] == 9
    assert summary["step_count"] == 60


def test_seed_sweep_writes_per_seed_directories(tmp_path, capsys):
    path = write_config(tmp_path, duration=0.5)
    out = tmp_path / "sweep"
    assert main(["run", "--config", path, "--out", str(out), "--seeds", "1..3"]) == 0
    capsys.readouterr()
    for s in (1, 2, 3):
        assert (out / ("seed_%d" % s) / "trajectory.csv").is_file()
        summary = json.loads(
            (out / ("seed_%d" % s) / "summary.json").read_text(encoding="utf-8"))
        assert summary["config"]["seed"] == s
    assert main(["run", "--config", path, "--out", str(out), "--seeds", "5..1"]) == 2
    assert main(["run", "--config", path, "--out", str(out), "--seeds", "bogus"]) == 2
    capsys.readouterr()
    # a negative seed is refused as the description's own would be, before any directory
    neg = tmp_path / "neg"
    assert main(["run", "--config", path, "--out", str(neg), "--seeds=-1..1"]) == 2
    assert capsys.readouterr().err == "config error: seed: expected an integer of at least 0\n"
    assert not neg.exists()


def test_seed_sweep_parses_once_and_reports_once(tmp_path, capsys, monkeypatch):
    # the description is parsed once and realized at each seed; the members
    # share what parsing built, and the run writes one validity report
    path = write_config(tmp_path, duration=0.5)
    counts = {"from_dict": 0, "validity_report": 0}
    scenarios = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    from_dict = ScenarioConfig.from_dict
    monkeypatch.setattr(ScenarioConfig, "from_dict",
                        classmethod(lambda cls, data: counted("from_dict", from_dict)(data)))
    monkeypatch.setattr(cli, "validity_report", counted("validity_report", cli.validity_report))
    to_scenario = ScenarioConfig.to_scenario

    def realize(self, *seed):
        scenarios.append(to_scenario(self, *seed))
        return scenarios[-1]

    monkeypatch.setattr(ScenarioConfig, "to_scenario", realize)
    out = tmp_path / "sweep"
    assert main(["run", "--config", path, "--seeds", "1..3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert counts == {"from_dict": 1, "validity_report": 1}
    assert len(scenarios) == 3
    assert all(sc.topology is scenarios[0].topology for sc in scenarios)
    reports = [json.loads((out / ("seed_%d" % s) / "summary.json").read_text(
        encoding="utf-8"))["validity"] for s in (1, 2, 3)]
    assert reports[0]["valid"] and reports == reports[:1] * 3


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def held_config(tmp_path, adjacency=((0.0, 0.0), (0.0, 0.0)), leader_weights=(1.0, 2.0),
                shadow_switch=False):
    # by default leader -> craft 1 and leader -> craft 2, the held source's star
    return write_config(
        tmp_path, name="held.yaml", mode="tracking", accel_source="held",
        topology={"adjacency": [list(row) for row in adjacency],
                  "leader_weights": list(leader_weights)},
        reference={"kind": "constant", "value": [0.1, 0.0, -0.1]},
        shadow_switch=shadow_switch, rate_leak=0.0)


@pytest.mark.parametrize("source", [
    lambda tmp: ["--preset", "paper-leaderless", "--duration", "0.5"],
    lambda tmp: ["--preset", "paper-tracking", "--duration", "0.5"],
    lambda tmp: ["--config", held_config(tmp), "--duration", "0.5"],
    # seed 1 flips to its shadow at t = 1.425 s, seeds 2 and 3 do not
    lambda tmp: ["--preset", "paper-tracking", "--shadow-switch", "--duration", "1.5"],
], ids=["leaderless-shadow", "tracking", "held-star", "tracking-shadow-flip"])
def test_seed_sweep_trajectories_match_single_seed_runs(tmp_path, capsys, source):
    # a sweep is one integration over all seeds; each seed's file must still
    # be byte for byte the file of its own run (criterion 8 relies on it)
    args = ["run"] + source(tmp_path) + ["--decimate", "3"]
    assert main(args + ["--seeds", "1..3", "--out", str(tmp_path / "sweep")]) == 0
    walls, flipped = set(), []
    for s in (1, 2, 3):
        alone = tmp_path / ("alone_%d" % s)
        assert main(args + ["--seed", str(s), "--out", str(alone)]) == 0
        swept = tmp_path / "sweep" / ("seed_%d" % s)
        assert sha256(swept / "trajectory.csv") == sha256(alone / "trajectory.csv")
        summary = json.loads((swept / "summary.json").read_text(encoding="utf-8"))
        assert summary["config"]["seed"] == s
        walls.add(summary.pop("wall_clock_s"))
        # the rest of the summary, key order included, is the solo run's
        solo = json.loads((alone / "summary.json").read_text(encoding="utf-8"))
        del solo["wall_clock_s"]
        assert json.dumps(summary) == json.dumps(solo)
        # a craft's flip to its shadow shows as a jump of its logged attitude
        header, *rows = (swept / "trajectory.csv").read_text(encoding="utf-8").split()
        table = np.array([row.split(",") for row in rows], dtype=float)
        sigma = table[:, [i for i, h in enumerate(header.split(",")) if h.startswith("sigma")]]
        flipped.append(bool((np.abs(np.diff(sigma, axis=0)) > 0.5).any()))
    assert len(walls) == 1  # every seed reports the whole integration's wall
    if "--shadow-switch" in args:  # the members must differ in whether they flip
        assert flipped == [True, False, False]
    capsys.readouterr()


def test_seed_sweep_reports_each_divergence_in_its_own_directory(tmp_path, capsys):
    # at dt = 0.25 seed 3 blows up while seeds 2 and 4 run to the end
    path = write_config(tmp_path, dt=0.25, duration=5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", path, "--seeds", "2..4",
                     "--out", str(tmp_path / "sweep")]) == 3
    capsys.readouterr()
    diverged = []
    for s in (2, 3, 4):
        alone = tmp_path / ("alone_%d" % s)
        code = main(["run", "--config", path, "--seed", str(s), "--out", str(alone)])
        capsys.readouterr()
        swept = tmp_path / "sweep" / ("seed_%d" % s)
        summary = json.loads((swept / "summary.json").read_text(encoding="utf-8"))
        solo = json.loads((alone / "summary.json").read_text(encoding="utf-8"))
        assert set(summary) == set(solo)
        if code == 3:
            diverged.append(s)
            assert summary["diverged"] == solo["diverged"]
            assert summary["validity"] == solo["validity"]
            assert not (swept / "trajectory.csv").exists()
        else:
            assert code == 0 and summary["metrics"] == solo["metrics"]
            assert sha256(swept / "trajectory.csv") == sha256(alone / "trajectory.csv")
    assert diverged == [3]


def test_a_diverged_rerun_leaves_no_older_trajectory(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["run", "--config", write_config(tmp_path), "--out", out]) == 0
    assert (tmp_path / "out" / "trajectory.csv").exists()
    diverging = write_config(tmp_path, "diverging.yaml", dt=0.5, duration=5.0)
    assert main(["run", "--config", diverging, "--out", out]) == 3
    capsys.readouterr()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
    assert "diverged" in summary
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["summary.json"]


def test_a_diverging_sweep_over_used_directories_leaves_no_older_trajectory(tmp_path, capsys):
    out = tmp_path / "out"
    clean = write_config(tmp_path, "clean.yaml", duration=0.5)
    assert main(["run", "--config", clean, "--seeds", "2..4", "--out", str(out)]) == 0
    assert main(diverging_sweep(tmp_path) + ["--out", str(out)]) == 3
    capsys.readouterr()
    for s in (2, 3, 4):
        member = out / ("seed_%d" % s)
        summary = json.loads((member / "summary.json").read_text(encoding="utf-8"))
        assert summary["config"]["dt"] == 0.25
        if s == 3:
            assert "diverged" in summary
            assert sorted(p.name for p in member.iterdir()) == ["summary.json"]
        else:  # this run's file, not the clean sweep's
            lines = (member / "trajectory.csv").read_text(encoding="utf-8").splitlines()
            assert len(lines) == 1 + summary["records"]
            assert float(lines[-1].split(",")[0]) == 5.0


def diverging_sweep(tmp_path):
    """At dt = 0.25 seed 3 blows up while seeds 2 and 4 run to the end."""
    return ["run", "--config", write_config(tmp_path, dt=0.25, duration=5.0),
            "--seeds", "2..4"]


def ring_config(tmp_path, n=70):
    """A leaderless directed ring of n craft with seeded states, 0.05 s long."""
    ring = np.roll(np.eye(n), 1, axis=1).tolist()
    return write_config(tmp_path, duration=0.05, topology={"adjacency": ring},
                        spacecraft=[{"inertia": FLEET_J[i % 6]} for i in range(n)])


def assert_nothing_outlives_main(tmp_path):
    with pytest.raises(ChildProcessError):  # no child left, running or unreaped
        os.waitpid(-1, os.WNOHANG)
    assert list(tmp_path.rglob("*.part")) == []


@pytest.mark.parametrize("case", ["blocks", "tracking", "ring70", "diverging-sweep",
                                  "refused-pipe-size"])
def test_streamed_csv_equals_the_in_process_writer(tmp_path, capsys, monkeypatch, case):
    # the helper process writes the bytes write_trajectory_csv writes from the
    # finished log, header included: over many blocks, with the T column, one
    # record a block, for the members of a sweep that finish beside a diverging
    # one, and through the default pipe when widening it is refused
    refused = []
    if case == "blocks":  # 201 records, 10 a block
        monkeypatch.setattr(simulator, "_BLOCK_ELEMENTS", 40)
        argv = ["run", "--config", write_config(tmp_path), "--decimate", "1"]
    elif case == "tracking":
        argv = ["run", "--preset", "paper-tracking", "--duration", "1", "--seed", "3"]
    elif case == "ring70":
        argv = ["run", "--config", ring_config(tmp_path)]
    elif case == "diverging-sweep":
        argv = diverging_sweep(tmp_path)
    else:  # a stream larger than the default 64 KiB pipe
        if cli.fcntl is None:
            pytest.skip("no fcntl on this platform")

        def refuse(*args):
            refused.append(args)
            raise OSError(errno.EPERM, "refused")

        monkeypatch.setattr(cli.fcntl, "fcntl", refuse)
        argv = ["run", "--preset", "paper-tracking", "--duration", "2", "--seed", "3",
                "--decimate", "1"]
    argv += ["--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    capsys.readouterr()
    args = build_parser().parse_args(argv)
    cfg = _apply_overrides(_load_config(args), args)
    seeds = _parse_seeds(args.seeds) if args.seeds else [cfg.doc["seed"]]
    logs = Simulation([cfg.to_scenario(s) for s in seeds]).run(decimate=cfg.doc["decimate"])
    finished = 0
    for s, log in zip(seeds, logs):
        out = tmp_path / "out" / ("seed_%d" % s if args.seeds else "")
        if isinstance(log, SimulationDiverged):
            assert not (out / "trajectory.csv").exists()
            continue
        cli.write_trajectory_csv(log, tmp_path / "expected.csv")
        streamed = (out / "trajectory.csv").read_bytes()
        assert streamed == (tmp_path / "expected.csv").read_bytes()
        header = csv_header(cfg.n, cfg.doc["mode"] == "tracking")
        assert streamed.split(b"\n", 1)[0].decode("utf-8") == ",".join(header)
        finished += 1
    assert (code, finished) == ((3, 2) if case == "diverging-sweep" else (0, 1))
    assert len(refused) == (case == "refused-pipe-size")
    assert_nothing_outlives_main(tmp_path)


def test_the_writer_starts_without_json_numpy_or_yaml():
    proc = subprocess.run([sys.executable, "-S", "-X", "importtime", cli.csvwriter.__file__,
                           "2", "0"], stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    names = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")]
    assert "struct" in names  # the report lists the writer's own imports
    assert not {name.split(".")[0] for name in names} & {"json", "numpy", "yaml"}


def test_the_writer_pipe_holds_a_run_of_blocks(tmp_path, capsys, monkeypatch):
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_GETPIPE_SZ"):
        pytest.skip("no F_GETPIPE_SZ on this platform")
    sizes = []
    append = cli.CsvWriter.append

    def append_and_measure(writer, path, table):
        append(writer, path, table)
        sizes.append(fcntl.fcntl(writer._proc.stdin.fileno(), fcntl.F_GETPIPE_SZ))

    monkeypatch.setattr(cli.CsvWriter, "append", append_and_measure)
    assert main(["run", "--config", write_config(tmp_path), "--seeds", "1..2",
                 "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert len(sizes) == 2 and min(sizes) >= 1 << 20


@pytest.mark.parametrize("case", ["clean", "diverged", "diverging-sweep"])
def test_no_process_or_part_file_outlives_main(tmp_path, capsys, case):
    if case == "diverging-sweep":
        argv = diverging_sweep(tmp_path)
    else:  # test_divergence_exits_3's run diverges
        extra = {"dt": 0.5, "duration": 5.0} if case == "diverged" else {}
        argv = ["run", "--config", write_config(tmp_path, **extra)]
    code = main(argv + ["--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert code == (0 if case == "clean" else 3)
    assert_nothing_outlives_main(tmp_path)


@pytest.mark.parametrize("failure", ["exits-1", "killed"])
def test_a_failed_writer_exits_2_and_removes_what_the_run_made(tmp_path, capsys,
                                                               monkeypatch, failure):
    # the writer fails after making its part files: it writes them all, then exits 1,
    # or it is killed once it has made them
    monkeypatch.setattr(simulator, "_BLOCK_ELEMENTS", 40)  # 5 records a block of 2 members
    if failure == "exits-1":
        program = ("import sys; sys.path.insert(0, %r); import csvwriter; csvwriter.main(); "
                   "sys.exit(1)" % os.path.dirname(cli.csvwriter.__file__))
        monkeypatch.setattr(cli, "_WRITER_COMMAND", (sys.executable, "-c", program))
    else:
        append = cli.CsvWriter.append

        def append_then_kill(writer, path, table):
            append(writer, path, table)
            if not hasattr(writer, "killed"):
                deadline = time.monotonic() + 10.0
                while not os.path.exists(writer.parts[path]) and time.monotonic() < deadline:
                    time.sleep(0.01)
                os.kill(writer._proc.pid, signal.SIGKILL)
                writer.killed = True

        monkeypatch.setattr(cli.CsvWriter, "append", append_then_kill)
    (tmp_path / "kept").mkdir()
    for out in (tmp_path / "new" / "out", tmp_path / "kept"):
        code = main(["run", "--config", write_config(tmp_path), "--decimate", "1",
                     "--seeds", "1..2", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: the trajectory.csv writer exited with status ")
        assert_nothing_outlives_main(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept", "scenario.yaml"]
    assert list((tmp_path / "kept").iterdir()) == []


def test_a_writer_failing_after_the_summaries_are_built_writes_no_summary(tmp_path, capsys,
                                                                         monkeypatch):
    # every member's summary.json text is built while the writer drains; the files
    # land only after it finishes, so a writer killed then leaves nothing behind
    events = []
    summarize, finish = cli._summarize, cli.CsvWriter.finish

    def spy_summarize(*args):
        events.append("summary")
        return summarize(*args)

    def kill_then_finish(writer):
        events.append("finish")
        os.kill(writer._proc.pid, signal.SIGKILL)
        finish(writer)

    monkeypatch.setattr(cli, "_summarize", spy_summarize)
    monkeypatch.setattr(cli.CsvWriter, "finish", kill_then_finish)
    path = write_config(tmp_path)
    for out, seeds in ((tmp_path / "kept", []), (tmp_path / "kept_sweep", ["--seeds", "1..2"])):
        for d in ([out] if not seeds else [out, out / "seed_1", out / "seed_2"]):
            d.mkdir()
        events.clear()
        code = main(["run", "--config", path, "--out", str(out)] + seeds)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: the trajectory.csv writer exited with status ")
        assert events == ["summary"] * (2 if seeds else 1) + ["finish"]
        assert [p for p in out.rglob("*") if p.is_file()] == []
        assert_nothing_outlives_main(tmp_path)


def test_assert_converged_gates_exit_status(tmp_path, capsys):
    path = write_config(tmp_path)  # 1 s: far from consensus
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out),
                 "--assert-converged"]) == 1
    assert "converged (tol 0.01): no" in capsys.readouterr().out
    assert main(["run", "--config", path, "--out", str(out),
                 "--assert-converged", "10"]) == 0
    assert "converged (tol 10): yes" in capsys.readouterr().out
    # a tracking run is judged by its tracking error and rate
    tracking = ["run", "--preset", "paper-tracking", "--duration", "0.5",
                "--out", str(out), "--assert-converged"]
    assert main(tracking) == 1
    assert "converged (tol 0.01): no" in capsys.readouterr().out
    assert main(tracking + ["10"]) == 0
    assert "converged (tol 10): yes" in capsys.readouterr().out


def test_environment_variable_sets_output_directory(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, duration=0.5)
    env_out = tmp_path / "from-env"
    monkeypatch.setenv("ATTSYNC_OUT_DIR", str(env_out))
    assert main(["run", "--config", path]) == 0
    capsys.readouterr()
    assert (env_out / "trajectory.csv").is_file()


def test_shadow_switch_flag(tmp_path, capsys):
    path = write_config(tmp_path, duration=0.5, shadow_switch=False)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out), "--shadow-switch"]) == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["config"]["shadow_switch"] is True


def test_csv_values_are_full_precision(tmp_path, capsys):
    path = write_config(tmp_path, duration=0.5)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "trajectory.csv").read_text(encoding="utf-8").splitlines()
    last = [float(v) for v in lines[-1].split(",")]
    assert len(last) == len(csv_header(2, tracking=False))
    # repr round-trips doubles exactly; re-parsing must reproduce the value
    assert repr(last[1]) in lines[-1]
    assert "," not in lines[-1].replace(",", "", len(last) - 1)  # '.' decimal


# --------------------------------------------------------- documentation


def test_readme_yaml_blocks_build_scenarios():
    blocks = readme_blocks("yaml")
    assert blocks
    for text in blocks:
        ScenarioConfig.from_yaml(text).to_scenario()


def test_readme_library_example_runs(monkeypatch, capsys):
    # every Python block of the README as written, on a 1 s horizon of its preset;
    # each prints one number
    monkeypatch.setattr("attsync.config.preset",
                        lambda name: preset(name).with_overrides(duration=1.0))
    blocks = readme_blocks("python")
    assert len(blocks) >= 2
    for block in blocks:
        exec(block, {})
        printed = capsys.readouterr().out.split()
        assert len(printed) == 1
        float(printed[0])


def test_readme_commands_validate(tmp_path, monkeypatch):
    # every documented run/validate line, with the README's YAML standing in
    # for my_scenario.yaml, must build its scenario for every seed it names
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my_scenario.yaml").write_text(readme_blocks("yaml")[0], encoding="utf-8")
    lines = [line.split("#")[0].split()
             for block in readme_blocks("sh") for line in block.splitlines()]
    commands = [words[1:] for words in lines
                if words[:1] == ["attsync"] and words[1] in ("run", "validate")]
    assert len(commands) >= 6
    for argv in commands:
        args = build_parser().parse_args(argv)
        cfg = _load_config(args)
        if argv[0] == "run":
            cfg = _apply_overrides(cfg, args)
        seeds = _parse_seeds(args.seeds) if getattr(args, "seeds", None) else [cfg.doc["seed"]]
        for seed in seeds:
            cfg.to_scenario(seed)  # as `run` builds each seed
