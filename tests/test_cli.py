"""Command-line front end: exit codes, file outputs, overrides, schemas."""
import json
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from attsync.cli import (
    _apply_overrides,
    _load_config,
    _parse_seeds,
    build_parser,
    csv_header,
    main,
)
from attsync.config import ScenarioConfig, preset
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
    cfg = preset("paper-leaderless").to_dict()
    cfg["topology"]["adjacency"][0] = [0.0] * 6
    path = tmp_path / "broken.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 1
    out = capsys.readouterr().out
    assert "node 1 has no in-neighbor" in out
    assert "valid: no" in out


def test_validate_reports_unreachable_leader(tmp_path, capsys):
    cfg = preset("paper-tracking").to_dict()
    cfg["topology"]["leader_weights"] = [0.0] * 6
    path = tmp_path / "unrooted.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 1
    assert "leader reaches no node" in capsys.readouterr().out


def test_config_errors_exit_2(tmp_path, capsys):
    assert main(["validate", "--preset", "no-such-preset"]) == 2
    assert main(["validate"]) == 2  # neither source given
    both = write_config(tmp_path)
    assert main(["validate", "--preset", "paper-leaderless", "--config", both]) == 2
    assert main(["validate", "--config", str(tmp_path / "missing.yaml")]) == 2
    bad = tmp_path / "bad.yaml"
    bad.write_text("mode: [unclosed", encoding="utf-8")
    assert main(["validate", "--config", str(bad)]) == 2
    capsys.readouterr()


def test_partial_step_duration_exits_2(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["run", "--preset", "paper-leaderless", "--duration", "1.0025",
                 "--out", out]) == 2
    assert "not a whole number of steps" in capsys.readouterr().err


def test_divergence_exits_3(tmp_path, capsys):
    # mutual coupling under the one-step acceleration hold blows up quickly
    path = write_config(tmp_path, accel_source="held", smoothing_rate=6.0,
                        rate_leak=0.0, shadow_switch=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning leaks
        code = main(["run", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "diverged" in err
    assert re.search(r"\((sigma|omega|theta_hat) is not finite|\|sigma\| = ", err)


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


def test_overrides_reflected_in_echo_and_run(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out),
                 "--dt", "0.01", "--duration", "0.6", "--seed", "9"]) == 0
    printed = capsys.readouterr().out
    echoed = yaml.safe_load(printed.split("wrote")[0].replace("config:\n", ""))
    assert echoed["dt"] == 0.01
    assert echoed["duration"] == 0.6
    assert echoed["seed"] == 9
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["config"]["dt"] == 0.01
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


def test_assert_converged_gates_exit_status(tmp_path, capsys):
    path = write_config(tmp_path)  # 1 s: far from consensus
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out),
                 "--assert-converged"]) == 1
    assert "converged (tol 0.01): no" in capsys.readouterr().out
    assert main(["run", "--config", path, "--out", str(out),
                 "--assert-converged", "10"]) == 0
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
        seeds = _parse_seeds(args.seeds) if getattr(args, "seeds", None) else [cfg.seed]
        for seed in seeds:
            cfg.with_overrides(seed=seed).to_scenario()
