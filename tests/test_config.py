"""Declarative scenario configs: parsing, presets, round trips, errors."""
import collections
import gc
import importlib.util
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from attsync import config
from attsync.config import (
    DEFAULT_BOUND,
    DEFAULTS,
    ScenarioConfig,
    preset,
    preset_names,
)
from attsync.errors import ConfigError
from tests.conftest import FLEET_ADJ, FLEET_J, FLEET_LEADER_B


def minimal_dict(mode="leaderless", n=2, **extra):
    data = {
        "mode": mode,
        "topology": {"adjacency": [[0.0, 1.0], [1.0, 0.0]][:n]},
        "spacecraft": [{"inertia": FLEET_J[i]} for i in range(n)],
    }
    if mode == "tracking":
        data["topology"]["leader_weights"] = [1.0] + [0.0] * (n - 1)
        data["reference"] = {"kind": "constant", "value": [0.1, 0.3, 0.5]}
    data.update(extra)
    return data


def scenarios_equal(a, b):
    if (a.mode, a.dt, a.duration, a.shadow_switch, a.accel_source,
            a.smoothing_rate, a.rate_leak) != \
       (b.mode, b.dt, b.duration, b.shadow_switch, b.accel_source,
            b.smoothing_rate, b.rate_leak):
        return False
    if not np.array_equal(a.topology.adjacency, b.topology.adjacency):
        return False
    if (a.topology.leader_weights is None) != (b.topology.leader_weights is None):
        return False
    if a.topology.leader_weights is not None and not np.array_equal(
            a.topology.leader_weights, b.topology.leader_weights):
        return False
    if (a.reference is None) != (b.reference is None):
        return False
    if a.reference is not None:
        ra, rb = a.reference, b.reference
        if ra.kind != rb.kind:
            return False
        for name in ("value", "amplitude", "frequency", "phase", "offset"):
            va, vb = getattr(ra, name), getattr(rb, name)
            if (va is None) != (vb is None):
                return False
            if va is not None and not np.array_equal(va, vb):
                return False
    if len(a.spacecraft) != len(b.spacecraft):
        return False
    for ca, cb in zip(a.spacecraft, b.spacecraft):
        if not (np.array_equal(ca.inertia.matrix, cb.inertia.matrix)
                and np.array_equal(ca.initial_state.sigma, cb.initial_state.sigma)
                and np.array_equal(ca.initial_state.omega, cb.initial_state.omega)
                and np.array_equal(ca.theta_hat0, cb.theta_hat0)
                and np.array_equal(ca.gains.Lambda, cb.gains.Lambda)
                and np.array_equal(ca.gains.K, cb.gains.K)
                and np.array_equal(ca.gains.Gamma, cb.gains.Gamma)):
            return False
    return True


# ---------------------------------------------------------------- presets


def test_preset_names():
    assert preset_names() == ["paper-leaderless", "paper-tracking"]


def test_unknown_preset_lists_available():
    with pytest.raises(ConfigError) as exc:
        preset("paper-formation")
    message = str(exc.value)
    assert "paper-leaderless" in message and "paper-tracking" in message


def test_leaderless_preset_contents():
    cfg = preset("paper-leaderless")
    doc = cfg.doc
    assert doc["mode"] == "leaderless" and cfg.n == 6
    assert doc["dt"] == DEFAULTS["dt"] and doc["duration"] == DEFAULTS["duration"]
    assert doc["seed"] == 0 and cfg.topology.leader_weights is None and cfg.reference is None
    assert doc["random_bounds"] == {"sigma": DEFAULT_BOUND, "omega": DEFAULT_BOUND}
    assert np.array_equal(cfg.topology.adjacency, FLEET_ADJ)
    for (inertia, state, g, th0), j in zip(cfg.craft, FLEET_J):
        assert np.array_equal(inertia.matrix, np.array(j))
        assert state is None  # drawn from the seed
        assert np.array_equal(g.Lambda, np.eye(3))
        assert np.array_equal(g.K, 3.0 * np.eye(3))
        assert np.array_equal(g.Gamma, 3.0 * np.eye(6))
        assert np.array_equal(th0, np.zeros(6))
    assert doc["accel_source"] == "smoothed"
    assert doc["shadow_switch"] and doc["rate_leak"] > 0.0


def test_tracking_preset_contents():
    cfg = preset("paper-tracking")
    assert cfg.doc["mode"] == "tracking" and cfg.n == 6
    assert np.array_equal(cfg.topology.leader_weights, FLEET_LEADER_B)
    assert cfg.reference.kind == "constant"
    assert np.array_equal(cfg.reference.value, [0.1, 0.3, 0.5])
    assert np.array_equal(cfg.topology.adjacency, FLEET_ADJ)
    assert not cfg.doc["shadow_switch"] and cfg.doc["rate_leak"] == 0.0


@pytest.mark.parametrize("name", ["paper-leaderless", "paper-tracking"])
def test_preset_round_trip_yaml(name):
    cfg = preset(name)
    again = ScenarioConfig.from_yaml(yaml.safe_dump(cfg.doc, sort_keys=False))
    assert scenarios_equal(cfg.to_scenario(), again.to_scenario())


def test_preset_scenarios_validate():
    for name in preset_names():
        sc = preset(name).to_scenario()
        assert sc.n == 6 and sc.n_steps == 8000


# ---------------------------------------------------------------- parsing


def test_scalar_gain_shorthand():
    cfg = ScenarioConfig.from_dict(minimal_dict(gains={"K": 3.0}))
    for _, _, g, _ in cfg.craft:
        assert np.array_equal(g.K, 3.0 * np.eye(3))
        assert np.array_equal(g.Lambda, np.eye(3))  # default 1.0 shorthand
        assert np.array_equal(g.Gamma, np.eye(6))


def test_gamma_diagonal_shorthand():
    cfg = ScenarioConfig.from_dict(
        minimal_dict(gains={"Gamma": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]})
    )
    assert np.array_equal(cfg.craft[0][2].Gamma, np.diag([1.0, 2, 3, 4, 5, 6]))


def test_per_craft_gain_list():
    cfg = ScenarioConfig.from_dict(
        minimal_dict(gains=[{"K": 2.0}, {"K": 4.0}])
    )
    assert np.array_equal(cfg.craft[0][2].K, 2.0 * np.eye(3))
    assert np.array_equal(cfg.craft[1][2].K, 4.0 * np.eye(3))
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(minimal_dict(gains=[{"K": 2.0}]))


def test_inertia_as_packed_vector_matches_matrix_form():
    j = np.array(FLEET_J[1])
    # packed upper triangle, row by row: [J11, J12, J13, J22, J23, J33]
    theta = [j[0, 0], j[0, 1], j[0, 2], j[1, 1], j[1, 2], j[2, 2]]
    data = minimal_dict()
    data["spacecraft"][1] = {"theta": theta}
    cfg = ScenarioConfig.from_dict(data)
    assert np.allclose(cfg.craft[1][0].matrix, j, atol=1e-15)


def test_explicit_and_random_initial_states():
    data = minimal_dict(seed=42)
    data["spacecraft"][0]["initial"] = {"sigma": [0.1, 0.2, 0.3],
                                        "omega": [0.0, -0.1, 0.0]}
    cfg = ScenarioConfig.from_dict(data)
    sc = cfg.to_scenario()
    assert np.array_equal(sc.spacecraft[0].initial_state.sigma, [0.1, 0.2, 0.3])
    # the other craft's draw is seed-stable whether or not craft 0 is explicit
    all_random = ScenarioConfig.from_dict(minimal_dict(seed=42)).to_scenario()
    assert np.array_equal(sc.spacecraft[1].initial_state.sigma,
                          all_random.spacecraft[1].initial_state.sigma)
    assert np.array_equal(sc.spacecraft[1].initial_state.omega,
                          all_random.spacecraft[1].initial_state.omega)
    # and different seeds change the random craft
    other = ScenarioConfig.from_dict(minimal_dict(seed=43)).to_scenario()
    assert not np.array_equal(sc.spacecraft[1].initial_state.sigma,
                              other.spacecraft[1].initial_state.sigma)


def test_random_bounds_respected():
    data = minimal_dict(seed=3, random_bounds={"sigma": 0.2, "omega": 0.05})
    sc = ScenarioConfig.from_dict(data).to_scenario()
    for craft in sc.spacecraft:
        assert np.linalg.norm(craft.initial_state.sigma) <= 0.2
        assert np.linalg.norm(craft.initial_state.omega) <= 0.05


def test_generator_tuning_keys():
    data = minimal_dict(mode="tracking", accel_source="held")
    data["topology"] = {"adjacency": [[0, 0], [0, 0]], "leader_weights": [1, 1]}
    assert ScenarioConfig.from_dict(data).to_scenario().accel_source == "held"
    cfg = ScenarioConfig.from_dict(minimal_dict(smoothing_rate=2.5, rate_leak=0.1))
    sc = cfg.to_scenario()
    assert sc.smoothing_rate == 2.5 and sc.rate_leak == 0.1
    echoed = cfg.doc
    assert echoed["smoothing_rate"] == 2.5 and echoed["rate_leak"] == 0.1


def test_with_overrides():
    cfg = preset("paper-leaderless").with_overrides(dt=0.01, duration=10.0, seed=7)
    assert cfg.doc["seed"] == 7
    sc = cfg.to_scenario()
    assert sc.dt == 0.01 and sc.duration == 10.0
    # overrides are top-level keys, parsed like a file's
    cfg = cfg.with_overrides(random_bounds={"sigma": 0.2})
    assert cfg.doc["random_bounds"] == {"sigma": 0.2, "omega": DEFAULT_BOUND}
    with pytest.raises(ConfigError, match="^decimate: "):
        cfg.with_overrides(decimate=0)
    with pytest.raises(ConfigError, match="unknown field"):
        cfg.with_overrides(sigma_bound=0.2)


def test_to_scenario_realizes_one_description_at_any_seed():
    cfg = ScenarioConfig.from_dict(minimal_dict(seed=42))
    assert scenarios_equal(cfg.to_scenario(), cfg.to_scenario(42))
    for seed in (0, 7):
        # the same scenario as the description re-parsed at that seed, its
        # parsed parts shared rather than rebuilt
        sc = cfg.to_scenario(seed)
        assert scenarios_equal(sc, cfg.with_overrides(seed=seed).to_scenario())
        assert sc.topology is cfg.topology
        assert sc.spacecraft[0].inertia is cfg.craft[0][0]
    # a seed given here is checked as the description's own seed is
    for seed in (-1, 1.0, True):
        with pytest.raises(ConfigError) as exc:
            cfg.to_scenario(seed)
        assert str(exc.value) == "seed: expected an integer of at least 0"


def test_doc_is_the_description_as_written():
    data = minimal_dict(gains={"K": 3.0}, random_bounds={"omega": 0.1})
    echoed = ScenarioConfig.from_dict(data).doc
    assert echoed["gains"] == {"K": 3.0}
    assert echoed["random_bounds"] == {"sigma": DEFAULT_BOUND, "omega": 0.1}
    assert echoed["dt"] == DEFAULTS["dt"] and echoed["seed"] == 0
    assert echoed["spacecraft"] == data["spacecraft"]


# ------------------------------------------------------------ error paths


def error_message(data):
    with pytest.raises(ConfigError) as exc:
        ScenarioConfig.from_dict(data)
    return str(exc.value)


def test_missing_required_fields():
    assert "mode" in error_message({"topology": {}, "spacecraft": []})
    data = minimal_dict()
    del data["topology"]
    assert "topology" in error_message(data)
    data = minimal_dict()
    del data["spacecraft"]
    assert "spacecraft" in error_message(data)
    assert error_message(minimal_dict(topology=[[0, 1], [1, 0]])) == \
        "topology: expected a mapping"
    assert error_message(minimal_dict(topology={"leader_weights": [1, 0]})) == \
        "topology.adjacency: missing required field"
    assert error_message(minimal_dict(spacecraft=[])) == \
        "spacecraft: expected a non-empty list"


def test_first_of_several_errors_is_reported():
    # parsing checks in a fixed order, so the same field is named every time
    data = minimal_dict(mode="tracking", dt="fast", seed=-1, rate_leak=True,
                        gains={"K": "stiff"}, shadow_switch="yes")
    data["reference"] = {"kind": "constant", "value": [0, 0, 0], "amplitude": 1}
    data["spacecraft"][1]["theta_hat0"] = [1, 2]
    assert error_message(data) == "spacecraft[1].theta_hat0: expected a list of 6 numbers"
    del data["spacecraft"][1]["theta_hat0"]
    assert error_message(data) == "shadow_switch: expected true or false"
    data["shadow_switch"] = False
    assert error_message(data) == "reference: unknown field(s) amplitude"
    del data["reference"]["amplitude"]
    assert error_message(data) == "gains.K: expected 3 rows"
    del data["gains"]
    assert error_message(data) == "dt: expected a number"
    data["dt"] = 0.01
    assert error_message(data) == "seed: expected an integer of at least 0"
    data["seed"] = 1
    assert error_message(data) == "rate_leak: expected a number"


def test_unknown_top_level_key():
    assert "integrator" in error_message(minimal_dict(integrator="rk4"))


def test_bad_mode_and_accel_source():
    assert "mode" in error_message(minimal_dict(mode="formation"))
    assert "accel_source" in error_message(minimal_dict(accel_source="spline"))


def test_field_path_in_craft_errors():
    data = minimal_dict(n=2)
    data["spacecraft"][1] = {"inertia": [[1, 0], [0, 1]]}
    assert "spacecraft[1].inertia" in error_message(data)
    data = minimal_dict(n=2)
    data["spacecraft"][1] = {"inertia": FLEET_J[0], "theta": [1, 1, 1, 0, 0, 0]}
    assert "spacecraft[1]" in error_message(data)
    data = minimal_dict(n=2)
    data["spacecraft"][1] = {}
    assert "spacecraft[1]" in error_message(data)
    data = minimal_dict(n=2)
    data["spacecraft"][1] = {"inertia": [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    assert "spacecraft[1]" in error_message(data)
    assert "positive definite" in error_message(data)


def test_adjacency_and_leader_shape_errors():
    data = minimal_dict()
    data["topology"]["adjacency"] = [[0.0, 1.0]]
    assert "topology.adjacency" in error_message(data)
    data = minimal_dict(mode="tracking")
    data["topology"]["leader_weights"] = [1.0]
    assert "topology.leader_weights" in error_message(data)
    # a bad entry deep in a 200-craft ring is named by its row and column
    n = 200
    ring = [[float((j - i) % n == 1) for j in range(n)] for i in range(n)]
    for bad, i, j, what in (("0.5", 150, 73, "expected a number"),
                            (float("inf"), 199, 3, "must be finite"),
                            (True, 87, 198, "expected a number")):
        data = minimal_dict(spacecraft=[{"inertia": FLEET_J[0]}] * n)
        data["topology"]["adjacency"] = [row[:] for row in ring]
        data["topology"]["adjacency"][i][j] = bad
        assert error_message(data) == "topology.adjacency[%d][%d]: %s" % (i, j, what)


def test_reference_errors():
    data = minimal_dict(mode="tracking")
    data["reference"] = {"kind": "spline"}
    assert "reference.kind" in error_message(data)
    data = minimal_dict(mode="tracking")
    data["reference"] = {"kind": "sinusoid", "amplitude": 0.1}
    assert "reference.frequency" in error_message(data)
    # a field the kind does not read is refused, not carried along unchecked
    data["reference"] = {"kind": "constant", "value": [0, 0, 0], "amplitude": "big"}
    assert "reference: unknown field(s) amplitude" in error_message(data)
    data["reference"] = {"kind": "constant", "value": 0.1}  # scalars: sinusoid only
    assert "reference.value" in error_message(data)


def test_reference_fields_left_out_take_the_trajectory_defaults():
    data = minimal_dict(mode="tracking")
    data["reference"] = {"kind": "constant"}
    assert np.array_equal(ScenarioConfig.from_dict(data).reference.value, np.zeros(3))
    data["reference"] = {"kind": "sinusoid", "amplitude": 0.1, "frequency": [1, 2, 3]}
    ref = ScenarioConfig.from_dict(data).reference
    assert np.array_equal(ref.amplitude, np.full(3, 0.1))
    assert np.array_equal(ref.phase, np.zeros(3)) and np.array_equal(ref.offset, np.zeros(3))


def test_scalar_field_errors():
    assert "dt" in error_message(minimal_dict(dt="fast"))
    assert "seed" in error_message(minimal_dict(seed="lucky"))
    assert "seed" in error_message(minimal_dict(seed=None))  # a run must be reproducible
    assert "decimate" in error_message(minimal_dict(decimate=0))
    assert "shadow_switch" in error_message(minimal_dict(shadow_switch="yes"))
    assert "gains.K" in error_message(minimal_dict(gains={"K": "stiff"}))
    # a finite bound whose range [-b, b] overflows is refused when parsed, not when drawn
    assert (error_message(minimal_dict(random_bounds={"sigma": 1.0e308}))
            == "random_bounds.sigma: the range 2 * bound is not finite")
    # 2 * 8.9e307 is below the largest double, 1.797e308
    ScenarioConfig.from_dict(minimal_dict(random_bounds={"omega": 8.9e307}))


def test_huge_integers_are_refused_as_not_finite():
    # an integer past the float range is refused as 1e400 is, naming its entry
    huge = 10 ** 400
    assert error_message(minimal_dict(dt=huge)) == "dt: must be finite"
    data = minimal_dict(gains={"Gamma": [1.0, 1.0, huge, 1.0, 1.0, 1.0]})
    assert error_message(data) == "gains.Gamma[2]: must be finite"
    data = minimal_dict()
    data["topology"]["adjacency"][1][0] = huge
    assert error_message(data) == "topology.adjacency[1][0]: must be finite"
    data = minimal_dict()
    data["spacecraft"][1] = {"inertia": [list(r) for r in FLEET_J[1]]}
    data["spacecraft"][1]["inertia"][2][2] = huge
    assert error_message(data) == "spacecraft[1].inertia[2][2]: must be finite"
    with pytest.raises(ConfigError, match="^dt: must be finite$"):
        ScenarioConfig.from_yaml(yaml.safe_dump(minimal_dict()) + "dt: %d\n" % huge)
    # one inside the float range reads as its float, in a matrix as in a scalar
    data = minimal_dict(dt=10 ** 300)
    data["topology"]["adjacency"][0][1] = 10 ** 300
    cfg = ScenarioConfig.from_dict(data)
    assert cfg.topology.adjacency[0, 1] == 1e300 and cfg.doc["dt"] == 10 ** 300


def test_yaml_parse_error():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_yaml("mode: [unclosed")


def test_unconstructible_scalar_names_its_line_and_column():
    # PyYAML raises a ValueError without a place; the loader marks it with the
    # failing node's start, the innermost node, and keeps its type and message
    text = "mode: leaderless\nspacecraft:\n  - inertia: [1, 2, !!int foo]\n"
    with pytest.raises(ValueError) as raised:
        yaml.load(text, Loader=config._LOADER)
    assert str(raised.value) == "invalid literal for int() with base 10: 'foo'"
    assert (raised.value.start_mark.line, raised.value.start_mark.column) == (2, 20)
    with pytest.raises(ConfigError) as raised:
        ScenarioConfig.from_yaml(text)
    assert str(raised.value) == ("invalid YAML: ValueError: invalid literal for int() with "
                                 "base 10: 'foo', line 3, column 21")


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("text", [yaml.safe_dump(minimal_dict()), "mode: [unclosed",
                                  "mode: !!int foo\n"], ids=["valid", "refused", "bad-scalar"])
def test_yaml_load_pauses_the_cyclic_collector(monkeypatch, enabled, text):
    # the collector is off while PyYAML loads, and left as the caller had it
    # after, whether the load succeeds or is refused
    during = []

    class Watched(config._LOADER):
        def get_single_data(self):
            during.append(gc.isenabled())
            return super().get_single_data()

    monkeypatch.setattr(config, "_LOADER", Watched)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            ScenarioConfig.from_yaml(text)
        except ConfigError:
            assert text != yaml.safe_dump(minimal_dict())
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False] and after is enabled


# PyYAML's safe loaders: the pure-Python one, and libyaml's when PyYAML has it
BASE_LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])

# scalars of every implicit and explicit kind the safe loader resolves
SCALARS = st.sampled_from([
    "0", "017", "0o17", "0x1F", "0b101", "1_000", "1:30", "-0", "+1", "1e3",
    "1.5e3", ".inf", ".nan", "~", "null", "yes", "no", "on", "off", "True",
    "2001-12-14", "2001-12-14t21:59:43.10-05:00", "'1'", '"0"', "!!str 1",
    "!!float 1", "!!binary aGVsbG8="])
# scalars whose construction fails: ValueError, KeyError, AttributeError and
# PyYAML's ConstructorError
FAILING = st.sampled_from(["!!int foo", "!!bool maybe", "2001-13-45",
                           "!!timestamp foo", "!!binary \u00e9"])

FLOW_NODES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4).map(lambda items: "[%s]" % ", ".join(items)),
    st.lists(st.tuples(SCALARS, inner), max_size=4).map(
        lambda pairs: "{%s}" % ", ".join("%s: %s" % p for p in pairs))),
    max_leaves=10)


@st.composite
def yaml_documents(draw):
    """A block mapping of flow and block nodes that repeat scalars, with
    anchors, aliases to them and `<<` merge keys; now and then one scalar
    fails to construct."""
    lines, anchors, mappings = [], [], []
    for i in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["flow", "mapping", "sequence", "alias", "merge"]))
        anchor = "a%d" % i if draw(st.booleans()) else None
        head = "k%d: %s" % (i, "&%s " % anchor if anchor else "")
        if kind == "alias" and anchors:
            lines.append("k%d: *%s" % (i, draw(st.sampled_from(anchors))))
            continue
        if kind == "sequence":
            lines.append(head)
            lines += ["  - " + draw(FLOW_NODES) for _ in range(draw(st.integers(1, 3)))]
        elif kind in ("mapping", "merge"):
            # a block or flow mapping, merging one earlier mapping or a list of them
            pairs = [(draw(SCALARS), draw(FLOW_NODES)) for _ in range(draw(st.integers(0, 3)))]
            if mappings and kind == "merge":
                sources = ["*" + a for a in draw(st.lists(
                    st.sampled_from(mappings), min_size=1, max_size=2))]
                pairs.insert(draw(st.integers(0, len(pairs))), (
                    "<<", sources[0] if len(sources) == 1 else "[%s]" % ", ".join(sources)))
            if draw(st.booleans()):
                lines.append(head + "{%s}" % ", ".join("%s: %s" % p for p in pairs))
            else:
                lines.append(head)
                lines += ["  %s: %s" % p for p in pairs] or ["  {}"]
            mappings += [anchor] if anchor else []
        else:
            lines.append(head + draw(FLOW_NODES))
        anchors += [anchor] if anchor else []
    if draw(st.integers(0, 7)) == 0:
        lines.insert(len(lines) * draw(st.booleans()), "bad: [0, %s]" % draw(FAILING))
    return "\n".join(lines) + "\n"


def load_or_error(text, loader):
    try:
        return repr(yaml.load(text, Loader=loader))
    except Exception as exc:  # the failure itself is what is compared
        return type(exc), str(exc)


@pytest.mark.parametrize("base", BASE_LOADERS, ids=lambda b: b.__name__)
@settings(deadline=None, max_examples=300)
@given(text=yaml_documents())
def test_memoizing_loader_returns_what_its_base_returns(base, text):
    # repr tells 1 from 1.0 and True, and a date from its string; a document
    # that fails must fail with the same exception and message
    loader = (config._LOADER if issubclass(config._LOADER, base)
              else type("Memo", (config._ScalarMemo, base), {}))
    assert load_or_error(text, loader) == load_or_error(text, base)


@pytest.mark.parametrize("base", BASE_LOADERS, ids=lambda b: b.__name__)
def test_ring200_benchmark_input_parses_as_with_the_base_loader(base):
    # the benchmark's 200-craft ring: 40,000 adjacency entries of two values
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    text = workloads.ring_yaml(seed=1, craft=200, duration=1.0)
    cfg = ScenarioConfig.from_yaml(text)
    expected = ScenarioConfig.from_dict(yaml.load(text, Loader=base))
    assert cfg.doc == expected.doc
    assert repr(cfg.doc) == repr(expected.doc)
    assert scenarios_equal(cfg.to_scenario(), expected.to_scenario())


def with_path_resolvers(base):
    """`base` with two path resolvers: a quoted or unresolved scalar at key k1
    takes !!int, and the first item of a sequence at k2 takes !!str."""
    loader = type("Path" + base.__name__, (base,), {})
    loader.add_path_resolver("tag:yaml.org,2002:int", ["k1"], str)
    loader.add_path_resolver("tag:yaml.org,2002:str", ["k2", 0], str)
    return loader


@pytest.mark.parametrize("base", BASE_LOADERS, ids=lambda b: b.__name__)
@settings(deadline=None, max_examples=300)
@given(text=yaml_documents())
def test_memoizing_loader_under_a_path_resolver_returns_what_its_base_returns(base, text):
    # a tag that depends on the node's path is resolved per node, as by the base
    base = with_path_resolvers(base)
    memo = type("Memo", (config._ScalarMemo, base), {})
    assert load_or_error(text, memo) == load_or_error(text, base)


def ring200_text():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads.ring_yaml(seed=1, craft=200, duration=1.0)


def test_loader_resolves_each_key_once_and_runs_no_hook_per_node():
    # the composer calls resolve and the two resolver hooks for every
    # node; the base resolve runs once per distinct (kind, value, implicit),
    # and the hooks run no Python code
    text = ring200_text()
    keys = set()

    class Keys(config._LOADER.__bases__[1]):
        def resolve(self, *key):
            keys.add(key)
            return super().resolve(*key)

    yaml.load(text, Loader=Keys)
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        yaml.load(text, Loader=config._LOADER)
    finally:
        sys.setprofile(None)
    resolver = yaml.resolver.BaseResolver
    assert calls[resolver.resolve.__code__] == len(keys) < 2000
    assert calls[resolver.descend_resolver.__code__] == 0
    assert calls[resolver.ascend_resolver.__code__] == 0


def test_a_loaded_loader_is_freed_without_the_cyclic_collector():
    # the memoized resolve is bound to its loader; dispose lets it go
    loaders = []

    class Watched(config._LOADER):
        def __init__(self, stream):
            super().__init__(stream)
            loaders.append(weakref.ref(self))

    was = gc.isenabled()
    gc.disable()
    try:
        yaml.load("a: [1, 2.5, b]\n", Loader=Watched)
        assert loaders[0]() is None
    finally:
        if was:
            gc.enable()


def test_config_validity_checked_at_scenario_build():
    # a parseable config can still describe an invalid topology; the
    # build step raises with the validity-condition explanation
    data = minimal_dict()
    data["topology"]["adjacency"] = [[0.0, 0.0], [1.0, 0.0]]
    cfg = ScenarioConfig.from_dict(data)
    with pytest.raises(ConfigError):
        cfg.to_scenario()
