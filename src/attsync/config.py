"""Declarative scenario descriptions: YAML parsing, presets, serialization.

A config file mirrors a `Scenario` field by field but stays human-editable:
inertia may be given as a full symmetric 3x3 or a packed 6-vector, gains
accept a scalar shorthand (``K: 3.0`` means 3 * identity), an initial state
is either explicit or the string ``random`` (drawn from the configured
bounds with the scenario seed).  Optional ``accel_source``,
``smoothing_rate``, and ``rate_leak`` keys select and tune the
desired-acceleration source (see the simulator module).  Every parse error carries the offending field
path, e.g. ``spacecraft[2].inertia``.

Two presets ship with the package: ``paper-leaderless`` and
``paper-tracking``, the six-spacecraft fleet used throughout the test
suite (fixed inertia set, printed communication graph, unit Lambda gains,
K = 3 I, Gamma = 3 I, zero initial inertia estimates).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from .control import GainSet, ReferenceTrajectory
from .errors import ConfigError
from .rigid_body import InertiaParams, SpacecraftState
from .simulator import Scenario, Spacecraft, random_initial_states
from .topology import CommTopology

DEFAULT_DT = 0.005
DEFAULT_DURATION = 40.0
DEFAULT_BOUND = 0.5
DEFAULT_DECIMATE = 10

_TOP_KEYS = {"mode", "dt", "duration", "seed", "shadow_switch", "decimate",
             "random_bounds", "topology", "gains", "reference", "spacecraft",
             "accel_source", "smoothing_rate", "rate_leak"}


def _fail(path, message):
    raise ConfigError("%s: %s" % (path, message) if path else message)


def _mapping(value, path, allowed=None):
    if not isinstance(value, dict):
        _fail(path, "expected a mapping")
    if allowed is not None:
        unknown = set(value) - set(allowed)
        if unknown:
            _fail(path, "unknown field(s) %s" % ", ".join(sorted(map(str, unknown))))
    return value


def _number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, "expected a number")
    if not np.isfinite(value):
        _fail(path, "must be finite")
    return float(value)


def _vector(value, length, path):
    if not isinstance(value, (list, tuple)) or len(value) != length:
        _fail(path, "expected a list of %d numbers" % length)
    return np.array([_number(v, "%s[%d]" % (path, i)) for i, v in enumerate(value)])


def _matrix(value, rows, cols, path):
    if not isinstance(value, (list, tuple)) or len(value) != rows:
        _fail(path, "expected %d rows" % rows)
    return np.stack([_vector(r, cols, "%s[%d]" % (path, i))
                     for i, r in enumerate(value)])


def _gain_matrix(value, size, path, diagonal_shorthand=False):
    """Scalar c -> c*I; length-`size` list -> diagonal; full matrix passes."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _number(value, path) * np.eye(size)
    if diagonal_shorthand and isinstance(value, (list, tuple)) \
            and len(value) == size and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        return np.diag(_vector(value, size, path))
    return _matrix(value, size, size, path)


def _parse_gains(value, n, path):
    entries = value if isinstance(value, list) else [value] * n
    if len(entries) != n:
        _fail(path, "expected %d per-spacecraft entries, got %d" % (n, len(entries)))
    out = []
    for i, entry in enumerate(entries):
        sub = path if not isinstance(value, list) else "%s[%d]" % (path, i)
        entry = _mapping(entry, sub, allowed={"Lambda", "K", "Gamma"})
        try:
            out.append(GainSet(
                Lambda=_gain_matrix(entry.get("Lambda", 1.0), 3, sub + ".Lambda"),
                K=_gain_matrix(entry.get("K", 1.0), 3, sub + ".K"),
                Gamma=_gain_matrix(entry.get("Gamma", 1.0), 6, sub + ".Gamma",
                                   diagonal_shorthand=True),
            ))
        except ConfigError:
            raise
        except ValueError as exc:
            _fail(sub, str(exc))
    return tuple(out)


def _parse_reference(value, path):
    value = _mapping(value, path, allowed={"kind", "value", "amplitude",
                                           "frequency", "phase", "offset"})
    kind = value.get("kind")
    try:
        if kind == "constant":
            return ReferenceTrajectory.constant(
                _vector(value.get("value", [0, 0, 0]), 3, path + ".value"))
        if kind == "sinusoid":
            def vec(name, default=None):
                raw = value.get(name, default)
                if raw is None:
                    _fail(path + "." + name, "missing required field")
                if isinstance(raw, (int, float)) and not isinstance(raw, bool):
                    return _number(raw, path + "." + name)
                return _vector(raw, 3, path + "." + name)
            return ReferenceTrajectory.sinusoid(
                vec("amplitude"), vec("frequency"), vec("phase", 0.0), vec("offset", 0.0))
    except ConfigError:
        raise
    except ValueError as exc:
        _fail(path, str(exc))
    _fail(path + ".kind", "must be 'constant' or 'sinusoid'")


def _parse_craft(entry, path):
    entry = _mapping(entry, path, allowed={"inertia", "theta", "initial", "theta_hat0"})
    has_inertia = "inertia" in entry
    has_theta = "theta" in entry
    if has_inertia == has_theta:
        _fail(path, "give exactly one of 'inertia' (3x3) or 'theta' (6-vector)")
    try:
        if has_inertia:
            inertia = InertiaParams(_matrix(entry["inertia"], 3, 3, path + ".inertia"))
        else:
            inertia = InertiaParams.from_theta(_vector(entry["theta"], 6, path + ".theta"))
    except ConfigError:
        raise
    except ValueError as exc:
        _fail(path, str(exc))
    initial = entry.get("initial", "random")
    if initial == "random":
        state = None
    else:
        sub = _mapping(initial, path + ".initial", allowed={"sigma", "omega"})
        state = SpacecraftState(
            _vector(sub.get("sigma", [0, 0, 0]), 3, path + ".initial.sigma"),
            _vector(sub.get("omega", [0, 0, 0]), 3, path + ".initial.omega"))
    theta_hat0 = _vector(entry.get("theta_hat0", [0.0] * 6), 6, path + ".theta_hat0")
    return inertia, state, theta_hat0


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed, validated scenario description; `to_scenario` builds the real thing."""

    mode: str
    adjacency: np.ndarray
    inertias: tuple
    gains: tuple
    leader_weights: np.ndarray | None = None
    reference: ReferenceTrajectory | None = None
    initial_states: tuple | None = None      # per craft, None entry = random
    theta_hat0: tuple | None = None
    dt: float = DEFAULT_DT
    duration: float = DEFAULT_DURATION
    seed: int | None = 0
    shadow_switch: bool = False
    decimate: int = DEFAULT_DECIMATE
    sigma_bound: float = DEFAULT_BOUND
    omega_bound: float = DEFAULT_BOUND
    accel_source: str = "smoothed"
    smoothing_rate: float = 6.0
    rate_leak: float = 0.0

    def __post_init__(self):
        n = len(self.inertias)
        if self.initial_states is None:
            object.__setattr__(self, "initial_states", (None,) * n)
        if self.theta_hat0 is None:
            object.__setattr__(self, "theta_hat0", tuple(np.zeros(6) for _ in range(n)))
        for name in ("inertias", "gains", "initial_states", "theta_hat0"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not (len(self.gains) == len(self.initial_states)
                == len(self.theta_hat0) == n):
            raise ConfigError("per-spacecraft lists must all have length %d" % n)

    @property
    def n(self) -> int:
        return len(self.inertias)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_dict(cls, data) -> "ScenarioConfig":
        data = _mapping(data, "", allowed=_TOP_KEYS)
        for key in ("mode", "topology", "spacecraft"):
            if key not in data:
                _fail(key, "missing required field")
        mode = data["mode"]
        if mode not in ("leaderless", "tracking"):
            _fail("mode", "must be 'leaderless' or 'tracking'")
        topo = _mapping(data["topology"], "topology",
                        allowed={"adjacency", "leader_weights"})
        if "adjacency" not in topo:
            _fail("topology.adjacency", "missing required field")
        craft_entries = data["spacecraft"]
        if not isinstance(craft_entries, list) or not craft_entries:
            _fail("spacecraft", "expected a non-empty list")
        n = len(craft_entries)
        adjacency = _matrix(topo["adjacency"], n, n, "topology.adjacency")
        leader = None
        if topo.get("leader_weights") is not None:
            leader = _vector(topo["leader_weights"], n, "topology.leader_weights")
        parsed = [_parse_craft(c, "spacecraft[%d]" % i)
                  for i, c in enumerate(craft_entries)]
        bounds = _mapping(data.get("random_bounds", {}), "random_bounds",
                          allowed={"sigma", "omega"})
        seed = data.get("seed", 0)
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
            _fail("seed", "expected an integer or null")
        decimate = data.get("decimate", DEFAULT_DECIMATE)
        if isinstance(decimate, bool) or not isinstance(decimate, int) or decimate < 1:
            _fail("decimate", "expected a positive integer")
        shadow = data.get("shadow_switch", False)
        if not isinstance(shadow, bool):
            _fail("shadow_switch", "expected true or false")
        reference = None
        if data.get("reference") is not None:
            reference = _parse_reference(data["reference"], "reference")
        accel_source = data.get("accel_source", "smoothed")
        if accel_source not in ("smoothed", "held"):
            _fail("accel_source", "must be 'smoothed' or 'held'")
        return cls(
            mode=mode,
            adjacency=adjacency,
            leader_weights=leader,
            inertias=tuple(p[0] for p in parsed),
            gains=_parse_gains(data.get("gains", {}), n, "gains"),
            reference=reference,
            initial_states=tuple(p[1] for p in parsed),
            theta_hat0=tuple(p[2] for p in parsed),
            dt=_number(data.get("dt", DEFAULT_DT), "dt"),
            duration=_number(data.get("duration", DEFAULT_DURATION), "duration"),
            seed=seed,
            shadow_switch=shadow,
            decimate=decimate,
            sigma_bound=_number(bounds.get("sigma", DEFAULT_BOUND), "random_bounds.sigma"),
            omega_bound=_number(bounds.get("omega", DEFAULT_BOUND), "random_bounds.omega"),
            accel_source=accel_source,
            smoothing_rate=_number(data.get("smoothing_rate", 6.0), "smoothing_rate"),
            rate_leak=_number(data.get("rate_leak", 0.0), "rate_leak"),
        )

    @classmethod
    def from_yaml(cls, text: str) -> "ScenarioConfig":
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError("invalid YAML: %s" % exc) from None
        return cls.from_dict(data)

    @classmethod
    def from_yaml_file(cls, path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_yaml(fh.read())

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        topo = {"adjacency": self.adjacency.tolist()}
        if self.leader_weights is not None:
            topo["leader_weights"] = self.leader_weights.tolist()
        craft = []
        for inertia, state, th0 in zip(self.inertias, self.initial_states,
                                       self.theta_hat0):
            entry = {"inertia": inertia.matrix.tolist()}
            if state is None:
                entry["initial"] = "random"
            else:
                entry["initial"] = {"sigma": state.sigma.tolist(),
                                    "omega": state.omega.tolist()}
            entry["theta_hat0"] = np.asarray(th0).tolist()
            craft.append(entry)
        out = {
            "mode": self.mode,
            "dt": self.dt,
            "duration": self.duration,
            "seed": self.seed,
            "shadow_switch": self.shadow_switch,
            "decimate": self.decimate,
            "random_bounds": {"sigma": self.sigma_bound, "omega": self.omega_bound},
            "accel_source": self.accel_source,
            "smoothing_rate": self.smoothing_rate,
            "rate_leak": self.rate_leak,
            "topology": topo,
            "gains": [{"Lambda": g.Lambda.tolist(), "K": g.K.tolist(),
                       "Gamma": g.Gamma.tolist()} for g in self.gains],
            "spacecraft": craft,
        }
        if self.reference is not None:
            ref = {"kind": self.reference.kind}
            if self.reference.kind == "constant":
                ref["value"] = self.reference.value.tolist()
            else:
                ref.update(amplitude=self.reference.amplitude.tolist(),
                           frequency=self.reference.frequency.tolist(),
                           phase=self.reference.phase.tolist(),
                           offset=self.reference.offset.tolist())
            out["reference"] = ref
        return out

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=False)

    # -- realization -----------------------------------------------------

    def with_overrides(self, **kwargs) -> "ScenarioConfig":
        """Copy with some fields replaced (CLI flag overrides)."""
        return replace(self, **kwargs)

    def to_scenario(self) -> Scenario:
        """Build the validated Scenario, drawing any random initial states.

        Random draws use the scenario seed and are made for every craft in
        order (explicit entries discard theirs), so a given seed yields the
        same states no matter which subset is explicit.
        """
        draws = random_initial_states(self.seed, self.n,
                                      self.sigma_bound, self.omega_bound)
        states = [s if s is not None else draws[i]
                  for i, s in enumerate(self.initial_states)]
        craft = tuple(
            Spacecraft(inertia=self.inertias[i], initial_state=states[i],
                       gains=self.gains[i], theta_hat0=self.theta_hat0[i])
            for i in range(self.n))
        topology = CommTopology(self.adjacency, self.leader_weights)
        return Scenario(
            spacecraft=craft, topology=topology, mode=self.mode,
            reference=self.reference, dt=self.dt, duration=self.duration,
            shadow_switch=self.shadow_switch,
            accel_source=self.accel_source, smoothing_rate=self.smoothing_rate,
            rate_leak=self.rate_leak)


# -- presets -------------------------------------------------------------

# fixed six-craft inertia set used by the bundled scenarios
FLEET_INERTIAS = (
    ((1.0, 0.1, 0.1), (0.1, 0.1, 0.1), (0.1, 0.1, 0.9)),
    ((1.5, 0.2, 0.3), (0.2, 0.9, 0.4), (0.3, 0.4, 2.0)),
    ((0.8, 0.1, 0.2), (0.1, 0.7, 0.3), (0.2, 0.3, 1.1)),
    ((1.2, 0.3, 0.7), (0.3, 0.9, 0.2), (0.7, 0.2, 1.4)),
    ((0.9, 0.15, 0.3), (0.15, 1.2, 0.4), (0.3, 0.4, 1.2)),
    ((1.1, 0.35, 0.45), (0.35, 1.0, 0.5), (0.45, 0.5, 1.3)),
)

# directed graph: entry [i][j] couples craft i to craft j's broadcast state
FLEET_ADJACENCY = (
    (0, 0, 0, 1, 1, 1),
    (1, 0, 0, 0, 0, 0),
    (1, 1, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 1, 0),
)

FLEET_LEADER_WEIGHTS = (1, 0, 0, 0, 0, 0)
FLEET_REFERENCE_SIGMA = (0.1, 0.3, 0.5)


def _fleet_dict(mode):
    out = {
        "mode": mode,
        "dt": DEFAULT_DT,
        "duration": DEFAULT_DURATION,
        "seed": 0,
        "topology": {"adjacency": [list(r) for r in FLEET_ADJACENCY]},
        "gains": {"Lambda": 1.0, "K": 3.0, "Gamma": 3.0},
        "spacecraft": [{"inertia": [list(r) for r in j], "initial": "random"}
                       for j in FLEET_INERTIAS],
        "random_bounds": {"sigma": DEFAULT_BOUND, "omega": DEFAULT_BOUND},
    }
    if mode == "tracking":
        out["topology"]["leader_weights"] = list(FLEET_LEADER_WEIGHTS)
        out["reference"] = {"kind": "constant", "value": list(FLEET_REFERENCE_SIGMA)}
        # stiff reference generator: the leader anchors the fleet, so the
        # bandwidth can be high enough to close the relay chain in-horizon
        out["smoothing_rate"] = 6.0
    else:
        # gentle generator plus a rate leak: the fleet walks to consensus
        # without torque spikes and parks there instead of tumbling into
        # the sigma = infinity coordinate horizon; long rotations that do
        # occur en route are handled by the shadow switch
        out["smoothing_rate"] = 1.0
        out["rate_leak"] = 0.2
        out["shadow_switch"] = True
    return out


_PRESETS = {
    "paper-leaderless": lambda: _fleet_dict("leaderless"),
    "paper-tracking": lambda: _fleet_dict("tracking"),
}


def preset_names():
    return sorted(_PRESETS)


def preset(name: str) -> ScenarioConfig:
    """Built-in scenario by name; see `preset_names` for the catalog."""
    if name not in _PRESETS:
        raise ConfigError("unknown preset %r; available: %s"
                          % (name, ", ".join(preset_names())))
    return ScenarioConfig.from_dict(_PRESETS[name]())
