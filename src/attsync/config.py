"""Declarative scenario descriptions: YAML parsing and presets.

A description is a mapping: a YAML file, a preset, or either with CLI
overrides laid over its top-level keys.  `ScenarioConfig.from_dict` is the
one parser for all of them.  The config keeps the mapping as given (`doc`,
optional top-level keys filled from `DEFAULTS`) as its only serialized
form, the description as written (`yaml.safe_dump` writes it); beside it
the config holds only what parsing builds (`topology`, `reference`, `craft`),
and scalars such as `seed` are read off `doc`; `to_scenario(seed)` realizes
it at any seed, so a seed sweep parses it once.  Inertia may be given as a
full symmetric 3x3 or a packed 6-vector, gains accept a scalar shorthand
(``K: 3.0`` means 3 * identity), an initial state is either explicit or the
string ``random`` (drawn from the configured bounds with the seed), and a
reference takes the fields `ReferenceTrajectory.KINDS` lists for its
kind.  Optional ``accel_source``, ``smoothing_rate``, and ``rate_leak`` keys
select and tune the desired-acceleration source (see the simulator module);
``accel_source: held`` builds only when every craft hears the leader alone.
Every parse error carries the offending field path, e.g.
``spacecraft[2].inertia``.  A file loads to what PyYAML's safe loader
returns, with the cyclic collector paused: each distinct scalar is constructed
once per load, resolution is memoized in C and, without path resolvers, the
per-node resolver hooks are skipped (`_ScalarMemo`); a scalar that cannot be
constructed is refused naming its line and column.

Two presets ship with the package: ``paper-leaderless`` and
``paper-tracking``, the six-spacecraft fleet used throughout the test
suite (fixed inertia set, printed communication graph, unit Lambda gains,
K = 3 I, Gamma = 3 I, zero initial inertia estimates).
"""

from __future__ import annotations

import datetime
import functools
import gc
import itertools
import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import yaml

from .attmath import inertia_from_theta
from .control import GainSet, ReferenceTrajectory
from .errors import ConfigError
from .rigid_body import InertiaParams, SpacecraftState
from .simulator import (ACCEL_SOURCES, MODES, Scenario, Spacecraft,
                        random_initial_states)
from .topology import CommTopology

# what PyYAML raises for a scalar it cannot construct, `!!int x`, besides YAMLError
_SCALAR_ERRORS = (ValueError, LookupError, TypeError, AttributeError)
_TAG, _VALUE = operator.attrgetter("tag"), operator.attrgetter("value")


class _ScalarMemo:
    """Constructs each distinct scalar once per load (`_LOADER`).  Without path
    resolvers, a C-level cache runs the base's `resolve` once per distinct
    (kind, value, implicit), and the per-node resolver hooks are C no-ops."""

    def __init__(self, stream):
        super().__init__(stream)
        self._scalars = {}  # per load, never on the class
        if not self.yaml_path_resolvers:  # else a tag depends on the node's path
            self.resolve = functools.lru_cache(maxsize=None)(self.resolve)
            self.descend_resolver = self.ascend_resolver = "".format  # takes any args

    def dispose(self):
        self.__dict__.pop("resolve", None)  # the cache holds a method bound to self
        super().dispose()

    def construct_object(self, node, deep=False):
        key = node.__class__ is yaml.ScalarNode and (node.tag, node.value)
        if key in self._scalars:
            return self._scalars[key]
        try:
            data = super().construct_object(node, deep)
        except _SCALAR_ERRORS as exc:  # type and message kept; the innermost node's mark
            if not hasattr(exc, "start_mark"):
                exc.start_mark = node.start_mark
            raise
        if key and isinstance(data, (int, float, str, bytes, type(None), datetime.date)):  # immutable
            self._scalars[key] = data
        return data

    def construct_sequence(self, node, deep=False):
        items = node.value
        if node.__class__ is yaml.SequenceNode and set(map(type, items)) <= {yaml.ScalarNode}:
            try:  # scalars all constructed before: read off the memo, in C
                return list(map(self._scalars.__getitem__,
                                zip(map(_TAG, items), map(_VALUE, items))))
            except KeyError:
                pass
        return super().construct_sequence(node, deep)


# PyYAML's safe loader (libyaml's if built in), with equal results and the same errors
_LOADER = type("_LOADER", (_ScalarMemo, getattr(yaml, "CSafeLoader", yaml.SafeLoader)), {})

DEFAULT_BOUND = 0.5  # radius of the random initial sigma and omega draws

# every optional top-level key and the value it takes when absent
DEFAULTS = {
    "dt": Scenario.dt,
    "duration": Scenario.duration,
    "seed": 0,
    "shadow_switch": Scenario.shadow_switch,
    "decimate": 10,
    "random_bounds": {"sigma": DEFAULT_BOUND, "omega": DEFAULT_BOUND},
    "gains": {},
    "accel_source": Scenario.accel_source,
    "smoothing_rate": Scenario.smoothing_rate,
    "rate_leak": Scenario.rate_leak,
}

_TOP_KEYS = {"mode", "topology", "spacecraft", "reference", *DEFAULTS}


def _fail(path, message):
    raise ConfigError("%s: %s" % (path, message) if path else message)


@contextmanager
def _at(path):
    """Re-raise a ValueError from a constructor as a ConfigError at `path`."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        _fail(path, str(exc))


def _mapping(value, path, allowed=None):
    if not isinstance(value, dict):
        _fail(path, "expected a mapping")
    if allowed is not None:
        unknown = set(value) - set(allowed)
        if unknown:
            _fail(path, "unknown field(s) %s" % ", ".join(sorted(map(str, unknown))))
    return value


def _number(value, path, least=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, "expected a number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        _fail(path, "must be finite")
    if least is not None and value < least:
        _fail(path, "must be at least %g" % least)
    return value


def _integer(value, path, least):
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        _fail(path, "expected an integer of at least %d" % least)
    return value


def _floats(value, entries):
    """`value` as one float array if its `entries` are all ints and floats that
    convert to finite values, else None (and the caller names the bad entry)."""
    if set(map(type, entries)) <= {int, float}:
        try:
            out = np.array(value, dtype=float)
        except OverflowError:  # an integer beyond the float range
            return None
        if np.isfinite(out).all():
            return out
    return None


def _vector(value, length, path):
    if not isinstance(value, (list, tuple)) or len(value) != length:
        _fail(path, "expected a list of %d numbers" % length)
    out = _floats(value, value)
    if out is None:
        out = np.array([_number(v, "%s[%d]" % (path, i)) for i, v in enumerate(value)])
    return out


def _matrix(value, rows, cols, path):
    if not isinstance(value, (list, tuple)) or len(value) != rows:
        _fail(path, "expected %d rows" % rows)
    out = None
    if set(map(type, value)) <= {list, tuple} and set(map(len, value)) == {cols}:
        out = _floats(value, itertools.chain.from_iterable(value))
    if out is None:
        out = np.stack([_vector(r, cols, "%s[%d]" % (path, i)) for i, r in enumerate(value)])
    return out


def _gain_matrix(value, size, path, diagonal_shorthand=False):
    """Scalar c -> c*I; length-`size` list -> diagonal; full matrix passes."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _number(value, path) * np.eye(size)
    if diagonal_shorthand and isinstance(value, (list, tuple)) \
            and len(value) == size and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        return np.diag(_vector(value, size, path))
    return _matrix(value, size, size, path)


def _gain_set(entry, path):
    entry = _mapping(entry, path, allowed={"Lambda", "K", "Gamma"})
    with _at(path):
        return GainSet(
            Lambda=_gain_matrix(entry.get("Lambda", 1.0), 3, path + ".Lambda"),
            K=_gain_matrix(entry.get("K", 1.0), 3, path + ".K"),
            Gamma=_gain_matrix(entry.get("Gamma", 1.0), 6, path + ".Gamma",
                               diagonal_shorthand=True),
        )


def _parse_gains(value, n, path):
    if not isinstance(value, list):  # one mapping for all: parsed once, shared
        return (_gain_set(value, path),) * n
    if len(value) != n:
        _fail(path, "expected %d per-spacecraft entries, got %d" % (n, len(value)))
    return tuple(_gain_set(entry, "%s[%d]" % (path, i)) for i, entry in enumerate(value))


def _parse_reference(value, path):
    kinds = ReferenceTrajectory.KINDS
    kind = _mapping(value, path).get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        _fail(path + ".kind", "must be %s" % " or ".join(map(repr, kinds)))
    # fields the kind does not read are refused, so `doc` holds only checked values
    _mapping(value, path, allowed={"kind", *kinds[kind]})
    for name, default in kinds[kind].items():
        if default is None and value.get(name) is None:
            _fail(path + "." + name, "missing required field")

    def vec(name):
        raw = value[name]
        if kind == "sinusoid" and isinstance(raw, (int, float)) \
                and not isinstance(raw, bool):
            return _number(raw, path + "." + name)
        return _vector(raw, 3, path + "." + name)
    # fields left out take ReferenceTrajectory's own defaults
    with _at(path):
        return ReferenceTrajectory(kind, **{k: vec(k) for k in value if k != "kind"})


def _parse_craft(entry, path):
    entry = _mapping(entry, path, allowed={"inertia", "theta", "initial", "theta_hat0"})
    has_inertia = "inertia" in entry
    has_theta = "theta" in entry
    if has_inertia == has_theta:
        _fail(path, "give exactly one of 'inertia' (3x3) or 'theta' (6-vector)")
    with _at(path):
        if has_inertia:
            inertia = InertiaParams(_matrix(entry["inertia"], 3, 3, path + ".inertia"))
        else:
            inertia = InertiaParams(inertia_from_theta(
                _vector(entry["theta"], 6, path + ".theta")))
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
    """Parsed, validated scenario description; `to_scenario` builds the real thing.

    Built only by `from_dict`: `doc` plus what parsing builds from it.
    """

    doc: dict
    topology: CommTopology
    reference: ReferenceTrajectory | None
    craft: tuple  # per craft: inertia, initial state (None: seeded draw), gains, theta_hat0

    @property
    def n(self) -> int:
        return len(self.craft)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_dict(cls, data) -> "ScenarioConfig":
        doc = dict(_mapping(data, "", allowed=_TOP_KEYS))
        for key in ("mode", "topology", "spacecraft"):
            if key not in doc:
                _fail(key, "missing required field")
        for key, value in DEFAULTS.items():
            doc.setdefault(key, value)
        doc["random_bounds"] = {**DEFAULTS["random_bounds"], **_mapping(
            doc["random_bounds"], "random_bounds", allowed={"sigma", "omega"})}
        if doc["mode"] not in MODES:
            _fail("mode", "must be one of %s" % ", ".join(MODES))
        topo = _mapping(doc["topology"], "topology",
                        allowed={"adjacency", "leader_weights"})
        if "adjacency" not in topo:
            _fail("topology.adjacency", "missing required field")
        craft_entries = doc["spacecraft"]
        if not isinstance(craft_entries, list) or not craft_entries:
            _fail("spacecraft", "expected a non-empty list")
        n = len(craft_entries)
        adjacency = _matrix(topo["adjacency"], n, n, "topology.adjacency")
        leader = None
        if topo.get("leader_weights") is not None:
            leader = _vector(topo["leader_weights"], n, "topology.leader_weights")
        with _at("topology"):
            topology = CommTopology(adjacency, leader)
        parsed = [_parse_craft(c, "spacecraft[%d]" % i)
                  for i, c in enumerate(craft_entries)]
        if not isinstance(doc["shadow_switch"], bool):
            _fail("shadow_switch", "expected true or false")
        if doc["accel_source"] not in ACCEL_SOURCES:
            _fail("accel_source", "must be one of %s" % ", ".join(ACCEL_SOURCES))
        reference = None
        if doc.get("reference") is not None:
            reference = _parse_reference(doc["reference"], "reference")
        gains = _parse_gains(doc["gains"], n, "gains")
        # the scalars stay in `doc`, where `to_scenario` reads them
        _number(doc["dt"], "dt")
        _number(doc["duration"], "duration")
        _integer(doc["seed"], "seed", 0)
        _integer(doc["decimate"], "decimate", 1)
        for axis in ("sigma", "omega"):
            bound = _number(doc["random_bounds"][axis], "random_bounds." + axis, least=0.0)
            if not math.isfinite(bound - -bound):  # the draws span [-bound, bound]
                _fail("random_bounds." + axis, "the range 2 * bound is not finite")
        _number(doc["smoothing_rate"], "smoothing_rate")
        _number(doc["rate_leak"], "rate_leak")
        return cls(doc, topology, reference,
                   tuple((j, s, g, th) for (j, s, th), g in zip(parsed, gains)))

    @classmethod
    def from_yaml(cls, text: str) -> "ScenarioConfig":
        """Parse `text`; the cyclic collector is paused process-wide while PyYAML
        loads it, then re-enabled if it was enabled when the load began."""
        enabled = gc.isenabled()
        gc.disable()  # else a large file's nodes trigger collections; cycles wait for the next
        try:
            data = yaml.load(text, Loader=_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError("invalid YAML: %s" % exc) from None
        except _SCALAR_ERRORS as exc:
            mark = getattr(exc, "start_mark", None)  # set by `_ScalarMemo`
            where = mark and ", line %d, column %d" % (mark.line + 1, mark.column + 1)
            raise ConfigError("invalid YAML: %s: %s%s" % (type(exc).__name__, exc,
                                                          where or "")) from None
        finally:
            if enabled:
                gc.enable()
        return cls.from_dict(data)

    @classmethod
    def from_yaml_file(cls, path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ConfigError("%s is not UTF-8 text: %s" % (path, exc)) from None
        return cls.from_yaml(text)

    # -- realization -----------------------------------------------------

    def with_overrides(self, **keys) -> "ScenarioConfig":
        """The description with some top-level keys replaced, parsed again."""
        return self.from_dict({**self.doc, **keys})

    def to_scenario(self, seed=None) -> Scenario:
        """Build the validated Scenario, drawing any random initial states.

        Random draws use `seed` (default: the description's own) and are
        made for every craft in order (explicit entries discard theirs), so
        a given seed yields the same states no matter which subset is
        explicit.  Every seed's Scenario shares the parsed topology,
        reference, inertias and gains.
        """
        doc, bounds = self.doc, self.doc["random_bounds"]
        seed = doc["seed"] if seed is None else _integer(seed, "seed", 0)
        draws = random_initial_states(seed, self.n,
                                      float(bounds["sigma"]), float(bounds["omega"]))
        craft = tuple(Spacecraft(j, s if s is not None else d, g, th)
                      for (j, s, g, th), d in zip(self.craft, draws))
        return Scenario(
            spacecraft=craft, topology=self.topology, mode=doc["mode"],
            reference=self.reference, shadow_switch=doc["shadow_switch"],
            accel_source=doc["accel_source"],
            **{k: float(doc[k]) for k in ("dt", "duration", "smoothing_rate", "rate_leak")})


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
        "topology": {"adjacency": [list(r) for r in FLEET_ADJACENCY]},
        "gains": {"Lambda": 1.0, "K": 3.0, "Gamma": 3.0},
        "spacecraft": [{"inertia": [list(r) for r in j], "initial": "random"}
                       for j in FLEET_INERTIAS],
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


_PRESETS = {"paper-leaderless": "leaderless", "paper-tracking": "tracking"}


def preset_names():
    return sorted(_PRESETS)


def preset(name: str) -> ScenarioConfig:
    """Built-in scenario by name; see `preset_names` for the catalog."""
    if name not in _PRESETS:
        raise ConfigError("unknown preset %r; available: %s"
                          % (name, ", ".join(preset_names())))
    return ScenarioConfig.from_dict(_fleet_dict(_PRESETS[name]))
