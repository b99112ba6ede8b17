"""Fixed-step closed-loop simulation of a spacecraft fleet.

Integrates attitude, body rate, and the per-craft inertia estimates with
classical RK4.  Neighbor attitudes and rates are read exactly (they follow
from exchanged states); neighbor attitude accelerations are not directly
available, and how the desired acceleration is obtained is the one free
choice in the loop.  Two sources are implemented:

``smoothed`` (default)
    Each craft runs a critically damped second-order generator driven by
    the position and rate aggregates of its neighborhood.  The generator
    state (chi, chi_dot) and its computed chi_ddot replace the aggregate
    triple in the control law, so the desired acceleration is consistent
    with the desired rate by construction and no acceleration ever has to
    be exchanged.  With this source the fleet Lyapunov function decreases
    exactly (up to integration error) and the consensus / tracking fixed
    points are unchanged.  `smoothing_rate` sets the generator natural
    frequency; a positive `rate_leak` adds damping on the generator's own
    rate so a leaderless fleet parks at its consensus attitude instead of
    keeping whatever common spin the initial conditions left.

``held``
    The law reads the leader's reference (sigma_r, its rate and its
    acceleration) directly, so `Scenario` accepts this source only when
    every craft hears the leader alone: then each aggregate is the reference
    itself and no neighbor acceleration is needed.  A craft that relays
    another craft's state would need that craft's acceleration, which no craft
    exchanges, so relays are refused and take ``smoothed``; so is
    shadow_switch, as there is no generator state to carry across a flip.

The whole fleet is advanced as stacked (N, 3) / (N, 6) arrays through the
same public control law used for a single craft, `controller_outputs`,
called once per right-hand-side evaluation with the aggregates as plain
arrays; there is no separate batched formula path.  The integrated state is
one packed (N, 18) array, [sigma | omega | theta_hat | chi | chi_dot] along
its last axis, and each derivative has the same layout, so an RK4 stage is
one array expression.  Each evaluation builds G(sigma) once: sigma_dot and
the control law both read that matrix.  The inverse inertia J^-1 is formed
once, when the Simulation is built.

The state, each derivative, the J, J^-1 and gain stacks and the aggregation
table are stored craft-contiguous: each is the transpose (`.T`) of a
C-contiguous (field, craft[, member]) array, with the shapes above.  numpy
keeps its operands' memory order through ufuncs and einsum, so every
elementwise step of an evaluation loops along the craft axis rather than
along a 3-long component axis, and a large fleet pays per craft, not per call.

Each neighborhood average is an edge sum along the topology's edge list, each
edge weighted by its share of the sum of its receiver's edges; the leader, row N
of the table of source states, has edges only when tracking.  The table is
gathered per edge; under shadow_switch each edge carries its source's image
closer to the receiving craft (`_closer_image`: the shadow of x is closer to y
iff |y - x|^2 > 1 + |y|^2, so shadows are built only when an edge flips); one
segmented sum over the receiver-grouped edges gives every average.  No edge can
flip while every source has |x|^2 <= _FLIP_FREE_SQ, so the per-edge test runs
only when the largest source |x|^2, over every member's craft and the
reference, exceeds it.  A valid scenario gives every receiver an edge, so no
segment is empty.  T and the tracking rate are taken to the reference's closer
image by the same rule, so neither depends on its chart.

A record copies the raw series, from the state and the loop's evaluation of it;
the derived ones (V, D, T) are reduced from them per block of records
(_BLOCK_ELEMENTS craft pairs), as soon as each block fills, and `run` can hand
each block to a sink then; D is exact, pruned from _PRUNE_MIN_CRAFT craft (see
_max_pairwise).  `metrics` only reduces the log to scalar finals.

An ensemble (scenarios sharing all but their craft: a seed sweep, or a Monte
Carlo over inertias, gains and priors) takes a leading member axis, (B, N, 3), so
an evaluation pays numpy's dispatch once for all B members; one scenario keeps
plain (N, 3) arrays.  `Simulation._stack` stacks every per-craft state and
parameter.  Each logged quantity is one (member, record, ...) allocation, and
each member's log holds its slice of it, bit-identical to its solo run.  A
diverged member keeps integrating with the rest, but its entry in the returned
list is the first `SimulationDiverged` it raised.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .attmath import inverse_from_kinematics, kinematics_matrix, mat_vec, mrp_shadow
from .control import GainSet, ReferenceTrajectory, controller_outputs
from .errors import ConfigError, SimulationDiverged
from .rigid_body import InertiaParams, SpacecraftState, angular_acceleration
from .topology import CommTopology, graph_checks

MODES = ("leaderless", "tracking")
ACCEL_SOURCES = ("smoothed", "held")

# trajectories beyond this attitude norm are treated as diverged
DIVERGENCE_SIGMA_NORM = 1e3
# craft pairs in a block of `Simulation._derive` and in a `_max_pairwise` chunk
_BLOCK_ELEMENTS, _PAIRWISE_ELEMENTS = 2048, 65536
# `_max_pairwise` prunes from this many craft on, keeping radii within this margin
_PRUNE_MIN_CRAFT, _PRUNE_MARGIN = 64, 1e-9

# chart alignment flips no edge while every source has |x|^2 <= R^2 = _FLIP_FREE_SQ: for
# a receiver y and a source x, |y - x|^2 <= |y|^2 + 2|y||x| + |x|^2 <= |y|^2 + 3 R^2,
# and 3 R^2 = 0.9 < 1 leaves a margin far above the rounding of the computed test
_FLIP_FREE_SQ = 0.3

# fields of the packed state along its last axis: [sigma | omega | theta_hat | chi | chi_dot],
# with omega and theta_hat adjacent, as the divergence guard reads them
_SIGMA, _OMEGA, _THETA, _CHI, _CHI_DOT, _OMEGA_THETA = (
    np.s_[..., a:b] for a, b in ((0, 3), (3, 6), (6, 12), (12, 15), (15, 18), (3, 12)))
# the log series copied from the step loop; `Simulation._derive` reduces the rest
_RAW = ("times", "sigma", "omega", "theta_hat", "torque", "sync_error", "filtered_error")


@dataclass(frozen=True)
class Spacecraft:
    """Everything fixed about one craft: inertia, start state, gains, prior.

    theta_hat0 is the initial inertia estimate of the adaptive law; it
    defaults to zero (no prior knowledge).
    """

    inertia: InertiaParams
    initial_state: SpacecraftState
    gains: GainSet
    theta_hat0: np.ndarray = field(default_factory=lambda: np.zeros(6))

    def __post_init__(self):
        g = self.gains
        if (g.Lambda.shape, g.K.shape, g.Gamma.shape) != ((3, 3), (3, 3), (6, 6)):
            raise ValueError("per-spacecraft gains must be single 3x3/6x6 matrices")
        th = np.array(self.theta_hat0, dtype=float)
        if th.shape != (6,):
            raise ValueError("theta_hat0 must be a 6-vector")
        if not np.isfinite(th).all():
            raise ValueError("theta_hat0 must be finite")
        th.flags.writeable = False
        object.__setattr__(self, "theta_hat0", th)


@dataclass(frozen=True)
class Scenario:
    """A complete, validated simulation setup.

    Construction checks that the topology matches the mode: leaderless runs
    take no reference and no leader weights and need every craft to have an
    in-neighbor plus a directed spanning tree, tracking runs need a reference
    and a leader that reaches every craft, and the "held" source needs every
    craft to hear the leader alone and no shadow_switch.

    accel_source picks how the desired acceleration is obtained ("smoothed"
    or "held", see the module docstring); smoothing_rate is the generator
    natural frequency in rad/s (critical damping) and rate_leak is an extra
    damping on the generator's own rate (both only used by "smoothed").  A
    positive leak makes each reference bleed off its drift rate, so a
    leaderless fleet settles at its consensus attitude instead of spinning
    there forever on whatever common rate the initial conditions left.

    control_enabled / adaptation_enabled are plant-inspection hooks (open
    loop, frozen estimates); both default to on.
    """

    spacecraft: tuple
    topology: CommTopology
    mode: str
    reference: ReferenceTrajectory | None = None
    dt: float = 0.005
    duration: float = 40.0
    shadow_switch: bool = False
    control_enabled: bool = True
    adaptation_enabled: bool = True
    accel_source: str = "smoothed"
    smoothing_rate: float = 6.0
    rate_leak: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "spacecraft", tuple(self.spacecraft))
        if self.mode not in MODES:
            raise ConfigError("mode must be one of %r, got %r" % (MODES, self.mode))
        if self.accel_source not in ACCEL_SOURCES:
            raise ConfigError(
                "accel_source must be one of %r, got %r"
                % (ACCEL_SOURCES, self.accel_source))
        if not (math.isfinite(self.smoothing_rate) and self.smoothing_rate > 0.0):
            raise ConfigError("smoothing_rate must be positive and finite")
        if not (math.isfinite(self.rate_leak) and self.rate_leak >= 0.0):
            raise ConfigError("rate_leak must be nonnegative and finite")
        n = len(self.spacecraft)
        if n == 0:
            raise ConfigError("scenario needs at least one spacecraft")
        if self.topology.n != n:
            raise ConfigError(
                "topology is for %d spacecraft, scenario has %d" % (self.topology.n, n))
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigError("dt must be positive and finite")
        if not (math.isfinite(self.duration) and self.duration >= self.dt):
            raise ConfigError("duration must be at least one step")
        if not math.isfinite(self.duration / self.dt):
            raise ConfigError("step count duration / dt is not finite (dt %r)" % self.dt)
        if self.duration / self.dt - self.n_steps > 1e-9:
            raise ConfigError("duration %r is not a whole number of steps of dt %r"
                              % (self.duration, self.dt))
        if self.mode == "leaderless" and self.reference is not None:
            raise ConfigError("leaderless mode takes no reference trajectory")
        if self.mode == "leaderless" and self.topology.leader_weights is not None:
            raise ConfigError("leaderless mode takes no leader weights")
        if self.mode == "tracking" and self.reference is None:
            raise ConfigError("tracking mode requires a reference trajectory")
        failed = [text for ok, text in graph_checks(self.topology, self.mode) if not ok]
        if failed:
            raise ConfigError("%s topology invalid, failed checks: %s"
                              % (self.mode, "; ".join(failed)))
        if self.accel_source == "held":
            dst, src, _ = self.topology.edges
            relay = np.flatnonzero(src < n)  # edges from a craft, not the leader
            if relay.size:
                raise ConfigError("accel_source 'held' needs every craft to hear the leader "
                                  "alone; craft %d hears craft %d (use 'smoothed')"
                                  % (dst[relay[0]] + 1, src[relay[0]] + 1))
            if self.shadow_switch:
                raise ConfigError("shadow_switch needs accel_source 'smoothed', not 'held'")

    @property
    def n(self) -> int:
        return len(self.spacecraft)

    @property
    def n_steps(self) -> int:
        return int(math.floor(self.duration / self.dt + 1e-9))


@dataclass
class TrajectoryLog:
    """Decimated time history of a run, every series of it; arrays indexed
    (record, craft, axis).  The *_rate series are D and T of sigma_dot; T and
    its rate (to the reference's closer image) are None when leaderless."""

    scenario: Scenario
    times: np.ndarray
    sigma: np.ndarray
    omega: np.ndarray
    torque: np.ndarray
    theta_hat: np.ndarray
    sync_error: np.ndarray
    filtered_error: np.ndarray
    lyapunov: np.ndarray
    disagreement: np.ndarray
    disagreement_rate: np.ndarray
    tracking_error: np.ndarray | None = None
    tracking_rate: np.ndarray | None = None

    @property
    def n_records(self) -> int:
        return self.times.shape[0]


def _by_craft(x):
    """x stored craft-contiguous: the transpose of a C-contiguous (field, craft[, member])
    array, so elementwise work runs along the craft axis."""
    return np.ascontiguousarray(x.T).T


def _all_pairs(x):
    """max_ij |x_i - x_j| over every pair, in chunks of rows i so that no temporary
    grows with craft^2."""
    chunk = max(1, _PAIRWISE_ELEMENTS // (x.size // x.shape[-1]))
    sq = []
    for a in range(0, x.shape[-2], chunk):
        diff = x[..., a:a + chunk, None, :] - x[..., None, :, :]
        sq.append(np.einsum("...ijk,...ijk->...ij", diff, diff).max(axis=(-2, -1)))
    return np.sqrt(np.max(sq, axis=0))


def _max_pairwise(x):
    """max_ij |x_i - x_j|, the largest distance between craft, for x (..., craft, axis).

    Bit for bit the max over every pair, taken over candidates only: with c the
    bounding-box centre, r_i = |x_i - c|, R = max r_i and L = |p - q| (p farthest from
    c, q from p), a pair reaches L only if r_i, r_j >= L - R, less _PRUNE_MARGIN (L + R)
    for rounding, a few ulps of each distance.  Per slice of the leading axes; every
    pair below _PRUNE_MIN_CRAFT craft, on a non-finite entry (nan propagates) or when
    L is outside 1e-100..1e100 (squares could under- or overflow).
    """
    n = x.shape[-2]
    if n < _PRUNE_MIN_CRAFT or not np.isfinite(x).all():
        return _all_pairs(x)
    flat = x.reshape(-1, n, x.shape[-1])
    d = flat - 0.5 * (flat.min(axis=1) + flat.max(axis=1))[:, None]
    r = np.sqrt(np.einsum("mij,mij->mi", d, d))
    d = flat - flat[np.arange(len(flat)), r.argmax(axis=1)][:, None]  # from p
    lower, radius = np.sqrt(np.einsum("mij,mij->mi", d, d).max(axis=1)), r.max(axis=1)
    keep = r >= (lower - radius - _PRUNE_MARGIN * (lower + radius))[:, None]
    pruned = (lower > 1e-100) & (lower < 1e100)
    out = np.empty(len(flat))
    for m in np.flatnonzero(pruned):
        out[m] = _all_pairs(flat[m, keep[m]])
    if not pruned.all():
        out[~pruned] = _all_pairs(flat[~pruned])
    return out.reshape(x.shape[:-2])[()]  # a scalar for one slice, as _all_pairs


def _closer_image(x, x_dot, to):
    """x, or its shadow -x/|x|^2 where closer to `to` (iff |to - x|^2 > 1 + |to|^2,
    never at x = 0), with the matching rate; x and x_dot as given if none flips."""
    d = to - x
    flip = (np.einsum("...i,...i->...", d, d)
            > 1.0 + np.einsum("...i,...i->...", to, to))[..., None]
    if not flip.any():
        return x, x_dot
    shadow, shadow_dot = mrp_shadow(x, x_dot)
    return np.where(flip, shadow, x), np.where(flip, shadow_dot, x_dot)


def _certificate(j, g, s, err, gamma_diag):
    """V = 1/2 sum_i s_i^T H*_i s_i + 1/2 sum_i err_i^T Gamma_i^-1 err_i over the
    craft axis of (..., craft, axis) arrays, H* = G^-T J G^-1 from g = G(sigma)."""
    g_inv = inverse_from_kinematics(g)
    h = g_inv.swapaxes(-1, -2) @ j @ g_inv
    return (0.5 * np.einsum("...ni,...nij,...nj->...", s, h, s)
            + 0.5 * (err * err / gamma_diag).reshape(s.shape[:-2] + (-1,)).sum(-1))


def _same(a, b):
    """Equal values: dataclasses field by field, arrays by content."""
    if a is b:
        return True
    if dataclasses.is_dataclass(a) and type(a) is type(b):
        return all(map(_same, vars(a).values(), vars(b).values()))
    return bool(np.array_equal(a, b))


class Simulation:
    """Stepper bound to one scenario, or to a sequence of them (an ensemble) whose
    craft (inertias, gains, priors and initial states) may differ."""

    def __init__(self, scenario):
        self.ensemble = not isinstance(scenario, Scenario)
        self.scenarios = tuple(scenario) if self.ensemble else (scenario,)
        scenario = self.scenarios[0]
        for other in self.scenarios[1:]:  # members share every field but the craft
            for name in [f.name for f in dataclasses.fields(Scenario)][1:]:
                if not _same(getattr(scenario, name), getattr(other, name)):
                    raise ConfigError("ensemble members differ in %s" % name)
        self.scenario = scenario
        self.n = scenario.n
        self.dt = scenario.dt
        self.j_stack = _by_craft(self._stack(lambda c: c.inertia.matrix))
        self.j_inv = _by_craft(np.linalg.inv(self.j_stack))
        self.theta_true = self._stack(lambda c: c.inertia.theta)
        self.gains = GainSet(*(_by_craft(self._stack(lambda c: getattr(c.gains, k)))
                               for k in ("Lambda", "K", "Gamma")))
        self.tracking = scenario.mode == "tracking"
        # the topology's edges j -> i by receiver, the leader (source N) last and only when
        # tracking; Scenario gives each receiver one, so no reduceat segment is empty
        self._dst, self._src, w = scenario.topology.edges
        self._w = (w / np.bincount(self._dst, w)[self._dst])[:, None]
        self._starts = np.flatnonzero(np.diff(self._dst, prepend=-1))  # first edges
        self.ref = scenario.reference
        self.smoothed = scenario.accel_source == "smoothed"
        # critically damped second-order generator coefficients
        wn = scenario.smoothing_rate
        self._gen_kp = wn * wn
        self._gen_kd = 2.0 * wn
        self._gen_leak = scenario.rate_leak

    def _stack(self, get):
        """get(craft) of every member's craft: one C-contiguous (member, craft, ...)
        array, no member axis for one scenario; what the loop reads is stored _by_craft."""
        x = np.array([[get(c) for c in sc.spacecraft] for sc in self.scenarios])
        return x if len(x) > 1 else x[0]

    # -- core evaluations ------------------------------------------------

    def _aggregates(self, t, sigma, sigma_dot):
        """Weighted neighborhood averages of attitude and rate.

        The sources are the craft, plus the reference as leader in tracking
        mode.  A table of source states is gathered per edge; chart alignment
        gives each edge the source image closer to its receiver, so a
        source's representation flip never jumps the aggregate, and is tested
        edge by edge only when some source lies outside |x|^2 <= _FLIP_FREE_SQ
        (a nan or inf is outside); one segmented sum adds each receiver's
        weighted edges.
        """
        table = np.empty((6, self.n + self.tracking) + sigma.shape[-3::-1]).T
        table[..., :self.n, :3], table[..., :self.n, 3:] = sigma, sigma_dot
        if self.tracking:  # the reference joins every member as source N
            table[..., self.n, :] = np.concatenate(self.ref.at(t)[:2])
        edges = table.T.take(self._src, axis=1).T
        if self.scenario.shadow_switch and not (
                np.einsum("...i,...i->...", table[..., :3], table[..., :3]).max()
                <= _FLIP_FREE_SQ):
            pos, rate = edges[..., :3], edges[..., 3:]
            aligned = _closer_image(pos, rate, sigma.T.take(self._dst, axis=1).T)
            if aligned[0] is not pos:  # some edge flips
                edges[..., :3], edges[..., 3:] = aligned
        agg = np.add.reduceat((edges * self._w).T, self._starts, axis=1).T
        return agg[..., :3], agg[..., 3:]

    def _eval(self, t, y):
        """Closed-loop derivatives and controller signals at one instant.

        y is the packed state (see the module docstring).  Returns
        (dy, u, e, s): the derivative of y in the same layout, the torque, the
        error and the filtered error.  Under "held" the law reads the
        reference itself, every craft's only neighbor, and the chi
        derivatives are zero.
        """
        sigma, omega, theta_hat, chi, chi_dot = (
            y[_SIGMA], y[_OMEGA], y[_THETA], y[_CHI], y[_CHI_DOT])
        g = kinematics_matrix(sigma)
        sigma_dot = mat_vec(g, omega)
        if self.smoothed:
            sigma_d, sigma_d_dot = self._aggregates(t, sigma, sigma_dot)
            chi_ddot = (self._gen_kd * (sigma_d_dot - chi_dot)
                        + self._gen_kp * (sigma_d - chi)
                        - self._gen_leak * chi_dot)
            sigma_d, sigma_d_dot, sigma_d_ddot = chi, chi_dot, chi_ddot
            d_chi = (chi_dot.T, chi_ddot.T)
        else:
            sigma_d, sigma_d_dot, sigma_d_ddot = self.ref.at(t)
            d_chi = (np.zeros((6,) + sigma.shape[-2::-1]),)
        u, e, s, theta_dot = controller_outputs(sigma, sigma_dot, omega, g, sigma_d,
                                                sigma_d_dot, sigma_d_ddot, theta_hat, self.gains)
        if not self.scenario.control_enabled:
            u = np.zeros_like(sigma)
        if not (self.scenario.control_enabled and self.scenario.adaptation_enabled):
            theta_dot = np.zeros_like(theta_hat)
        omega_dot = angular_acceleration(self.j_stack, self.j_inv, omega, u)
        return np.concatenate((sigma_dot.T, omega_dot.T, theta_dot.T) + d_chi).T, u, e, s

    def _rk4(self, t, y, k1):
        """One classical RK4 step of the packed state y, given its derivative k1."""
        dt = self.dt
        h = dt / 2.0
        k2 = self._eval(t + h, y + h * k1)[0]
        k3 = self._eval(t + h, y + h * k2)[0]
        k4 = self._eval(t + dt, y + dt * k3)[0]
        return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def _apply_shadow(self, y, ss):
        """Flip craft beyond the unit ball to the equivalent representation.

        ss is each craft's |sigma|^2.  The desired-trajectory generator state
        is mapped through the same transform so the craft's errors stay
        continuous across its flip.  Returns the state and its ss, both
        copied and formed again only when some craft flips.
        """
        sigma, chi, chi_dot = y[_SIGMA], y[_CHI], y[_CHI_DOT]
        mask = ss > 1.0
        if not mask.any():
            return y, ss
        out = y.T.copy().T
        out[_SIGMA] = np.where(mask[..., None], mrp_shadow(sigma), sigma)
        rows = (mask & (np.einsum("...ni,...ni->...n", chi, chi) > 0.0))[..., None]
        chi_sh, chi_sh_dot = mrp_shadow(chi, chi_dot)
        out[_CHI] = np.where(rows, chi_sh, chi)
        out[_CHI_DOT] = np.where(rows, chi_sh_dot, chi_dot)
        return out, np.einsum("...ni,...ni->...n", out[_SIGMA], out[_SIGMA])

    def _check_state(self, t, y, ss, healthy=True):
        """{b: SimulationDiverged naming the first bad craft and quantity} for each
        member b with healthy[b] whose packed state y is not finite or left the
        ball; ss is each craft's |sigma|^2."""
        # |sigma|^2 <= limit^2 implies |sigma| <= limit and rules out nan and inf
        if (ss <= DIVERGENCE_SIGMA_NORM ** 2).all() and np.isfinite(y[_OMEGA_THETA]).all():
            return {}
        finite = [np.isfinite(y[x]).all(axis=-1).reshape(-1, self.n)
                  for x in (_SIGMA, _OMEGA, _THETA)]
        norms = np.sqrt(ss).reshape(-1, self.n)
        bad = (~(finite[0] & finite[1] & finite[2]) | (norms > DIVERGENCE_SIGMA_NORM)) & healthy
        if not bad.any():
            return {}
        member, craft = np.nonzero(bad)
        first = np.flatnonzero(np.diff(member, prepend=-1))  # row-major: craft order
        found = {}
        for b, i in zip(member[first].tolist(), craft[first].tolist()):
            name = next((k for k, ok in zip(("sigma", "omega", "theta_hat"), finite)
                         if not ok[b, i]), None)
            what = ("%s is not finite" % name if name else
                    "|sigma| = %.3g > %g" % (norms[b, i], DIVERGENCE_SIGMA_NORM))
            found[b] = SimulationDiverged(
                "spacecraft %d diverged at t = %.6g s (%s)" % (i + 1, t, what),
                craft_index=i, time=t, quantity=name or "sigma")
        return found

    def _derive(self, out, rec):
        """Fill V, D, D's rate, and when tracking T and its rate, of the records `rec`
        (a slice) of every member from the raw series."""
        times, rec = out["times"][0, rec], np.s_[:, rec]
        sigma = out["sigma"][rec]
        g = kinematics_matrix(sigma)
        sigma_dot = mat_vec(g, out["omega"][rec])
        out["lyapunov"][rec] = _certificate(
            np.expand_dims(self.j_stack, -4), g, out["filtered_error"][rec],
            np.expand_dims(self.theta_true, -3) - out["theta_hat"][rec],
            np.expand_dims(self.gains.gamma_diag, -3))
        out["disagreement"][rec] = _max_pairwise(sigma)
        out["disagreement_rate"][rec] = _max_pairwise(sigma_dot)
        if self.tracking:  # to the reference's image closer to each craft
            ref = np.array([self.ref.at(t)[:2] for t in times])
            ref, ref_rate = _closer_image(ref[:, None, 0], ref[:, None, 1], sigma)
            out["tracking_error"][rec] = np.linalg.norm(sigma - ref, axis=-1).max(-1)
            out["tracking_rate"][rec] = np.linalg.norm(sigma_dot - ref_rate, axis=-1).max(-1)

    # -- public stepping -------------------------------------------------

    def run(self, decimate: int = 10, sink=None):
        """Integrate the full horizon and return the decimated history.

        Records are kept every `decimate` steps, always including the
        initial and final states.  The generator starts seated on each
        craft's own state, chi(0) = sigma(0) and chi_dot(0) = sigma_dot(0),
        so the initial reference error is exactly zero and the reference
        slides toward the neighborhood aggregate at the generator
        bandwidth.  A single scenario returns its TrajectoryLog or raises
        SimulationDiverged; an ensemble returns a list of, per member, either
        of the two.  Each accepted state is evaluated once, for its record and
        the next step's first RK4 stage; a record copies its raw series, and
        `_derive` reduces the rest per block of _BLOCK_ELEMENTS craft pairs,
        as soon as the block's last record is copied.

        `sink`, if given, is called with each block once it is derived, in
        record order: a list with, per member (one for a single scenario),
        the TrajectoryLog of the block's records (views of the returned
        logs), or the SimulationDiverged the member has raised.  It runs
        under the caller's numpy error settings.
        """
        if decimate < 1:
            raise ValueError("decimate must be a positive integer")
        sigma = self._stack(lambda c: c.initial_state.sigma)
        omega = self._stack(lambda c: c.initial_state.omega)
        theta = self._stack(lambda c: c.theta_hat0)
        n_steps = self.scenario.n_steps
        n_rec = 1 + -(-n_steps // decimate)  # initial state + ceil(n_steps / k)
        n3 = (self.n, 3)
        shapes = dict(times=(), sigma=n3, omega=n3, torque=n3, theta_hat=(self.n, 6),
                      sync_error=n3, filtered_error=n3, lyapunov=(), disagreement=(),
                      disagreement_rate=())
        if self.tracking:
            shapes.update(tracking_error=(), tracking_rate=())
        try:
            out = {k: np.empty((len(self.scenarios), n_rec) + v) for k, v in shapes.items()}
        except (ValueError, MemoryError) as exc:  # past numpy's maximum dimension, or RAM
            raise ConfigError("a log of %.6g records cannot be allocated (%s)" % (n_rec, exc))
        logs = [TrajectoryLog(scenario=sc, **{k: v[b] for k, v in out.items()})
                for b, sc in enumerate(self.scenarios)]
        block = max(1, _BLOCK_ELEMENTS // (len(self.scenarios) * self.n ** 2))
        caller_errstate = np.geterr()

        def derive(a, b):  # records [a, b), then the sink's view of them
            self._derive(out, np.s_[a:b])
            if sink is None:
                return
            blocks = [dataclasses.replace(log, **{k: v[m, a:b] for k, v in out.items()})
                      if isinstance(log, TrajectoryLog) else log for m, log in enumerate(logs)]
            with np.errstate(**caller_errstate):
                sink(blocks)

        healthy = np.ones((len(logs), 1), dtype=bool)
        y = _by_craft(np.concatenate([sigma, omega, theta, sigma, np.empty_like(sigma)], -1))
        # chi_dot(0) is sigma_dot(0) as `_eval` forms it, so e(0) and s(0) are exactly zero
        y[_CHI_DOT] = mat_vec(kinematics_matrix(y[_SIGMA]), y[_OMEGA])
        r = 0
        # a diverging state overflows before the guard stops the run
        with np.errstate(all="ignore"):
            for k in range(n_steps + 1):
                t = k * self.dt
                if k:
                    y = self._rk4((k - 1) * self.dt, y, dy)
                ss = np.einsum("...ni,...ni->...n", y[_SIGMA], y[_SIGMA])
                if k and self.scenario.shadow_switch:
                    y, ss = self._apply_shadow(y, ss)
                # a diverged member keeps integrating, unchecked, its log dropped
                bad = self._check_state(t, y, ss, healthy)
                if bad:
                    for b, exc in bad.items():
                        logs[b] = exc
                        healthy[b] = False
                    if not healthy.any():
                        break
                dy, u, e, s = self._eval(t, y)
                if k % decimate == 0 or k == n_steps:
                    for name, x in zip(_RAW, (t, y[_SIGMA], y[_OMEGA], y[_THETA], u, e, s)):
                        out[name][:, r] = x
                    r += 1
                    if r % block == 0:
                        derive(r - block, r)
            if r % block:
                derive(r - r % block, r)
        if not self.ensemble and isinstance(logs[0], SimulationDiverged):
            raise logs[0]
        return logs if self.ensemble else logs[0]


def random_initial_states(seed, n, sigma_bound=0.5, omega_bound=0.5):
    """Draw per-craft states uniformly with norm-bounded vectors.

    Components are uniform on [-bound, bound], rejection-sampled so that
    each attitude and rate vector also satisfies its norm bound.  Per
    craft, sigma is drawn first, then omega, so the sequence is stable for
    a given seed and count.  Bounds of zero give exactly zero states.
    Each try is the next three doubles, as `rng.uniform(-bound, bound, 3)`
    takes them; tries are drawn and tested in batches, under both bounds.
    """
    if n < 1:
        raise ValueError("need at least one spacecraft")
    if sigma_bound < 0.0 or omega_bound < 0.0:
        raise ValueError("bounds must be nonnegative")
    bounds = (sigma_bound, omega_bound)
    if not all(np.isfinite(b - -b) for b in bounds):  # refused as by rng.uniform
        raise OverflowError("high - low range exceeds valid bounds")
    rng = np.random.default_rng(seed)
    u = rng.random((4 * n + 16, 3))  # about 3.8 tries per craft
    while True:
        tries = [-b + (b - -b) * u for b in bounds]
        # the stacked matmul takes each try's dot product with the BLAS kernel of
        # `v @ v`, so a try at the bound is accepted or refused alike
        accepted = [((v[:, None, :] @ v[:, :, None])[:, 0, 0] <= b * b).tolist()
                    for v, b in zip(tries, bounds)]
        k, picks = 0, ([], [])  # per bound, the try each craft's vector takes
        try:
            for _ in range(n):
                for pick, flags, b in zip(picks, accepted, bounds):
                    if b != 0.0:
                        k = flags.index(True, k)
                        pick.append(k)
                        k += 1
            break
        except ValueError:  # the tries ran out: the stream goes on
            u = np.concatenate([u, rng.random(u.shape)])
    sigma, omega = (v[p] if b != 0.0 else np.zeros((n, 3))
                    for v, p, b in zip(tries, picks, bounds))
    return [SpacecraftState(s, w) for s, w in zip(sigma, omega)]


def metrics(log: TrajectoryLog) -> dict:
    """Scalar summary of a run: the finals of the log's series, and bounds."""
    out = {
        "mode": log.scenario.mode,
        "records": int(log.n_records),
        "duration": float(log.times[-1]),
        "disagreement_final": float(log.disagreement[-1]),
        "disagreement_rate_final": float(log.disagreement_rate[-1]),
        "lyapunov_initial": float(log.lyapunov[0]),
        "lyapunov_final": float(log.lyapunov[-1]),
        "torque_max": float(np.linalg.norm(log.torque, axis=2).max()),
        "theta_hat_norm_max": float(np.linalg.norm(log.theta_hat, axis=2).max()),
    }
    if log.scenario.mode == "tracking":
        out["tracking_error_final"] = float(log.tracking_error[-1])
        out["tracking_rate_final"] = float(log.tracking_rate[-1])
    return out
