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
    Each craft's broadcast acceleration is held one step (zero-order hold,
    initialized to zero) and refreshed after each step from the torques just
    applied.  The hold closes a discrete feedback loop through the
    inertia-estimate feedforward whose per-step gain does not shrink with
    the step size; it can diverge while the estimates are swinging, which
    is why it is not the default.

The whole fleet is advanced as stacked (N, 3) / (N, 6) arrays through the
same public control-law functions used for a single craft; there is no
separate batched formula path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attmath import mrp_shadow
from .control import (
    GainSet,
    NeighborhoodSignals,
    ReferenceTrajectory,
    controller_outputs,
    filtered_error,
    sync_error,
)
from .errors import ConfigError, SimulationDiverged
from .rigid_body import (
    InertiaParams,
    SpacecraftState,
    angular_acceleration,
    h_star,
    inertia_from_theta,
    mrp_acceleration,
    mrp_rate,
)
from .topology import CommTopology, aggregate_weights, graph_checks

MODES = ("leaderless", "tracking")
ACCEL_SOURCES = ("smoothed", "held")

# trajectories beyond this attitude norm are treated as diverged
DIVERGENCE_SIGMA_NORM = 1e3


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
        if self.gains.Lambda.shape != (3, 3):
            raise ValueError("per-spacecraft gains must be single 3x3/6x6 matrices")
        th = np.array(self.theta_hat0, dtype=float)
        if th.shape != (6,):
            raise ValueError("theta_hat0 must be a 6-vector")
        if not np.all(np.isfinite(th)):
            raise ValueError("theta_hat0 must be finite")
        th.flags.writeable = False
        object.__setattr__(self, "theta_hat0", th)


@dataclass(frozen=True)
class Scenario:
    """A complete, validated simulation setup.

    Construction checks that the topology matches the mode: leaderless runs
    need every craft to have an in-neighbor plus a directed spanning tree,
    tracking runs need a reference and a leader that reaches every craft.

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
    seed: int | None = None
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
        if self.duration / self.dt - self.n_steps > 1e-9:
            raise ConfigError("duration %r is not a whole number of steps of dt %r"
                              % (self.duration, self.dt))
        if self.mode == "leaderless" and self.reference is not None:
            raise ConfigError("leaderless mode takes no reference trajectory")
        if self.mode == "tracking" and self.reference is None:
            raise ConfigError("tracking mode requires a reference trajectory")
        failed = [text for ok, text in graph_checks(self.topology, self.mode) if not ok]
        if failed:
            raise ConfigError("%s topology invalid, failed checks: %s"
                              % (self.mode, "; ".join(failed)))

    @property
    def n(self) -> int:
        return len(self.spacecraft)

    @property
    def n_steps(self) -> int:
        return int(math.floor(self.duration / self.dt + 1e-9))


@dataclass
class TrajectoryLog:
    """Decimated time history of a run; arrays indexed (record, craft, axis)."""

    scenario: Scenario
    decimate: int
    times: np.ndarray
    sigma: np.ndarray
    omega: np.ndarray
    torque: np.ndarray
    theta_hat: np.ndarray
    sync_error: np.ndarray
    filtered_error: np.ndarray
    lyapunov: np.ndarray
    disagreement: np.ndarray
    tracking_error: np.ndarray | None = None

    @property
    def n_records(self) -> int:
        return self.times.shape[0]


def _max_pairwise(sigma):
    """Largest attitude distance between any two craft, max_ij |sigma_i - sigma_j|."""
    diff = sigma[:, None, :] - sigma[None, :, :]
    return float(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff).max()))


def _lyapunov_core(j_stack, gamma_diag, theta_true, sigma, s, theta_hat):
    """V = 1/2 sum_i s_i^T H*_i s_i + 1/2 sum_i err_i^T Gamma_i^{-1} err_i."""
    h = h_star(j_stack, sigma)
    v_s = 0.5 * float(np.einsum("ni,nij,nj->", s, h, s))
    err = theta_true - theta_hat
    v_t = 0.5 * float(np.sum(err * err / gamma_diag))
    return v_s + v_t


class Simulation:
    """Stepper bound to one scenario, with per-fleet arrays precomputed."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        craft = scenario.spacecraft
        self.n = len(craft)
        self.dt = scenario.dt
        self.j_stack = np.stack([c.inertia.matrix for c in craft])
        self.theta_true = np.stack([c.inertia.theta for c in craft])
        self.gains = GainSet(
            np.stack([c.gains.Lambda for c in craft]),
            np.stack([c.gains.K for c in craft]),
            np.stack([c.gains.Gamma for c in craft]),
        )
        self.tracking = scenario.mode == "tracking"
        self.weights, self.leader_coeff = aggregate_weights(
            scenario.topology, with_leader=self.tracking)
        self.ref = scenario.reference
        self.smoothed = scenario.accel_source == "smoothed"
        # when coordinates may flip representation, aggregate over each
        # neighbor's image in the receiving craft's own chart
        self.aligned = self.smoothed and scenario.shadow_switch
        # critically damped second-order generator coefficients
        wn = scenario.smoothing_rate
        self._gen_kp = wn * wn
        self._gen_kd = 2.0 * wn
        self._gen_leak = scenario.rate_leak

    # -- core evaluations ------------------------------------------------

    def _neighbor_sums(self, sigma, sigma_dot):
        """Weighted neighbor position/rate sums, chart-aligned if enabled.

        Alignment maps each neighbor's attitude to whichever of its two
        equivalent representations (sigma or its shadow) lies closer to the
        receiving craft, so a neighbor's representation flip never jumps
        the aggregate.
        """
        if not self.aligned:
            return self.weights @ sigma, self.weights @ sigma_dot
        shadow, shadow_dot = mrp_shadow(sigma, sigma_dot)
        diff = sigma[:, None, :] - sigma[None, :, :]
        d_raw = np.einsum("ijk,ijk->ij", diff, diff)
        diff_sh = sigma[:, None, :] - shadow[None, :, :]
        d_sh = np.einsum("ijk,ijk->ij", diff_sh, diff_sh)
        d_sh = np.where(np.isfinite(d_sh), d_sh, np.inf)
        use_shadow = (d_sh < d_raw) & (self.weights > 0.0)
        img = np.where(use_shadow[:, :, None], shadow[None, :, :],
                       sigma[None, :, :])
        img_dot = np.where(use_shadow[:, :, None], shadow_dot[None, :, :],
                           sigma_dot[None, :, :])
        return (np.einsum("ij,ijk->ik", self.weights, img),
                np.einsum("ij,ijk->ik", self.weights, img_dot))

    def _aggregates(self, t, sigma, sigma_dot):
        """Neighborhood position/rate aggregates (leader folded in)."""
        sigma_d, sigma_d_dot = self._neighbor_sums(sigma, sigma_dot)
        srdd = None
        if self.tracking:
            sr, srd, srdd = self.ref.at(t)
            if self.aligned:
                # a zero reference has no shadow: NaN distances never pick it
                sh, sh_dot = mrp_shadow(sr, srd)
                closer = (np.einsum("ni,ni->n", sigma - sh, sigma - sh)
                          < np.einsum("ni,ni->n", sigma - sr, sigma - sr))
                pick = (closer & (self.leader_coeff > 0.0))[:, None]
                sr = np.where(pick, sh, sr)
                srd = np.where(pick, sh_dot, srd)
            lc = self.leader_coeff[:, None]
            sigma_d = sigma_d + lc * sr
            sigma_d_dot = sigma_d_dot + lc * srd
        return sigma_d, sigma_d_dot, srdd

    def _eval(self, t, sigma, omega, theta_hat, chi, chi_dot, held_sdd):
        """Closed-loop derivatives and controller signals at one instant.

        Returns (sigma_dot, omega_dot, theta_dot, chi_dot, chi_ddot, u, e, s);
        the chi derivatives are zero under the "held" source.
        """
        sigma_dot = mrp_rate(sigma, omega)
        sigma_d, sigma_d_dot, srdd = self._aggregates(t, sigma, sigma_dot)
        if self.smoothed:
            chi_ddot = (self._gen_kd * (sigma_d_dot - chi_dot)
                        + self._gen_kp * (sigma_d - chi)
                        - self._gen_leak * chi_dot)
            signals = NeighborhoodSignals(chi, chi_dot, chi_ddot)
            d_chi, d_chi_dot = chi_dot, chi_ddot
        else:
            sigma_d_ddot = self.weights @ held_sdd
            if self.tracking:
                sigma_d_ddot = sigma_d_ddot + self.leader_coeff[:, None] * srdd
            signals = NeighborhoodSignals(sigma_d, sigma_d_dot, sigma_d_ddot)
            d_chi = d_chi_dot = np.zeros_like(sigma)
        e, e_dot = sync_error(sigma, sigma_dot, signals)
        if self.scenario.control_enabled:
            u, s, theta_dot = controller_outputs(
                sigma, sigma_dot, signals, e, e_dot, theta_hat, self.gains)
            if not self.scenario.adaptation_enabled:
                theta_dot = np.zeros_like(theta_hat)
        else:
            u = np.zeros_like(sigma)
            s = filtered_error(e, e_dot, self.gains.Lambda)
            theta_dot = np.zeros_like(theta_hat)
        omega_dot = angular_acceleration(self.j_stack, omega, u)
        return sigma_dot, omega_dot, theta_dot, d_chi, d_chi_dot, u, e, s

    def _rk4(self, t, sigma, omega, theta_hat, chi, chi_dot, held_sdd):
        dt = self.dt
        h = dt / 2.0
        k1 = self._eval(t, sigma, omega, theta_hat, chi, chi_dot, held_sdd)
        k2 = self._eval(t + h, sigma + h * k1[0], omega + h * k1[1],
                        theta_hat + h * k1[2], chi + h * k1[3],
                        chi_dot + h * k1[4], held_sdd)
        k3 = self._eval(t + h, sigma + h * k2[0], omega + h * k2[1],
                        theta_hat + h * k2[2], chi + h * k2[3],
                        chi_dot + h * k2[4], held_sdd)
        k4 = self._eval(t + dt, sigma + dt * k3[0], omega + dt * k3[1],
                        theta_hat + dt * k3[2], chi + dt * k3[3],
                        chi_dot + dt * k3[4], held_sdd)
        w = dt / 6.0
        out = []
        for j, y in enumerate((sigma, omega, theta_hat, chi, chi_dot)):
            out.append(y + w * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j]))
        return out

    def _apply_shadow(self, sigma, chi, chi_dot):
        """Flip craft beyond the unit ball to the equivalent representation.

        The desired-trajectory generator state is mapped through the same
        transform so the craft's errors stay continuous across its flip.
        """
        mask = np.einsum("ni,ni->n", sigma, sigma) > 1.0
        if mask.any():
            sigma = np.where(mask[:, None], mrp_shadow(sigma), sigma)
            if self.smoothed:
                rows = (mask & (np.einsum("ni,ni->n", chi, chi) > 0.0))[:, None]
                chi_sh, chi_sh_dot = mrp_shadow(chi, chi_dot)
                chi = np.where(rows, chi_sh, chi)
                chi_dot = np.where(rows, chi_sh_dot, chi_dot)
        return sigma, chi, chi_dot

    def _check_state(self, t, sigma, omega, theta_hat):
        """Raise SimulationDiverged naming the first bad craft and quantity."""
        finite = {name: np.isfinite(x).all(axis=1) for name, x in
                  (("sigma", sigma), ("omega", omega), ("theta_hat", theta_hat))}
        norms = np.sqrt(np.einsum("ni,ni->n", sigma, sigma))
        bad = (~(finite["sigma"] & finite["omega"] & finite["theta_hat"])
               | (norms > DIVERGENCE_SIGMA_NORM))
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            name = next((k for k, ok in finite.items() if not ok[i]), None)
            what = ("%s is not finite" % name if name else
                    "|sigma| = %.3g > %g" % (norms[i], DIVERGENCE_SIGMA_NORM))
            raise SimulationDiverged(
                "spacecraft %d diverged at t = %.6g s (%s)" % (i + 1, t, what),
                craft_index=i, time=t, quantity=name or "sigma")

    def _record(self, log, r, t, sigma, omega, theta_hat, ev):
        """Write record r of the log from the state and its evaluation."""
        u, e, s = ev[5], ev[6], ev[7]
        log.times[r] = t
        log.sigma[r], log.omega[r], log.torque[r] = sigma, omega, u
        log.theta_hat[r], log.sync_error[r], log.filtered_error[r] = theta_hat, e, s
        log.lyapunov[r] = _lyapunov_core(self.j_stack, self.gains.gamma_diag,
                                         self.theta_true, sigma, s, theta_hat)
        log.disagreement[r] = _max_pairwise(sigma)
        if self.tracking:
            sr = self.ref.at(t)[0]
            log.tracking_error[r] = float(np.linalg.norm(sigma - sr, axis=1).max())

    # -- public stepping -------------------------------------------------

    def run(self, decimate: int = 10) -> TrajectoryLog:
        """Integrate the full horizon and return the decimated history.

        Records are kept every `decimate` steps, always including the
        initial and final states.  The generator starts seated on each
        craft's own state, chi(0) = sigma(0) and chi_dot(0) = sigma_dot(0),
        so the initial reference error is exactly zero and the reference
        slides toward the neighborhood aggregate at the generator
        bandwidth; the held acceleration starts at zero.
        """
        if decimate < 1:
            raise ValueError("decimate must be a positive integer")
        craft = self.scenario.spacecraft
        sigma = np.stack([c.initial_state.sigma for c in craft])
        omega = np.stack([c.initial_state.omega for c in craft])
        theta = np.stack([c.theta_hat0 for c in craft])
        n_steps = self.scenario.n_steps
        n_rec = 1 + -(-n_steps // decimate)  # initial state + ceil(n_steps / k)

        def rows(*shape):
            return np.empty((n_rec,) + shape)

        log = TrajectoryLog(
            scenario=self.scenario, decimate=decimate, times=rows(),
            sigma=rows(self.n, 3), omega=rows(self.n, 3), torque=rows(self.n, 3),
            theta_hat=rows(self.n, 6), sync_error=rows(self.n, 3),
            filtered_error=rows(self.n, 3), lyapunov=rows(), disagreement=rows(),
            tracking_error=rows() if self.tracking else None)
        chi, chi_dot = sigma.copy(), mrp_rate(sigma, omega)
        held_sdd = np.zeros_like(sigma)
        # a diverging state overflows before the guard stops the run
        with np.errstate(all="ignore"):
            self._check_state(0.0, sigma, omega, theta)
            ev = self._eval(0.0, sigma, omega, theta, chi, chi_dot, held_sdd)
            self._record(log, 0, 0.0, sigma, omega, theta, ev)
            r = 1
            for k in range(n_steps):
                t_next = (k + 1) * self.dt
                sigma, omega, theta, chi, chi_dot = self._rk4(
                    k * self.dt, sigma, omega, theta, chi, chi_dot, held_sdd)
                if self.scenario.shadow_switch:
                    sigma, chi, chi_dot = self._apply_shadow(sigma, chi, chi_dot)
                self._check_state(t_next, sigma, omega, theta)
                recorded = (k + 1) % decimate == 0 or k == n_steps - 1
                # the end-of-step evaluation feeds the record and the hold
                if recorded or not self.smoothed:
                    ev = self._eval(t_next, sigma, omega, theta, chi, chi_dot,
                                    held_sdd)
                if recorded:
                    self._record(log, r, t_next, sigma, omega, theta, ev)
                    r += 1
                if not self.smoothed:
                    held_sdd = mrp_acceleration(self.j_stack, sigma, omega, ev[5])
        return log


def _draw_in_ball(rng, bound):
    # componentwise uniform, conditioned on the vector norm bound
    if bound == 0.0:
        return np.zeros(3)
    while True:
        v = rng.uniform(-bound, bound, 3)
        if v @ v <= bound * bound:
            return v


def random_initial_states(seed, n, sigma_bound=0.5, omega_bound=0.5):
    """Draw per-craft states uniformly with norm-bounded vectors.

    Components are uniform on [-bound, bound], rejection-sampled so that
    each attitude and rate vector also satisfies its norm bound.  Per
    craft, sigma is drawn first, then omega, so the sequence is stable for
    a given seed and count.  Bounds of zero give exactly zero states.
    """
    if n < 1:
        raise ValueError("need at least one spacecraft")
    if sigma_bound < 0.0 or omega_bound < 0.0:
        raise ValueError("bounds must be nonnegative")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        sigma = _draw_in_ball(rng, sigma_bound)
        omega = _draw_in_ball(rng, omega_bound)
        out.append(SpacecraftState(sigma, omega))
    return out


def lyapunov_value(states, adaptive_states, true_thetas, mode, gains, topo,
                   ref=None, t=0.0):
    """Fleet Lyapunov function at one instant.

    V = 1/2 sum_i s_i^T H*_i s_i + 1/2 sum_i (theta_i - theta_hat_i)^T
    Gamma_i^{-1} (theta_i - theta_hat_i), with s_i built from the raw
    neighborhood aggregates (acceleration terms do not enter).  Matches a
    run's logged value under the "held" source, where the control law reads
    the raw aggregates directly; a "smoothed" run logs V built from its
    generator state instead (equal to this once the generator has settled
    on the aggregates).  `gains` may be a list of per-craft GainSet or one
    stacked set.
    """
    if mode not in MODES:
        raise ConfigError("mode must be one of %r" % (MODES,))
    sigma = np.stack([s.sigma for s in states])
    omega = np.stack([s.omega for s in states])
    theta_hat = np.asarray(adaptive_states, dtype=float)
    theta_true = np.asarray(true_thetas, dtype=float)
    if isinstance(gains, GainSet):
        lam, gamma_diag = gains.Lambda, gains.gamma_diag
    else:
        lam = np.stack([g.Lambda for g in gains])
        gamma_diag = np.stack([g.gamma_diag for g in gains])
    tracking = mode == "tracking"
    weights, leader_coeff = aggregate_weights(topo, with_leader=tracking)
    sigma_dot = mrp_rate(sigma, omega)
    sigma_d = weights @ sigma
    sigma_d_dot = weights @ sigma_dot
    if tracking:
        if ref is None:
            raise ConfigError("tracking mode requires a reference trajectory")
        sr, srd, _ = ref.at(t)
        sigma_d = sigma_d + leader_coeff[:, None] * sr
        sigma_d_dot = sigma_d_dot + leader_coeff[:, None] * srd
    e = sigma - sigma_d
    e_dot = sigma_dot - sigma_d_dot
    s = filtered_error(e, e_dot, lam)
    j_stack = inertia_from_theta(theta_true)
    return _lyapunov_core(j_stack, gamma_diag, theta_true, sigma, s, theta_hat)


def metrics(log: TrajectoryLog) -> dict:
    """Summary metrics of a run: disagreement, tracking error, bounds.

    Finals are scalars; full series come back under "series" as arrays.
    """
    sigma_dot = mrp_rate(log.sigma, log.omega)
    diff = sigma_dot[:, :, None, :] - sigma_dot[:, None, :, :]
    d_rate = np.sqrt(np.einsum("rijk,rijk->rij", diff, diff).max(axis=(1, 2)))
    torque_norm = np.linalg.norm(log.torque, axis=2)
    theta_norm = np.linalg.norm(log.theta_hat, axis=2)
    out = {
        "mode": log.scenario.mode,
        "records": int(log.n_records),
        "duration": float(log.times[-1]),
        "disagreement_final": float(log.disagreement[-1]),
        "disagreement_rate_final": float(d_rate[-1]),
        "lyapunov_initial": float(log.lyapunov[0]),
        "lyapunov_final": float(log.lyapunov[-1]),
        "torque_max": float(torque_norm.max()),
        "theta_hat_norm_max": float(theta_norm.max()),
        "series": {
            "t": log.times,
            "disagreement": log.disagreement,
            "disagreement_rate": d_rate,
            "lyapunov": log.lyapunov,
        },
    }
    if log.scenario.mode == "tracking":
        ref = log.scenario.reference
        ref_rate = np.stack([ref.at(t)[1] for t in log.times])
        t_rate = np.linalg.norm(sigma_dot - ref_rate[:, None, :], axis=2).max(axis=1)
        out["tracking_error_final"] = float(log.tracking_error[-1])
        out["tracking_rate_final"] = float(t_rate[-1])
        out["series"]["tracking_error"] = log.tracking_error
        out["series"]["tracking_rate"] = t_rate
    return out
