"""Closed-loop fleet integration: stepping, logging, metrics, divergence."""
import dataclasses
import warnings

import numpy as np
import pytest

from attsync.control import GainSet, ReferenceTrajectory
from attsync.errors import ConfigError, SimulationDiverged
from attsync.rigid_body import InertiaParams, SpacecraftState, mrp_rate
from attsync.simulator import (
    Scenario,
    Simulation,
    Spacecraft,
    lyapunov_value,
    metrics,
    random_initial_states,
)
from attsync.topology import CommTopology, aggregate_weights
from tests.conftest import FLEET_J, pair_scenario, single_craft_scenario


def chain_scenario(duration=3.0, **kw):
    """Leader -> craft 1 -> craft 2, acyclic, so the held source is exact."""
    states = [
        SpacecraftState(np.array([0.2, -0.1, 0.1]), np.array([0.1, 0.0, -0.1])),
        SpacecraftState(np.array([-0.1, 0.2, -0.2]), np.array([0.0, 0.1, 0.1])),
    ]
    craft = [
        Spacecraft(
            inertia=InertiaParams.from_matrix(np.array(j)),
            initial_state=st,
            gains=GainSet.from_scalars(1.0, 3.0, 3.0),
        )
        for j, st in zip(FLEET_J[:2], states)
    ]
    topo = CommTopology(
        np.array([[0.0, 0.0], [1.0, 0.0]]), leader_weights=np.array([1.0, 0.0])
    )
    return Scenario(
        spacecraft=tuple(craft),
        topology=topo,
        mode="tracking",
        reference=ReferenceTrajectory.constant([0.1, 0.0, -0.1]),
        duration=duration,
        accel_source="held",
        **kw,
    )


# ----------------------------------------------------------- validation


def test_scenario_validation_errors():
    base = pair_scenario()
    with pytest.raises(ConfigError):
        dataclasses.replace(base, mode="formation")
    with pytest.raises(ConfigError):
        dataclasses.replace(base, dt=0.0)
    with pytest.raises(ConfigError):
        dataclasses.replace(base, dt=np.inf)
    with pytest.raises(ConfigError):
        dataclasses.replace(base, duration=0.001)  # shorter than one step
    with pytest.raises(ConfigError):
        dataclasses.replace(base, accel_source="extrapolated")
    with pytest.raises(ConfigError):
        dataclasses.replace(base, smoothing_rate=0.0)
    with pytest.raises(ConfigError):
        dataclasses.replace(base, rate_leak=-0.1)
    with pytest.raises(ConfigError):
        dataclasses.replace(base, reference=ReferenceTrajectory.constant([0.1, 0, 0]))
    with pytest.raises(ConfigError):
        dataclasses.replace(base, spacecraft=base.spacecraft[:1])


def test_duration_must_be_a_whole_number_of_steps():
    base = pair_scenario()
    with pytest.raises(ConfigError, match="whole number of steps"):
        dataclasses.replace(base, duration=1.0025, dt=0.005)
    # preset and benchmark horizons, and ones whose ratio rounds below n
    for duration, dt, steps in ((40.0, 0.005, 8000), (4.0, 0.005, 800),
                                (2.0, 0.005, 400), (1.0, 0.005, 200),
                                (20.0, 0.0025, 8000), (0.6, 0.01, 60)):
        assert dataclasses.replace(base, duration=duration, dt=dt).n_steps == steps


def test_single_craft_leaderless_is_invalid():
    craft = Spacecraft(
        inertia=InertiaParams.from_matrix(np.eye(3)),
        initial_state=SpacecraftState(np.zeros(3), np.zeros(3)),
        gains=GainSet.from_scalars(1.0, 3.0, 3.0),
    )
    with pytest.raises(ConfigError, match="failed checks: node 1 has no in-neighbor$"):
        Scenario(
            spacecraft=(craft,),
            topology=CommTopology(np.zeros((1, 1))),
            mode="leaderless",
            duration=1.0,
        )


def test_tracking_needs_reference_and_rooted_leader():
    tracking = pair_scenario(mode="tracking")
    with pytest.raises(ConfigError):
        dataclasses.replace(tracking, reference=None)
    unrooted = CommTopology(
        np.array([[0.0, 1.0], [1.0, 0.0]]), leader_weights=np.zeros(2)
    )
    with pytest.raises(ConfigError):
        dataclasses.replace(tracking, topology=unrooted)
    with pytest.raises(ConfigError):
        dataclasses.replace(tracking, topology=CommTopology(np.array([[0.0, 1.0], [1.0, 0.0]])))


# ------------------------------------------------ random initial states


def test_random_initial_states_deterministic():
    a = random_initial_states(123, 6)
    b = random_initial_states(123, 6)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.sigma, sb.sigma)
        assert np.array_equal(sa.omega, sb.omega)
    c = random_initial_states(124, 6)
    assert any(not np.array_equal(sa.sigma, sc.sigma) for sa, sc in zip(a, c))


def test_random_initial_states_bounds():
    states = random_initial_states(7, 1000, sigma_bound=0.5, omega_bound=0.4)
    sig = np.stack([s.sigma for s in states])
    om = np.stack([s.omega for s in states])
    assert np.abs(sig).max() <= 0.5 and np.abs(om).max() <= 0.4
    assert np.linalg.norm(sig, axis=1).max() <= 0.5
    assert np.linalg.norm(om, axis=1).max() <= 0.4


def test_random_initial_states_zero_bounds_and_errors():
    states = random_initial_states(1, 3, sigma_bound=0.0, omega_bound=0.0)
    for s in states:
        assert np.array_equal(s.sigma, np.zeros(3))
        assert np.array_equal(s.omega, np.zeros(3))
    with pytest.raises(ValueError):
        random_initial_states(1, 0)
    with pytest.raises(ValueError):
        random_initial_states(1, 2, sigma_bound=-0.1)


# ------------------------------------------------------- point dynamics


@pytest.mark.parametrize("accel_source", ["held", "smoothed"])
def test_equilibrium_holds(accel_source):
    # start on the constant leader with the true inertia estimate and zero
    # rate: every error term vanishes and the craft must stay put
    ref = (0.1, 0.3, 0.5)
    sc = single_craft_scenario(
        sigma0=ref, omega0=(0.0, 0.0, 0.0), sigma_ref=ref, perfect=True,
        duration=1.0, accel_source=accel_source,
    )
    log = Simulation(sc).run(decimate=1)
    drift = np.abs(log.sigma - np.array(ref)).max()
    assert drift <= 1e-9
    assert np.abs(log.omega).max() <= 1e-9
    assert np.abs(log.torque).max() <= 1e-9


def test_spherical_free_body_keeps_omega():
    sc = single_craft_scenario(
        j=np.eye(3), omega0=(0.3, -0.2, 0.4), control_enabled=False, duration=10.0,
        shadow_switch=True,
    )
    log = Simulation(sc).run(decimate=1)
    assert np.abs(log.omega - log.omega[0]).max() <= 1e-10
    assert np.abs(log.torque).max() == 0.0


def test_free_body_conserves_momentum_and_energy():
    j = np.array(FLEET_J[3])
    sc = single_craft_scenario(
        j=j, omega0=(0.4, -0.3, 0.5), control_enabled=False, duration=10.0,
        shadow_switch=True,
    )
    log = Simulation(sc).run(decimate=1)
    h = log.omega[:, 0, :] @ j.T
    h_norm = np.linalg.norm(h, axis=1)
    energy = np.einsum("ri,ij,rj->r", log.omega[:, 0, :], j, log.omega[:, 0, :])
    assert np.abs(h_norm - h_norm[0]).max() <= 1e-11
    assert np.abs(energy - energy[0]).max() <= 1e-11


# ------------------------------------------------------ run and logging


def test_run_is_deterministic():
    sc = pair_scenario(duration=2.0)
    a, b = Simulation(sc).run(), Simulation(sc).run()
    for name in ("times", "sigma", "omega", "torque", "theta_hat",
                 "sync_error", "filtered_error", "lyapunov", "disagreement"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_record_counts_and_times():
    sc = pair_scenario(duration=2.0)  # 400 steps at dt = 0.005
    full = Simulation(sc).run(decimate=1)
    assert full.n_records == 401
    assert np.all(np.diff(full.times) > 0)
    assert full.times[0] == 0.0 and abs(full.times[-1] - 2.0) < 1e-12
    dec = Simulation(sc).run(decimate=10)
    assert dec.n_records == 41  # initial record + every 10th of 400 steps
    dec7 = Simulation(sc).run(decimate=7)
    kept = len([k for k in range(1, 401) if k % 7 == 0])
    assert dec7.n_records == 1 + kept + 1  # final step logged despite 400 % 7 != 0
    with pytest.raises(ValueError):
        Simulation(sc).run(decimate=0)


def test_divergence_guard_reports_craft_and_time():
    # mutual coupling with one-step-held accelerations is violently unstable;
    # the guard must stop the run and say who went where, without letting
    # numpy's overflow warnings out first
    sc = pair_scenario(duration=2.0, accel_source="held")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationDiverged) as exc:
            Simulation(sc).run()
    assert exc.value.craft_index in (0, 1)
    assert 0.0 < exc.value.time <= 2.0
    assert exc.value.quantity in ("sigma", "omega", "theta_hat")
    text = str(exc.value)
    assert "spacecraft" in text and "diverged" in text
    assert exc.value.quantity in text
    assert "is not finite" in text or "|sigma| = " in text


@pytest.mark.parametrize("bad, quantity, how", [
    ((0, "sigma", 2000.0), "sigma", "|sigma| = 2e+03 > 1000"),
    ((1, "omega", np.inf), "omega", "omega is not finite"),
    ((0, "theta_hat", np.nan), "theta_hat", "theta_hat is not finite"),
])
def test_divergence_guard_names_the_quantity(bad, quantity, how):
    i, name, value = bad
    sc = pair_scenario(duration=1.0)
    state = {"sigma": np.zeros((2, 3)), "omega": np.zeros((2, 3)),
             "theta_hat": np.zeros((2, 6))}
    state[name][i, 0] = value
    with pytest.raises(SimulationDiverged) as exc:
        Simulation(sc)._check_state(0.25, **state)
    assert exc.value.craft_index == i and exc.value.quantity == quantity
    assert str(exc.value) == "spacecraft %d diverged at t = 0.25 s (%s)" % (i + 1, how)


def test_shadow_switch_keeps_attitude_in_unit_ball():
    tumble = dict(omega0=(0.0, 0.0, 1.0), sigma0=(0.0, 0.0, 0.0),
                  control_enabled=False, duration=5.0)
    free = Simulation(single_craft_scenario(**tumble)).run(decimate=1)
    norms = np.linalg.norm(free.sigma[:, 0, :], axis=1)
    assert norms.max() > 1.1  # the long rotation leaves the unit ball
    switched = Simulation(single_craft_scenario(shadow_switch=True, **tumble)).run(
        decimate=1)
    norms = np.linalg.norm(switched.sigma[:, 0, :], axis=1)
    assert norms.max() <= 1.0 + 1e-12


# ------------------------------------------------- logged-signal checks


def test_logged_errors_match_offline_recomputation():
    # on an acyclic graph the held source has no causality gap, so the
    # logged errors must equal the aggregates recomputed from the log alone
    sc = chain_scenario(duration=3.0)
    log = Simulation(sc).run(decimate=1)
    w, c = aggregate_weights(sc.topology, with_leader=True)
    sigma_dot = mrp_rate(log.sigma, log.omega)
    sigma_d = np.einsum("ij,rjk->rik", w, log.sigma)
    sigma_d_dot = np.einsum("ij,rjk->rik", w, sigma_dot)
    sr = np.stack([sc.reference.at(t)[0] for t in log.times])
    sr_dot = np.stack([sc.reference.at(t)[1] for t in log.times])
    sigma_d += c[None, :, None] * sr[:, None, :]
    sigma_d_dot += c[None, :, None] * sr_dot[:, None, :]
    e = log.sigma - sigma_d
    s = (sigma_dot - sigma_d_dot) + e  # Lambda = I
    assert np.abs(e - log.sync_error).max() <= 1e-10
    assert np.abs(s - log.filtered_error).max() <= 1e-10


def test_logged_filtered_error_consistent_under_smoothing():
    # smoothed runs measure errors against the generator state, which is not
    # logged; but s - Lambda e must still be the time derivative of e
    sc = pair_scenario(duration=2.0)
    log = Simulation(sc).run(decimate=1)
    e_dot_implied = log.filtered_error - log.sync_error  # Lambda = I
    e_dot_fd = np.gradient(log.sync_error, log.times, axis=0)
    settled = slice(100, -5)  # skip the high-curvature transient
    assert np.abs((e_dot_implied - e_dot_fd)[settled]).max() <= 1e-3


def test_lyapunov_value_matches_logged_initial_value_held():
    sc = chain_scenario(duration=1.0)
    log = Simulation(sc).run()
    states = [c.initial_state for c in sc.spacecraft]
    thetas = [c.inertia.theta for c in sc.spacecraft]
    v0 = lyapunov_value(
        states, np.zeros((2, 6)), thetas, "tracking",
        [c.gains for c in sc.spacecraft], sc.topology, ref=sc.reference, t=0.0,
    )
    assert abs(v0 - log.lyapunov[0]) <= 1e-12 * (1.0 + abs(v0))


def test_lyapunov_initial_value_smoothed_is_estimate_term_only():
    # the generator starts seated on each craft's own state, so s(0) = 0 and
    # V(0) is purely the estimation error: 1/2 sum theta^T Gamma^-1 theta
    sc = pair_scenario(duration=1.0)
    log = Simulation(sc).run()
    want = sum(
        0.5 * c.inertia.theta @ c.inertia.theta / 3.0 for c in sc.spacecraft
    )
    assert abs(log.lyapunov[0] - want) <= 1e-12 * (1.0 + want)


def test_lyapunov_positive_and_zero_exactly_at_rest():
    topo = CommTopology(np.zeros((1, 1)), leader_weights=np.array([1.0]))
    gains = GainSet.from_scalars(1.0, 3.0, 3.0)
    ref = ReferenceTrajectory.constant([0.1, 0.3, 0.5])
    j = InertiaParams.from_matrix(np.array(FLEET_J[0]))
    resting = SpacecraftState(np.array([0.1, 0.3, 0.5]), np.zeros(3))
    v = lyapunov_value([resting], [j.theta], [j.theta], "tracking", gains, topo, ref=ref)
    assert v == 0.0
    moving = SpacecraftState(np.array([0.1, 0.3, 0.5]), np.array([0.1, 0.0, 0.0]))
    v = lyapunov_value([moving], [j.theta], [j.theta], "tracking", gains, topo, ref=ref)
    assert v > 0.0


def stable_pair_scenario(duration=5.0):
    """Pair with the gentle-generator settings the leaderless preset uses."""
    return pair_scenario(duration=duration, smoothing_rate=1.0, rate_leak=0.2,
                         shadow_switch=True)


def test_lyapunov_nonincreasing_on_short_adaptive_run():
    log = Simulation(stable_pair_scenario()).run(decimate=1)
    v = log.lyapunov
    assert np.all(v[1:] <= v[:-1] + 1e-4 * (1.0 + v[:-1]))


def test_filtered_error_bounded_by_initial_lyapunov_level():
    # |s_i|^2 <= 2 V / lambda_min(H*), with lambda_min(H*) at attitude sigma
    # at least 16 lambda_min(J) / (1 + |sigma|^2)^2
    sc = stable_pair_scenario()
    log = Simulation(sc).run()
    v0 = log.lyapunov[0]
    for i, c in enumerate(sc.spacecraft):
        lam_min_j = np.linalg.eigvalsh(c.inertia.matrix)[0]
        norm2 = np.einsum("ri,ri->r", log.sigma[:, i, :], log.sigma[:, i, :])
        cap = np.sqrt(2.0 * v0 * (1.0 + norm2) ** 2 / (16.0 * lam_min_j))
        s_norm = np.linalg.norm(log.filtered_error[:, i, :], axis=1)
        assert np.all(s_norm <= cap * (1.0 + 1e-6) + 1e-12)


# --------------------------------------------------------------- metrics


def test_disagreement_examples():
    sc = pair_scenario(duration=1.0)
    states = [
        SpacecraftState(np.zeros(3), np.zeros(3)),
        SpacecraftState(np.array([0.3, 0.0, 0.0]), np.zeros(3)),
    ]
    craft = tuple(
        dataclasses.replace(c, initial_state=st)
        for c, st in zip(sc.spacecraft, states)
    )
    log = Simulation(dataclasses.replace(sc, spacecraft=craft)).run()
    assert abs(log.disagreement[0] - 0.3) <= 1e-15
    same = tuple(
        dataclasses.replace(c, initial_state=states[0]) for c in sc.spacecraft
    )
    log = Simulation(dataclasses.replace(sc, spacecraft=same)).run()
    assert log.disagreement[0] == 0.0


def test_tracking_error_zero_on_reference():
    ref = (0.1, 0.3, 0.5)
    sc = single_craft_scenario(sigma0=ref, omega0=(0, 0, 0), sigma_ref=ref,
                               perfect=True, duration=1.0)
    log = Simulation(sc).run()
    assert log.tracking_error[0] == 0.0
    assert log.tracking_error.max() <= 1e-9


def test_metrics_summary_consistent_with_log():
    sc = pair_scenario(duration=2.0)
    log = Simulation(sc).run()
    out = metrics(log)
    assert out["mode"] == "leaderless"
    assert out["records"] == log.n_records
    assert out["duration"] == log.times[-1]
    assert out["disagreement_final"] == log.disagreement[-1]
    assert out["lyapunov_initial"] == log.lyapunov[0]
    assert out["lyapunov_final"] == log.lyapunov[-1]
    assert out["torque_max"] == np.linalg.norm(log.torque, axis=2).max()
    assert out["theta_hat_norm_max"] == np.linalg.norm(log.theta_hat, axis=2).max()
    assert "tracking_error_final" not in out
    assert np.array_equal(out["series"]["disagreement"], log.disagreement)

    tlog = Simulation(chain_scenario(duration=1.0)).run()
    tout = metrics(tlog)
    assert tout["tracking_error_final"] == tlog.tracking_error[-1]
    assert np.isfinite(tout["tracking_rate_final"])
