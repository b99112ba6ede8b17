"""Adaptive synchronization/tracking control laws and reference profiles."""
import numpy as np
import pytest

from attsync.attmath import kinematics_matrix, kinematics_matrix_dot, mat_vec
from attsync.control import (
    GainSet,
    NeighborhoodSignals,
    ReferenceTrajectory,
    controller_outputs,
    filtered_error,
    sync_error,
)
from attsync.rigid_body import (
    InertiaParams,
    c_star,
    h_star,
    mrp_rate,
    regression,
)
from attsync.simulator import Simulation
from attsync.topology import CommTopology
from tests.conftest import FLEET_J, single_craft_scenario

RNG = np.random.default_rng(5)


def random_spd(rng):
    m = rng.normal(size=(3, 3))
    return m @ m.T + 3.0 * np.eye(3)


def torque(sigma, sigma_dot, signals, e, e_dot, theta_hat, gains):
    return controller_outputs(sigma, sigma_dot, signals, e, e_dot, theta_hat, gains)[0]


def signals_from(sigma_d, sigma_d_dot=None, sigma_d_ddot=None):
    zero = np.zeros(3)
    return NeighborhoodSignals(
        np.asarray(sigma_d, dtype=float),
        zero if sigma_d_dot is None else np.asarray(sigma_d_dot, dtype=float),
        zero if sigma_d_ddot is None else np.asarray(sigma_d_ddot, dtype=float),
    )


# ---------------------------------------------------------------- GainSet


def test_gain_set_validation():
    eye3, eye6 = np.eye(3), np.eye(6)
    with pytest.raises(ValueError):
        GainSet(np.eye(4), eye3, eye6)  # Lambda wrong shape
    with pytest.raises(ValueError):
        GainSet(eye3 + np.triu(np.ones((3, 3)), 1), eye3, eye6)  # asymmetric
    with pytest.raises(ValueError):
        GainSet(-eye3, eye3, eye6)  # not positive definite
    with pytest.raises(ValueError):
        GainSet(eye3, eye3, np.eye(3))  # Gamma wrong shape
    with pytest.raises(ValueError):
        GainSet(eye3, eye3, eye6 + 0.1 * np.triu(np.ones((6, 6)), 1))
    with pytest.raises(ValueError):
        GainSet(eye3, eye3, 0.0 * eye6)  # nonpositive diagonal


def test_gain_set_from_scalars_and_stacks():
    g = GainSet.from_scalars(1.0, 3.0, 3.0)
    assert np.array_equal(g.Lambda, np.eye(3))
    assert np.array_equal(g.K, 3.0 * np.eye(3))
    assert np.array_equal(g.Gamma, 3.0 * np.eye(6))
    assert np.array_equal(g.gamma_diag, 3.0 * np.ones(6))
    stacked = GainSet(
        np.stack([np.eye(3), 2.0 * np.eye(3)]),
        np.stack([np.eye(3), np.eye(3)]),
        np.stack([np.eye(6), 5.0 * np.eye(6)]),
    )
    assert stacked.Lambda.shape == (2, 3, 3)
    assert np.array_equal(stacked.gamma_diag, [[1.0] * 6, [5.0] * 6])
    with pytest.raises(ValueError):
        GainSet(np.stack([np.eye(3), -np.eye(3)]), np.eye(3), np.eye(6))


def test_gain_set_is_immutable():
    g = GainSet.from_scalars(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        g.K[0, 0] = 5.0


# ------------------------------------------------- reference trajectories


def test_reference_constant():
    ref = ReferenceTrajectory.constant([0.1, 0.3, 0.5])
    for t in (0.0, 1.7, 40.0):
        sigma_r, rate, accel = ref.at(t)
        assert np.array_equal(sigma_r, [0.1, 0.3, 0.5])
        assert np.array_equal(rate, np.zeros(3))
        assert np.array_equal(accel, np.zeros(3))


def test_reference_sinusoid_zero_amplitude_is_constant():
    ref = ReferenceTrajectory.sinusoid(0.0, 1.0, offset=[0.2, -0.1, 0.0])
    sigma_r, rate, accel = ref.at(3.3)
    assert np.allclose(sigma_r, [0.2, -0.1, 0.0], atol=1e-15)
    assert np.array_equal(rate, np.zeros(3))
    assert np.array_equal(accel, np.zeros(3))


def test_reference_sinusoid_derivatives_match_central_differences():
    ref = ReferenceTrajectory.sinusoid(
        [0.2, 0.1, 0.3], [0.5, 1.0, 0.7], phase=[0.0, 0.4, 1.0], offset=0.05
    )
    for t in (0.0, 1.3, 7.9):
        sigma_r, rate, accel = ref.at(t)
        h = 1e-5
        sp, _, _ = ref.at(t + h)
        sm, _, _ = ref.at(t - h)
        assert np.abs((sp - sm) / (2 * h) - rate).max() <= 1e-6
        h = 1e-4  # wider step: the second difference amplifies rounding by 1/h^2
        sp, _, _ = ref.at(t + h)
        sm, _, _ = ref.at(t - h)
        assert np.abs((sp - 2 * sigma_r + sm) / h**2 - accel).max() <= 1e-6


def test_reference_validation():
    with pytest.raises(ValueError):
        ReferenceTrajectory(kind="spline")
    with pytest.raises(ValueError):
        ReferenceTrajectory(kind="sinusoid", amplitude=[0.1, 0.1, 0.1])  # no frequency
    with pytest.raises(ValueError):
        ReferenceTrajectory.constant([np.nan, 0.0, 0.0])


# ------------------------------------------------------ error definitions


def test_sync_error_definitions():
    sigma = np.array([0.3, -0.2, 0.4])
    sigma_dot = np.array([0.1, 0.0, -0.1])
    e, e_dot = sync_error(sigma, sigma_dot, signals_from(sigma, sigma_dot))
    assert np.array_equal(e, np.zeros(3))
    assert np.array_equal(e_dot, np.zeros(3))
    # single-neighbor node: the aggregate is the neighbor itself
    other = np.array([0.1, 0.1, 0.1])
    e, _ = sync_error(sigma, sigma_dot, signals_from(other))
    assert np.array_equal(e, sigma - other)


def test_sync_error_vanishes_at_consensus():
    common = RNG.normal(size=3)
    fleet = np.tile(common, (4, 1))
    adj = 1.0 - np.eye(4)
    topo = CommTopology(adj)
    from attsync.topology import neighborhood_aggregate

    for i in range(4):
        agg = neighborhood_aggregate(topo, i, fleet)
        e, _ = sync_error(fleet[i], np.zeros(3), signals_from(agg))
        assert np.abs(e).max() <= 1e-15


def test_filtered_error_values():
    assert np.array_equal(filtered_error(np.zeros(3), np.zeros(3), np.eye(3)), np.zeros(3))
    s = filtered_error([0.1, 0.0, 0.0], [0.0, 0.2, 0.0], np.eye(3))
    assert np.allclose(s, [0.1, 0.2, 0.0], atol=1e-15)
    # s = 0 with Lambda = I pins e_dot = -e
    e = RNG.normal(size=3)
    assert np.abs(filtered_error(e, -e, np.eye(3))).max() <= 1e-15
    lam = random_spd(RNG)
    e, e_dot = RNG.normal(size=3), RNG.normal(size=3)
    assert np.allclose(filtered_error(e, e_dot, lam), e_dot + lam @ e, atol=1e-14)


# ------------------------------------------------------------ control law


def test_torque_zero_cases():
    gains = GainSet.from_scalars(1.0, 3.0, 3.0)
    sigma = np.array([0.2, -0.1, 0.3])
    sigma_dot = mrp_rate(sigma, np.array([0.1, 0.2, -0.1]))
    # s = 0 (signals equal own state) and theta_hat = 0 kill both terms
    sig = signals_from(sigma, sigma_dot)
    e, e_dot = sync_error(sigma, sigma_dot, sig)
    u = torque(sigma, sigma_dot, sig, e, e_dot, np.zeros(6), gains)
    assert np.abs(u).max() <= 1e-15
    # at rest with zero signals the regressor arguments vanish for any theta_hat
    zero = np.zeros(3)
    sig = signals_from(zero, zero, zero)
    u = torque(zero, zero, sig, zero, zero, RNG.normal(size=6), gains)
    assert np.abs(u).max() <= 1e-15


def test_torque_linear_in_theta_hat():
    gains = GainSet(random_spd(RNG), random_spd(RNG), np.diag(RNG.uniform(1, 3, 6)))
    sigma, omega = RNG.normal(size=3) * 0.3, RNG.normal(size=3)
    sigma_dot = mrp_rate(sigma, omega)
    sig = signals_from(RNG.normal(size=3) * 0.3, RNG.normal(size=3) * 0.2, RNG.normal(size=3) * 0.1)
    e, e_dot = sync_error(sigma, sigma_dot, sig)

    def u(th):
        return torque(sigma, sigma_dot, sig, e, e_dot, th, gains)

    a, b = RNG.normal(size=6), RNG.normal(size=6)
    lhs = u(2.0 * a - 3.0 * b)
    rhs = 2.0 * u(a) - 3.0 * u(b) + 2.0 * u(np.zeros(6))
    assert np.abs(lhs - rhs).max() <= 1e-10 * (1 + np.abs(rhs).max())


def test_adaptation_rate_matches_regressor_product():
    gains = GainSet.from_scalars(1.0, 3.0, 3.0)
    sigma, omega = RNG.normal(size=3) * 0.3, RNG.normal(size=3)
    sigma_dot = mrp_rate(sigma, omega)
    sig = signals_from(RNG.normal(size=3) * 0.3, RNG.normal(size=3) * 0.2, RNG.normal(size=3) * 0.1)
    e, e_dot = sync_error(sigma, sigma_dot, sig)
    s = filtered_error(e, e_dot, gains.Lambda)
    v_r = sig.sigma_d_dot - gains.Lambda @ e
    a_r = sig.sigma_d_ddot - gains.Lambda @ e_dot
    y = regression(sigma, sigma_dot, v_r, a_r)
    want = -3.0 * (y.T @ s)
    got = controller_outputs(sigma, sigma_dot, sig, e, e_dot, np.zeros(6), gains)[2]
    assert np.allclose(got, want, atol=1e-13)
    # s = 0 (e_dot = -Lambda e) silences adaptation regardless of the state
    zero_rate = controller_outputs(sigma, sigma_dot, sig, e, -e, np.zeros(6), gains)[2]
    assert np.array_equal(zero_rate, np.zeros(6))


def test_controller_outputs_match_separate_calls():
    # u = G^T (Y theta_hat - K s) and theta_hat_dot = -Gamma Y^T s, with Y
    # from the `regression` oracle and s from `filtered_error`
    gains = GainSet(random_spd(RNG), random_spd(RNG), np.diag(RNG.uniform(1, 3, 6)))
    sigma, omega = RNG.normal(size=3) * 0.3, RNG.normal(size=3)
    sigma_dot = mrp_rate(sigma, omega)
    sig = signals_from(RNG.normal(size=3) * 0.3, RNG.normal(size=3) * 0.2, RNG.normal(size=3) * 0.1)
    e, e_dot = sync_error(sigma, sigma_dot, sig)
    theta_hat = RNG.normal(size=6)
    u, s, th_dot = controller_outputs(sigma, sigma_dot, sig, e, e_dot, theta_hat, gains)
    want_s = filtered_error(e, e_dot, gains.Lambda)
    y = regression(sigma, sigma_dot, sig.sigma_d_dot - gains.Lambda @ e,
                   sig.sigma_d_ddot - gains.Lambda @ e_dot)
    want_u = kinematics_matrix(sigma).T @ (y @ theta_hat - gains.K @ want_s)
    assert np.array_equal(s, want_s)
    assert np.allclose(u, want_u, atol=1e-12)
    assert np.allclose(th_dot, -np.diag(gains.Gamma) * (y.T @ want_s), atol=1e-12)


def test_controller_single_arithmetic_path_for_both_modes():
    # the torque has no mode switch: identical inputs give identical bytes,
    # however the aggregates were produced upstream
    gains = GainSet.from_scalars(1.0, 3.0, 3.0)
    sigma, omega = RNG.normal(size=3) * 0.3, RNG.normal(size=3)
    sigma_dot = mrp_rate(sigma, omega)
    agg = (RNG.normal(size=3) * 0.3, RNG.normal(size=3) * 0.2, RNG.normal(size=3) * 0.1)
    theta_hat = RNG.normal(size=6)
    results = []
    for _ in range(2):
        sig = NeighborhoodSignals(*(a.copy() for a in agg))
        e, e_dot = sync_error(sigma, sigma_dot, sig)
        results.append(torque(sigma, sigma_dot, sig, e, e_dot, theta_hat, gains))
    assert np.array_equal(results[0], results[1])


def closed_loop_s_dot(j, sigma, omega, u, signals, lam):
    """ds/dt from the plant: rigid-body dynamics driven by torque u."""
    sigma_dot = mrp_rate(sigma, omega)
    omega_dot = np.linalg.solve(j, u - np.cross(omega, j @ omega))
    g = kinematics_matrix(sigma)
    g_dot = kinematics_matrix_dot(sigma, sigma_dot)
    sigma_ddot = g_dot @ omega + g @ omega_dot
    e_dot = sigma_dot - signals.sigma_d_dot
    e_ddot = sigma_ddot - signals.sigma_d_ddot
    return e_ddot + lam @ e_dot


def test_perfect_knowledge_closed_loop_cancellation():
    # with theta_hat = theta the filtered-error dynamics reduce to
    # H* s_dot + C* s + K s = 0 at every state
    gains = GainSet.from_scalars(1.0, 3.0, 3.0)
    for j_mat in (FLEET_J[0], FLEET_J[3], np.diag([1.0, 2.0, 3.0])):
        theta = InertiaParams.from_matrix(j_mat).theta
        for _ in range(20):
            sigma = RNG.normal(size=3) * 0.4
            omega = RNG.normal(size=3) * 0.5
            sigma_dot = mrp_rate(sigma, omega)
            sig = signals_from(
                RNG.normal(size=3) * 0.4, RNG.normal(size=3) * 0.3, RNG.normal(size=3) * 0.2
            )
            e, e_dot = sync_error(sigma, sigma_dot, sig)
            s = filtered_error(e, e_dot, gains.Lambda)
            u = torque(sigma, sigma_dot, sig, e, e_dot, theta, gains)
            s_dot = closed_loop_s_dot(j_mat, sigma, omega, u, sig, gains.Lambda)
            h = h_star(j_mat, sigma)
            c = c_star(j_mat, sigma, sigma_dot)
            residual = h @ s_dot + c @ s + gains.K @ s
            scale = 1.0 + np.abs(h @ s_dot).max() + np.abs(gains.K @ s).max()
            assert np.abs(residual).max() <= 1e-8 * scale


def test_estimation_error_closed_loop_residual():
    # with theta_hat != theta the same dynamics carry the regressor mismatch:
    # H* s_dot + C* s + K s + Y (theta - theta_hat) = 0
    gains = GainSet.from_scalars(1.0, 3.0, 3.0)
    j_mat = FLEET_J[1]
    theta = InertiaParams.from_matrix(j_mat).theta
    for _ in range(20):
        theta_hat = theta + RNG.normal(size=6)
        sigma = RNG.normal(size=3) * 0.4
        omega = RNG.normal(size=3) * 0.5
        sigma_dot = mrp_rate(sigma, omega)
        sig = signals_from(
            RNG.normal(size=3) * 0.4, RNG.normal(size=3) * 0.3, RNG.normal(size=3) * 0.2
        )
        e, e_dot = sync_error(sigma, sigma_dot, sig)
        s = filtered_error(e, e_dot, gains.Lambda)
        u = torque(sigma, sigma_dot, sig, e, e_dot, theta_hat, gains)
        s_dot = closed_loop_s_dot(j_mat, sigma, omega, u, sig, gains.Lambda)
        v_r = sig.sigma_d_dot - gains.Lambda @ e
        a_r = sig.sigma_d_ddot - gains.Lambda @ e_dot
        y = regression(sigma, sigma_dot, v_r, a_r)
        residual = (
            h_star(j_mat, sigma) @ s_dot
            + c_star(j_mat, sigma, sigma_dot) @ s
            + gains.K @ s
            + y @ (theta - theta_hat)
        )
        assert np.abs(residual).max() <= 1e-8 * (1 + np.abs(y @ (theta - theta_hat)).max())


def test_fleet_stacked_evaluation_matches_per_craft():
    # one stacked call through the same functions equals six scalar calls
    n = 6
    lam = np.stack([random_spd(RNG) for _ in range(n)])
    k = np.stack([random_spd(RNG) for _ in range(n)])
    gam = np.stack([np.diag(RNG.uniform(1, 4, 6)) for _ in range(n)])
    gains = GainSet(lam, k, gam)
    sigma = RNG.normal(size=(n, 3)) * 0.3
    omega = RNG.normal(size=(n, 3))
    sigma_dot = mrp_rate(sigma, omega)
    sig = NeighborhoodSignals(
        RNG.normal(size=(n, 3)) * 0.3,
        RNG.normal(size=(n, 3)) * 0.2,
        RNG.normal(size=(n, 3)) * 0.1,
    )
    theta_hat = RNG.normal(size=(n, 6))
    e, e_dot = sync_error(sigma, sigma_dot, sig)
    u, s, th_dot = controller_outputs(sigma, sigma_dot, sig, e, e_dot, theta_hat, gains)
    for i in range(n):
        gi = GainSet(lam[i], k[i], gam[i])
        sig_i = NeighborhoodSignals(sig.sigma_d[i], sig.sigma_d_dot[i], sig.sigma_d_ddot[i])
        ei, ei_dot = sync_error(sigma[i], sigma_dot[i], sig_i)
        ui, si, ti = controller_outputs(sigma[i], sigma_dot[i], sig_i, ei, ei_dot, theta_hat[i], gi)
        assert np.allclose(u[i], ui, atol=1e-12)
        assert np.allclose(s[i], si, atol=1e-12)
        assert np.allclose(th_dot[i], ti, atol=1e-12)


def test_lyapunov_value_oracle():
    # sigma = 0, omega = [4,0,0]: G(0) = I/4 so sigma_dot = [1,0,0]; a
    # constant zero reference makes s = [1,0,0]; H*(0) = 16 J = 16 I, and
    # with theta_hat = theta the estimate term drops out: the logged
    # V(0) = 8 exactly.
    sc = single_craft_scenario(j=np.eye(3), sigma0=(0.0, 0.0, 0.0),
                               omega0=(4.0, 0.0, 0.0), sigma_ref=(0.0, 0.0, 0.0),
                               perfect=True, duration=0.005)
    assert Simulation(sc).run().lyapunov[0] == 8.0
