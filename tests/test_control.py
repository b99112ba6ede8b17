"""Adaptive synchronization/tracking control laws and reference profiles."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from attsync.attmath import (
    inertia_from_theta,
    kinematics_matrix,
    kinematics_matrix_dot,
    kinematics_matrix_inverse,
    mat_vec,
    skew,
)
from attsync.control import (
    GainSet,
    ReferenceTrajectory,
    controller_outputs,
    sync_error,
)
from attsync.rigid_body import InertiaParams, h_star, mrp_rate, regression
from attsync.simulator import Simulation
from attsync.topology import CommTopology, aggregate_weights
from tests.conftest import FLEET_J, PAPER_GAINS, attitudes, single_craft_scenario
from tests.oracles import c_star, filtered_error

RNG = np.random.default_rng(5)


def random_spd(rng):
    m = rng.normal(size=(3, 3))
    return m @ m.T + 3.0 * np.eye(3)


def law(sigma, omega, agg, theta_hat, gains):
    """controller_outputs at the state (sigma, omega) and the aggregate
    agg = (sigma_d, sigma_d_dot, sigma_d_ddot), with sigma_dot = G omega."""
    g = kinematics_matrix(sigma)
    return controller_outputs(sigma, mat_vec(g, omega), omega, g, *agg, theta_hat, gains)


def torque(sigma, omega, agg, theta_hat, gains):
    return law(sigma, omega, agg, theta_hat, gains)[0]


def random_aggregate(rng, scale=(0.3, 0.2, 0.1)):
    return tuple(rng.normal(size=3) * c for c in scale)


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


def test_gain_set_single_and_stacks():
    g = GainSet(np.eye(3), 3.0 * np.eye(3), 3.0 * np.eye(6))
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
    g = GainSet(np.eye(3), np.eye(3), np.eye(6))
    with pytest.raises(ValueError):
        g.K[0, 0] = 5.0


# ------------------------------------------------- reference trajectories


def test_reference_is_immutable():
    # the vectors a reference stores or hands out are shared by every call
    const = ReferenceTrajectory("constant", value=[0.1, 0.3, 0.5])
    sine = ReferenceTrajectory("sinusoid", amplitude=[0.1, 0.2, 0.3], frequency=1.0,
                               phase=0.5, offset=0.1)
    shared = list(const.at(0.0)) + [sine.amplitude, sine.frequency, sine.phase, sine.offset]
    for x in shared:
        with pytest.raises(ValueError):
            x[0] = 9.0
    assert np.array_equal(const.at(1.0)[0], [0.1, 0.3, 0.5])
    assert np.array_equal(const.at(1.0)[1], np.zeros(3))


def test_reference_constant():
    ref = ReferenceTrajectory("constant", value=[0.1, 0.3, 0.5])
    for t in (0.0, 1.7, 40.0):
        sigma_r, rate, accel = ref.at(t)
        assert np.array_equal(sigma_r, [0.1, 0.3, 0.5])
        assert np.array_equal(rate, np.zeros(3))
        assert np.array_equal(accel, np.zeros(3))


def test_reference_sinusoid_zero_amplitude_is_constant():
    ref = ReferenceTrajectory("sinusoid", amplitude=0.0, frequency=1.0,
                              offset=[0.2, -0.1, 0.0])
    sigma_r, rate, accel = ref.at(3.3)
    assert np.allclose(sigma_r, [0.2, -0.1, 0.0], atol=1e-15)
    assert np.array_equal(rate, np.zeros(3))
    assert np.array_equal(accel, np.zeros(3))


def test_reference_sinusoid_derivatives_match_central_differences():
    ref = ReferenceTrajectory("sinusoid", amplitude=[0.2, 0.1, 0.3],
                              frequency=[0.5, 1.0, 0.7], phase=[0.0, 0.4, 1.0], offset=0.05)
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
    with pytest.raises(ValueError, match="unknown reference kind 'spline'"):
        ReferenceTrajectory(kind="spline")
    with pytest.raises(ValueError, match="^sinusoid reference requires frequency$"):
        ReferenceTrajectory(kind="sinusoid", amplitude=[0.1, 0.1, 0.1])
    # a field the kind does not read is refused, not kept unchecked
    with pytest.raises(ValueError, match="^a constant reference takes no amplitude$"):
        ReferenceTrajectory("constant", value=[0.1, 0.0, 0.0], amplitude="big")
    with pytest.raises(ValueError, match="^a sinusoid reference takes no value$"):
        ReferenceTrajectory("sinusoid", amplitude=0.1, frequency=1.0, value=[9, 9, 9])
    assert set(ReferenceTrajectory.KINDS) == {"constant", "sinusoid"}
    with pytest.raises(ValueError):
        ReferenceTrajectory("constant", value=[np.nan, 0.0, 0.0])


# ------------------------------------------------------ error definitions


def test_sync_error_definitions():
    sigma = np.array([0.3, -0.2, 0.4])
    sigma_dot = np.array([0.1, 0.0, -0.1])
    e, e_dot = sync_error(sigma, sigma_dot, sigma, sigma_dot)
    assert np.array_equal(e, np.zeros(3))
    assert np.array_equal(e_dot, np.zeros(3))
    # single-neighbor node: the aggregate is the neighbor itself
    other = np.array([0.1, 0.1, 0.1])
    e, _ = sync_error(sigma, sigma_dot, other, np.zeros(3))
    assert np.array_equal(e, sigma - other)


def test_sync_error_vanishes_at_consensus():
    common = RNG.normal(size=3)
    fleet = np.tile(common, (4, 1))
    adj = 1.0 - np.eye(4)
    w = aggregate_weights(CommTopology(adj))
    for i in range(4):
        agg = w[i] @ fleet
        e, _ = sync_error(fleet[i], np.zeros(3), agg, np.zeros(3))
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
    gains = PAPER_GAINS
    sigma, omega = np.array([0.2, -0.1, 0.3]), np.array([0.1, 0.2, -0.1])
    sigma_dot = mrp_rate(sigma, omega)
    zero = np.zeros(3)
    # s = 0 (aggregate equal to own state) and theta_hat = 0 kill both terms
    u = torque(sigma, omega, (sigma, sigma_dot, zero), np.zeros(6), gains)
    assert np.abs(u).max() <= 1e-15
    # at rest with a zero aggregate the regressor arguments vanish for any theta_hat
    u = torque(zero, zero, (zero, zero, zero), RNG.normal(size=6), gains)
    assert np.abs(u).max() <= 1e-15
    # s = 0 with e != 0 (e_dot = -Lambda e, exact in binary) silences adaptation
    sigma, sigma_dot = np.array([0.5, -0.25, 0.125]), np.array([0.5, 0.5, 0.5])
    agg = (np.full(3, 0.25), np.array([0.75, 0.0, 0.375]), RNG.normal(size=3))
    u, e, s, theta_dot = controller_outputs(
        sigma, sigma_dot, kinematics_matrix_inverse(sigma) @ sigma_dot,
        kinematics_matrix(sigma), *agg, np.zeros(6), PAPER_GAINS)
    assert np.array_equal(e, [0.25, -0.5, -0.125]) and np.array_equal(s, zero)
    assert np.array_equal(u, zero) and np.array_equal(theta_dot, np.zeros(6))


def test_torque_linear_in_theta_hat():
    gains = GainSet(random_spd(RNG), random_spd(RNG), np.diag(RNG.uniform(1, 3, 6)))
    sigma, omega = RNG.normal(size=3) * 0.3, RNG.normal(size=3)
    agg = random_aggregate(RNG)

    def u(th):
        return torque(sigma, omega, agg, th, gains)

    a, b = RNG.normal(size=6), RNG.normal(size=6)
    lhs = u(2.0 * a - 3.0 * b)
    rhs = 2.0 * u(a) - 3.0 * u(b) + 2.0 * u(np.zeros(6))
    assert np.abs(lhs - rhs).max() <= 1e-10 * (1 + np.abs(rhs).max())


def spd_stacks(n):
    """(n, 3, 3) symmetric positive definite matrices, eigenvalues >= 0.5."""
    return arrays(float, (n, 3, 3), elements=st.floats(-1.0, 1.0)).map(
        lambda m: m @ np.swapaxes(m, -1, -2) + 0.5 * np.eye(3))


@st.composite
def fleet_control_inputs(draw):
    n = draw(st.integers(1, 4))
    # |sigma| spread log-uniformly over [1e-3, 1e3]
    sigma = np.stack([draw(attitudes) for _ in range(n)])
    vectors = arrays(float, (n, 3), elements=st.floats(-1.0, 1.0))
    omega, sigma_d, sigma_d_dot, sigma_d_ddot = (draw(vectors) for _ in range(4))
    theta_hat = draw(arrays(float, (n, 6), elements=st.floats(-2.0, 2.0)))
    gamma = draw(arrays(float, (n, 6), elements=st.floats(0.5, 3.0)))
    gains = GainSet(draw(spd_stacks(n)), draw(spd_stacks(n)),
                    gamma[:, :, None] * np.eye(6))
    return sigma, omega, sigma_d, sigma_d_dot, sigma_d_ddot, theta_hat, gains


# dJ/dtheta_p for each packed inertia entry p: Y's column p is H* a + C* v at that J
UNIT_INERTIAS = inertia_from_theta(np.eye(6))


def regressor_oracle(sigma, sigma_dot, v_r, a_r):
    """Y from the H* and C* oracles, and the same sums taken over absolute
    values: the size of the terms summed into each entry of Y."""
    y = (mat_vec(h_star(UNIT_INERTIAS, sigma), a_r)
         + mat_vec(c_star(UNIT_INERTIAS, sigma, sigma_dot), v_r)).T
    gi = np.abs(kinematics_matrix_inverse(sigma))
    gjg = gi.T @ UNIT_INERTIAS @ gi
    spin = np.abs(skew(mat_vec(UNIT_INERTIAS, gi @ np.abs(sigma_dot))))
    c_abs = gjg @ np.abs(kinematics_matrix_dot(sigma, sigma_dot)) @ gi + gi.T @ spin @ gi
    return y, (mat_vec(gjg, np.abs(a_r)) + mat_vec(c_abs, np.abs(v_r))).T


@settings(deadline=None, max_examples=200)
@given(fleet_control_inputs())
def test_controller_outputs_match_separate_calls(inputs):
    # one stacked call equals per-craft calls, and each craft's outputs equal
    # the MRP-space law composed from oracles: e = sigma - sigma_d, s from
    # `filtered_error`, Y column by column from the H* and C* oracles,
    # u = G^T (Y theta_hat - K s) and theta_hat_dot = -Gamma Y^T s
    sigma, omega, sd, sd_dot, sd_ddot, theta_hat, gains = inputs
    g = kinematics_matrix(sigma)
    sigma_dot = mat_vec(g, omega)
    stacked = controller_outputs(sigma, sigma_dot, omega, g, *inputs[2:])
    for i in range(sigma.shape[0]):
        lam, k = gains.Lambda[i], gains.K[i]
        gi = GainSet(lam, k, gains.Gamma[i])
        single = controller_outputs(sigma[i], sigma_dot[i], omega[i], g[i],
                                    sd[i], sd_dot[i], sd_ddot[i], theta_hat[i], gi)
        e, e_dot = sigma[i] - sd[i], sigma_dot[i] - sd_dot[i]
        s = filtered_error(e, e_dot, lam)
        v_r, a_r = sd_dot[i] - lam @ e, sd_ddot[i] - lam @ e_dot
        y, y_abs = regressor_oracle(sigma[i], sigma_dot[i], v_r, a_r)
        want_u = g[i].T @ (y @ theta_hat[i] - k @ s)
        want_th = -gains.gamma_diag[i] * (y.T @ s)
        # tolerances scale with the magnitudes summed into each component; the
        # floor covers subnormal intermediates, which keep no relative precision
        u_scale = np.abs(g[i].T) @ (y_abs @ np.abs(theta_hat[i]) + np.abs(k) @ np.abs(s))
        th_scale = gains.gamma_diag[i] * (y_abs.T @ np.abs(s))
        u_tol, th_tol = 1e-9 * u_scale + 1e-300, 1e-9 * th_scale + 1e-300
        for got in (single, tuple(x[i] for x in stacked)):
            u, e_got, s_got, th_dot = got
            assert np.array_equal(e_got, e)
            np.testing.assert_allclose(s_got, s, rtol=0.0, atol=1e-14 * (1 + np.abs(s).max()))
            assert np.all(np.abs(u - want_u) <= u_tol)
            assert np.all(np.abs(th_dot - want_th) <= th_tol)


def test_controller_single_arithmetic_path_for_both_modes():
    # the torque has no mode switch: identical inputs give identical bytes,
    # however the aggregates were produced upstream
    gains = PAPER_GAINS
    sigma, omega = RNG.normal(size=3) * 0.3, RNG.normal(size=3)
    agg = random_aggregate(RNG)
    theta_hat = RNG.normal(size=6)
    results = [torque(sigma, omega, tuple(a.copy() for a in agg), theta_hat, gains)
               for _ in range(2)]
    assert np.array_equal(results[0], results[1])


def closed_loop_s_dot(j, sigma, omega, u, agg, lam):
    """ds/dt from the plant: rigid-body dynamics driven by torque u."""
    _, sigma_d_dot, sigma_d_ddot = agg
    sigma_dot = mrp_rate(sigma, omega)
    omega_dot = np.linalg.solve(j, u - np.cross(omega, j @ omega))
    g = kinematics_matrix(sigma)
    g_dot = kinematics_matrix_dot(sigma, sigma_dot)
    sigma_ddot = g_dot @ omega + g @ omega_dot
    e_dot = sigma_dot - sigma_d_dot
    e_ddot = sigma_ddot - sigma_d_ddot
    return e_ddot + lam @ e_dot


def test_perfect_knowledge_closed_loop_cancellation():
    # with theta_hat = theta the filtered-error dynamics reduce to
    # H* s_dot + C* s + K s = 0 at every state
    gains = PAPER_GAINS
    for j_mat in (FLEET_J[0], FLEET_J[3], np.diag([1.0, 2.0, 3.0])):
        theta = InertiaParams(j_mat).theta
        for _ in range(20):
            sigma = RNG.normal(size=3) * 0.4
            omega = RNG.normal(size=3) * 0.5
            sigma_dot = mrp_rate(sigma, omega)
            agg = random_aggregate(RNG, (0.4, 0.3, 0.2))
            u, _, s, _ = law(sigma, omega, agg, theta, gains)
            s_dot = closed_loop_s_dot(j_mat, sigma, omega, u, agg, gains.Lambda)
            h = h_star(j_mat, sigma)
            c = c_star(j_mat, sigma, sigma_dot)
            residual = h @ s_dot + c @ s + gains.K @ s
            scale = 1.0 + np.abs(h @ s_dot).max() + np.abs(gains.K @ s).max()
            assert np.abs(residual).max() <= 1e-8 * scale


def test_estimation_error_closed_loop_residual():
    # with theta_hat != theta the same dynamics carry the regressor mismatch:
    # H* s_dot + C* s + K s + Y (theta - theta_hat) = 0
    gains = PAPER_GAINS
    j_mat = FLEET_J[1]
    theta = InertiaParams(j_mat).theta
    for _ in range(20):
        theta_hat = theta + RNG.normal(size=6)
        sigma = RNG.normal(size=3) * 0.4
        omega = RNG.normal(size=3) * 0.5
        sigma_dot = mrp_rate(sigma, omega)
        agg = random_aggregate(RNG, (0.4, 0.3, 0.2))
        u, e, s, _ = law(sigma, omega, agg, theta_hat, gains)
        s_dot = closed_loop_s_dot(j_mat, sigma, omega, u, agg, gains.Lambda)
        e_dot = sigma_dot - agg[1]
        v_r = agg[1] - gains.Lambda @ e
        a_r = agg[2] - gains.Lambda @ e_dot
        y = regression(sigma, sigma_dot, kinematics_matrix(sigma), v_r, a_r)
        residual = (
            h_star(j_mat, sigma) @ s_dot
            + c_star(j_mat, sigma, sigma_dot) @ s
            + gains.K @ s
            + y @ (theta - theta_hat)
        )
        assert np.abs(residual).max() <= 1e-8 * (1 + np.abs(y @ (theta - theta_hat)).max())


def test_lyapunov_value_oracle():
    # sigma = 0, omega = [4,0,0]: G(0) = I/4 so sigma_dot = [1,0,0]; a
    # constant zero reference makes s = [1,0,0]; H*(0) = 16 J = 16 I, and
    # with theta_hat = theta the estimate term drops out: the logged
    # V(0) = 8 exactly.
    sc = single_craft_scenario(j=np.eye(3), sigma0=(0.0, 0.0, 0.0),
                               omega0=(4.0, 0.0, 0.0), sigma_ref=(0.0, 0.0, 0.0),
                               perfect=True, duration=0.005)
    assert Simulation(sc).run().lyapunov[0] == 8.0
