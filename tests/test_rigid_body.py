"""Rigid-body layer: inertia handling, dynamics, transformed matrices."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from attsync.attmath import kinematics_matrix, mat_vec, skew, theta_from_inertia
from attsync.rigid_body import (
    InertiaParams,
    SpacecraftState,
    angular_acceleration,
    h_star,
    mrp_rate,
    regression,
)
from tests.conftest import attitudes, inertias, rates
from tests.oracles import c_star, mrp_acceleration

RNG = np.random.default_rng(7)


def random_spd(rng, scale=1.0):
    a = rng.normal(size=(3, 3))
    return scale * (a @ a.T + 3 * np.eye(3))


def test_inertia_params_round_trip():
    j = random_spd(RNG)
    p = InertiaParams(j)
    assert np.allclose(p.matrix, j, atol=1e-14)
    assert np.allclose(p.theta, theta_from_inertia(j), atol=1e-14)


def test_inertia_params_rejects_bad_matrices():
    with pytest.raises(ValueError):
        InertiaParams(np.array([[1.0, 0.5, 0.0],
                                            [0.4, 1.0, 0.0],
                                            [0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError):
        InertiaParams(-np.eye(3))
    # symmetric and indefinite although its (1,1) entry is positive
    with pytest.raises(ValueError, match="positive definite"):
        InertiaParams(np.array([[1.0, 2.0, 0.0],
                                [2.0, 1.0, 0.0],
                                [0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError, match="must be 3x3"):
        InertiaParams(np.eye(2))
    with pytest.raises(ValueError, match="must be finite"):
        InertiaParams(np.diag([1.0, np.inf, 1.0]))


def test_spacecraft_state_shapes():
    st = SpacecraftState(np.zeros(3), np.zeros(3))
    assert st.sigma.shape == (3,) and st.omega.shape == (3,)
    with pytest.raises(ValueError):
        SpacecraftState(np.zeros(4), np.zeros(3))
    with pytest.raises(ValueError, match="must be finite"):
        SpacecraftState(np.zeros(3), [0.0, np.nan, 0.0])


def test_angular_acceleration_example():
    inertia = InertiaParams(np.diag([1.0, 2.0, 3.0]))
    got = angular_acceleration(inertia.matrix, np.linalg.inv(inertia.matrix),
                               np.array([1.0, 1.0, 1.0]), np.zeros(3))
    assert np.allclose(got, [-1.0, 1.0, -1.0 / 3.0], atol=1e-12)


@given(st.lists(st.tuples(inertias, rates, rates), min_size=1, max_size=4))
def test_angular_acceleration_with_the_inverse_matches_a_solve(craft):
    # omega_dot from J^-1 formed once equals solving J omega_dot = rhs, for a
    # single craft and for a stack
    j = np.stack([inertia.matrix for inertia, _, _ in craft])
    omega, torque = (np.stack(v) for v in list(zip(*craft))[1:])
    rhs = torque - mat_vec(skew(omega), mat_vec(j, omega))
    want = np.linalg.solve(j, rhs[..., None])[..., 0]
    got = angular_acceleration(j, np.linalg.inv(j), omega, torque)
    single = angular_acceleration(j[0], np.linalg.inv(j[0]), omega[0], torque[0])
    for g, w in ((got, want), (single, want[0])):
        assert np.all(np.linalg.norm(g - w, axis=-1) <= 1e-12 * np.linalg.norm(w, axis=-1))


def test_angular_acceleration_momentum_conservation():
    # torque-free: d/dt (J w) = -w x (J w), so |J w| is constant
    inertia = InertiaParams(random_spd(RNG))
    j = inertia.matrix
    w = RNG.normal(size=3)
    wdot = angular_acceleration(j, np.linalg.inv(j), w, np.zeros(3))
    dh = j @ wdot + np.cross(w, j @ w)
    assert np.allclose(dh, 0.0, atol=1e-12)


def test_mrp_rate_is_kinematics_column():
    got = mrp_rate(np.array([0.1, 0.3, 0.5]), np.array([1.0, 0.0, 0.0]))
    assert np.allclose(got, [0.1675, -0.235, 0.175], atol=1e-12)
    sigma = RNG.uniform(-1, 1, 3)
    omega = RNG.normal(size=3)
    assert np.allclose(mrp_rate(sigma, omega),
                       kinematics_matrix(sigma) @ omega, atol=1e-14)


def test_h_star_identity_inertia_at_origin():
    inertia = InertiaParams(np.eye(3))
    assert np.allclose(h_star(inertia.matrix, np.zeros(3)), 16.0 * np.eye(3),
                       atol=1e-12)


def test_h_star_symmetric_positive_definite():
    for _ in range(100):
        inertia = InertiaParams(random_spd(RNG))
        sigma = RNG.uniform(-1.2, 1.2, 3)
        h = h_star(inertia.matrix, sigma)
        assert np.allclose(h, h.T, atol=1e-10)
        np.linalg.cholesky(h)  # raises if not positive definite


@given(inertias, attitudes, rates, rates)
def test_c_star_skew_property(inertia, sigma, sigma_dot, x):
    # x^T (dH*/dt - 2 C*) x = 0 along any trajectory direction; H* varies on
    # the scale 1 + |sigma|, so the five-point difference step follows it
    h = 1e-4 * (1.0 + np.linalg.norm(sigma)) / np.linalg.norm(sigma_dot)
    at = [h_star(inertia.matrix, sigma + k * h * sigma_dot) for k in (-2, -1, 1, 2)]
    hdot = (at[0] - 8.0 * at[1] + 8.0 * at[2] - at[3]) / (12.0 * h)
    c = c_star(inertia.matrix, sigma, sigma_dot)
    val = x @ (hdot - 2.0 * c) @ x
    assert abs(val) <= 1e-10 * (x @ x) * (np.linalg.norm(hdot) + 2.0 * np.linalg.norm(c))


@given(inertias, attitudes, rates, rates, rates)
def test_regression_matches_matrix_form(inertia, sigma, sigma_dot, v_r, a_r):
    y = regression(sigma, sigma_dot, kinematics_matrix(sigma), v_r, a_r)
    h, c = h_star(inertia.matrix, sigma), c_star(inertia.matrix, sigma, sigma_dot)
    want = h @ a_r + c @ v_r
    scale = np.linalg.norm(h) * np.linalg.norm(a_r) + np.linalg.norm(c) * np.linalg.norm(v_r)
    assert np.linalg.norm(y @ inertia.theta - want) <= 1e-14 * scale


def test_mrp_acceleration_consistent_with_rate():
    inertia = InertiaParams(random_spd(RNG))
    sigma = RNG.uniform(-0.8, 0.8, 3)
    omega = RNG.normal(size=3)
    torque = RNG.normal(size=3)
    got = mrp_acceleration(inertia.matrix, sigma, omega, torque)
    h = 1e-7
    # advance sigma and omega with their own derivatives and difference
    j = inertia.matrix
    sdot = mrp_rate(sigma, omega)
    wdot = angular_acceleration(j, np.linalg.inv(j), omega, torque)
    fd = (mrp_rate(sigma + h * sdot, omega + h * wdot)
          - mrp_rate(sigma - h * sdot, omega - h * wdot)) / (2 * h)
    assert np.allclose(got, fd, atol=1e-6)
