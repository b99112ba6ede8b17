"""Attitude math: kinematics matrix, operators, parameter packing."""
import numpy as np
import pytest
from hypothesis import given

from attsync.attmath import (
    f_operator,
    inertia_from_theta,
    kinematics_matrix,
    kinematics_matrix_dot,
    kinematics_matrix_inverse,
    l_operator,
    mat_vec,
    mrp_from_axis_angle,
    mrp_shadow,
    skew,
    theta_from_inertia,
)
from tests.conftest import attitudes, directions

RNG = np.random.default_rng(42)


def random_spd(rng, n=3, scale=1.0):
    a = rng.normal(size=(n, n))
    return scale * (a @ a.T + n * np.eye(n))


def test_skew_is_cross_product():
    for _ in range(50):
        x, y = RNG.normal(size=(2, 3))
        assert np.allclose(skew(x) @ y, np.cross(x, y), atol=1e-14)
        assert np.allclose(skew(x), -skew(x).T)


def test_skew_stacks():
    xs = RNG.normal(size=(7, 3))
    ss = skew(xs)
    assert ss.shape == (7, 3, 3)
    for x, s in zip(xs, ss):
        assert np.array_equal(s, skew(x))


def test_kinematics_matrix_example():
    g = kinematics_matrix(np.array([0.1, 0.3, 0.5]))
    expected = np.array([
        [0.1675, 0.265, -0.125],
        [-0.235, 0.2075, 0.125],
        [0.175, 0.025, 0.2875],
    ])
    assert np.allclose(g, expected, atol=1e-12)
    # G G^T is a scaled identity at this attitude
    assert np.allclose(g @ g.T, 0.11390625 * np.eye(3), atol=1e-12)


@given(attitudes)
def test_kinematics_matrix_orthogonality_scaling(sigma):
    g = kinematics_matrix(sigma)
    scale = ((1.0 + sigma @ sigma) / 4.0) ** 2
    assert np.abs(g @ g.T - scale * np.eye(3)).max() <= 1e-14 * scale


def test_kinematics_matrix_inverse():
    assert np.allclose(kinematics_matrix_inverse(np.zeros(3)), 4.0 * np.eye(3),
                       atol=1e-14)
    for _ in range(200):
        sigma = RNG.uniform(-1.5, 1.5, 3)
        gi = kinematics_matrix_inverse(sigma)
        assert np.allclose(gi @ kinematics_matrix(sigma), np.eye(3), atol=1e-12)


def test_kinematics_matrix_dot_matches_differences():
    for _ in range(100):
        sigma = RNG.uniform(-1.0, 1.0, 3)
        sigma_dot = RNG.normal(size=3)
        h = 1e-6
        fd = (kinematics_matrix(sigma + h * sigma_dot)
              - kinematics_matrix(sigma - h * sigma_dot)) / (2 * h)
        assert np.allclose(kinematics_matrix_dot(sigma, sigma_dot), fd, atol=1e-6)


def test_l_operator_factors_inertia():
    j4 = np.array([[1.2, 0.3, 0.7], [0.3, 0.9, 0.2], [0.7, 0.2, 1.4]])
    got = l_operator(np.array([1.0, 2.0, 3.0])) @ theta_from_inertia(j4)
    assert np.allclose(got, [3.9, 2.7, 5.3], atol=1e-12)
    for _ in range(100):
        j = random_spd(RNG)
        a = RNG.normal(size=3)
        assert np.allclose(l_operator(a) @ theta_from_inertia(j), j @ a,
                           atol=1e-12)


def test_f_operator_factors_gyroscopic_term():
    for _ in range(100):
        j = random_spd(RNG)
        x, v = RNG.normal(size=(2, 3))
        got = f_operator(x, v) @ theta_from_inertia(j)
        assert np.allclose(got, skew(j @ x) @ v, atol=1e-12)


def test_theta_round_trip():
    for _ in range(50):
        j = random_spd(RNG)
        assert np.allclose(inertia_from_theta(theta_from_inertia(j)), j,
                           atol=1e-14)


def test_mrp_from_axis_angle():
    sigma = mrp_from_axis_angle([1.0, 0.0, 0.0], np.pi / 2)
    assert np.allclose(sigma, [np.tan(np.pi / 8), 0.0, 0.0], atol=1e-14)
    # the axis need not be unit length on input
    sigma2 = mrp_from_axis_angle([2.0, 0.0, 0.0], np.pi / 2)
    assert np.allclose(sigma, sigma2, atol=1e-14)


def test_mrp_shadow_properties():
    for _ in range(50):
        sigma = RNG.uniform(-1.5, 1.5, 3)
        if np.linalg.norm(sigma) < 1e-3:
            continue
        sh = mrp_shadow(sigma)
        assert np.isclose(np.linalg.norm(sh) * np.linalg.norm(sigma), 1.0,
                          atol=1e-12)
        assert np.allclose(mrp_shadow(sh), sigma, atol=1e-12)
    # on the unit sphere the shadow is the antipode
    u = np.array([0.6, 0.8, 0.0])
    assert np.allclose(mrp_shadow(u), -u, atol=1e-14)


@given(attitudes)
def test_mrp_shadow_is_an_involution_swapping_the_unit_ball(x):
    sh = mrp_shadow(x)
    r, r_sh = np.linalg.norm(x), np.linalg.norm(sh)
    assert np.allclose(mrp_shadow(sh), x, rtol=0.0, atol=1e-13 * r)
    assert abs(r * r_sh - 1.0) <= 1e-13
    if r < 1.0 - 1e-9:
        assert r_sh > 1.0
    if r > 1.0 + 1e-9:
        assert r_sh < 1.0


@given(attitudes, directions)
def test_mrp_shadow_rate_matches_central_difference(x, x_dot):
    r = np.linalg.norm(x)
    sh, sh_dot = mrp_shadow(x, x_dot)
    assert np.array_equal(sh, mrp_shadow(x))
    h = 1e-6 * r / np.linalg.norm(x_dot)
    fd = (mrp_shadow(x + h * x_dot) - mrp_shadow(x - h * x_dot)) / (2.0 * h)
    scale = np.linalg.norm(x_dot) / r ** 2  # |d shadow / dt| is at most this
    assert np.abs(fd - sh_dot).max() <= 1e-7 * scale


def test_mat_vec_broadcasts():
    ms = RNG.normal(size=(5, 3, 3))
    vs = RNG.normal(size=(5, 3))
    got = mat_vec(ms, vs)
    want = np.einsum("nij,nj->ni", ms, vs)
    assert np.allclose(got, want, atol=1e-14)
