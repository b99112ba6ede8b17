"""Attitude math: kinematics matrix, operators, parameter packing."""
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from attsync import simulator
from attsync.attmath import (
    f_operator,
    inertia_from_theta,
    inverse_from_kinematics,
    kinematics_matrix,
    kinematics_matrix_dot,
    kinematics_matrix_inverse,
    l_operator,
    mat_vec,
    mrp_shadow,
    skew,
    theta_from_inertia,
)
from attsync.rigid_body import InertiaParams
from tests import oracles
from tests.conftest import attitudes, directions, inertias, rates
from tests.oracles import mrp_from_axis_angle

RNG = np.random.default_rng(42)
norm = np.linalg.norm


@given(attitudes, rates)
def test_skew_is_cross_product(x, y):
    assert np.abs(skew(x) @ y - np.cross(x, y)).max() <= 1e-15 * norm(x) * norm(y)
    assert np.array_equal(skew(x), -skew(x).T)


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


@given(st.sampled_from([(), (4,), (2, 3)]), st.data())
def test_inverse_from_kinematics_inverts_g_in_either_layout(lead, data):
    # G^-1 = G^T / |row 0 of G|^2 from G alone, on stacks with 0, 1 and 2 leading
    # axes, C-contiguous and craft-contiguous as the simulator stores its fleet
    count = int(np.prod(lead))
    sigma = np.reshape(data.draw(st.lists(attitudes, min_size=count, max_size=count)),
                       lead + (3,))
    for layout in (np.ascontiguousarray, simulator._by_craft):
        g = layout(kinematics_matrix(layout(sigma)))
        inv = inverse_from_kinematics(g)
        assert np.abs(inv @ g - np.eye(3)).max() <= 4e-15
        ref = np.linalg.inv(g)
        size = np.abs(ref).max(axis=(-2, -1), keepdims=True)
        assert (np.abs(inv - ref) <= 1e-14 * size).all()


def test_kinematics_matrix_dot_matches_differences():
    for _ in range(100):
        sigma = RNG.uniform(-1.0, 1.0, 3)
        sigma_dot = RNG.normal(size=3)
        h = 1e-6
        fd = (kinematics_matrix(sigma + h * sigma_dot)
              - kinematics_matrix(sigma - h * sigma_dot)) / (2 * h)
        assert np.allclose(kinematics_matrix_dot(sigma, sigma_dot), fd, atol=1e-6)


@given(inertias, attitudes)
@example(InertiaParams(np.array([[1.2, 0.3, 0.7], [0.3, 0.9, 0.2], [0.7, 0.2, 1.4]])),
         np.array([1.0, 2.0, 3.0]))
def test_l_operator_factors_inertia(inertia, a):
    got = l_operator(a) @ inertia.theta
    scale = np.abs(inertia.theta).sum() * norm(a)
    assert np.abs(got - inertia.matrix @ a).max() <= 1e-15 * scale


@given(inertias, attitudes, rates)
def test_f_operator_factors_gyroscopic_term(inertia, x, v):
    got = f_operator(x, v) @ inertia.theta
    scale = np.abs(inertia.theta).sum() * norm(x) * norm(v)
    assert np.abs(got - np.cross(inertia.matrix @ x, v)).max() <= 1e-14 * scale


@given(inertias)
def test_theta_round_trip(inertia):
    j, theta = inertia.matrix, inertia.theta
    assert np.array_equal(inertia_from_theta(theta_from_inertia(j)), j)
    assert np.array_equal(theta_from_inertia(inertia_from_theta(theta)), theta)


# The kernels as they were written before the packing tables, one entry per
# line (theta order J11, J12, J13, J22, J23, J33): an independent statement
# of every layout, which the table-built kernels must match entry for entry.

def _entries(x):
    x = np.asarray(x)
    return x[..., 0], x[..., 1], x[..., 2]


def _skew_by_hand(x):
    x1, x2, x3 = _entries(x)
    out = np.zeros(x.shape[:-1] + (3, 3))
    out[..., 0, 1], out[..., 0, 2] = -x3, x2
    out[..., 1, 0], out[..., 1, 2] = x3, -x1
    out[..., 2, 0], out[..., 2, 1] = -x2, x1
    return out


def _l_operator_by_hand(a):
    a1, a2, a3 = _entries(a)
    out = np.zeros(a.shape[:-1] + (3, 6))
    out[..., 0, 0], out[..., 0, 1], out[..., 0, 2] = a1, a2, a3
    out[..., 1, 1], out[..., 1, 3], out[..., 1, 4] = a1, a2, a3
    out[..., 2, 2], out[..., 2, 4], out[..., 2, 5] = a1, a2, a3
    return out


def _f_operator_by_hand(x, v):
    x1, x2, x3 = _entries(x)
    v1, v2, v3 = _entries(v)
    out = np.zeros(np.broadcast(x1, v1).shape + (3, 6))
    out[..., 0, 1] = x1 * v3
    out[..., 0, 2] = -x1 * v2
    out[..., 0, 3] = x2 * v3
    out[..., 0, 4] = -x2 * v2 + x3 * v3
    out[..., 0, 5] = -x3 * v2
    out[..., 1, 0] = -x1 * v3
    out[..., 1, 1] = -x2 * v3
    out[..., 1, 2] = x1 * v1 - x3 * v3
    out[..., 1, 4] = x2 * v1
    out[..., 1, 5] = x3 * v1
    out[..., 2, 0] = x1 * v2
    out[..., 2, 1] = -x1 * v1 + x2 * v2
    out[..., 2, 2] = x3 * v2
    out[..., 2, 3] = -x2 * v1
    out[..., 2, 4] = -x3 * v1
    return out


def _inertia_by_hand(theta):
    out = np.zeros(theta.shape[:-1] + (3, 3))
    out[..., 0, 0] = theta[..., 0]
    out[..., 0, 1] = out[..., 1, 0] = theta[..., 1]
    out[..., 0, 2] = out[..., 2, 0] = theta[..., 2]
    out[..., 1, 1] = theta[..., 3]
    out[..., 1, 2] = out[..., 2, 1] = theta[..., 4]
    out[..., 2, 2] = theta[..., 5]
    return out


thetas = inertias.map(lambda p: p.theta)


@st.composite
def stacks(draw):
    """(x, v, theta) stacks of one shape (B, N) with B in 1..3, N in 1..4."""
    b, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))

    def stack(elements):
        return np.reshape(draw(st.lists(elements, min_size=b * n, max_size=b * n)),
                          (b, n, -1))
    return stack(attitudes), stack(rates), stack(thetas)


@given(st.tuples(attitudes, rates, thetas) | stacks())
def test_kernels_match_hand_written_entries(args):
    x, v, theta = args
    j = _inertia_by_hand(theta)
    assert np.array_equal(skew(x), _skew_by_hand(x))
    assert np.array_equal(l_operator(x), _l_operator_by_hand(x))
    assert np.array_equal(f_operator(x, v), _f_operator_by_hand(x, v))
    assert np.array_equal(inertia_from_theta(theta), j)
    assert np.array_equal(theta_from_inertia(j), theta)


@st.composite
def laid_out(draw):
    """(x, v, theta) from conftest's strategies with 0, 1 or 2 leading axes, C-contiguous
    or craft-contiguous (the transpose of a C-contiguous array), as the simulator
    stores its fleet."""
    lead = draw(st.sampled_from([(), (1,), (4,), (2, 3), (3, 1)]))
    count = int(np.prod(lead, dtype=int))
    craft = draw(st.booleans())

    def stack(elements):
        x = np.reshape(draw(st.lists(elements, min_size=count, max_size=count)), lead + (-1,))
        return np.ascontiguousarray(x.T).T if craft else x
    return stack(attitudes), stack(rates), stack(thetas)


@given(laid_out())
def test_table_kernels_equal_their_direct_forms_on_either_layout(args):
    # each entry sums at most two exact terms, so `table.T @ x.T` keeps the
    # bits of `x @ table`, and G and dG/dt those of 1/2 (iso - S + outer)
    x, v, theta = args
    for got, want in [(skew(x), oracles.skew_direct(x)),
                      (l_operator(x), oracles.l_operator_direct(x)),
                      (f_operator(x, v), oracles.f_operator_direct(x, v)),
                      (inertia_from_theta(theta), oracles.inertia_from_theta_direct(theta)),
                      (kinematics_matrix(x), oracles.kinematics_matrix_direct(x)),
                      (kinematics_matrix_dot(x, v),
                       oracles.kinematics_matrix_dot_direct(x, v))]:
        assert got.shape == want.shape and np.array_equal(got, want)


def test_kinematics_matrix_dot_broadcasts_its_two_inputs():
    # one attitude against a stack of rates, and a stack of attitudes against one rate
    sigma, rates_ = RNG.normal(size=(2, 3)), RNG.normal(size=(4, 2, 3))
    for a, b in [(sigma[0], rates_), (rates_, sigma[0]), (sigma, rates_)]:
        assert np.array_equal(kinematics_matrix_dot(a, b),
                              oracles.kinematics_matrix_dot_direct(a, b))
        assert np.array_equal(f_operator(a, b), oracles.f_operator_direct(a, b))


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
