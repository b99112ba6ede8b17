"""Dense attitude algebra for Modified Rodrigues Parameters.

Everything here is a small closed-form kernel: cross-product matrices, the
MRP kinematics matrix with its exact inverse and time derivative, and the
pair of linear operators that pull inertia terms out as a 6-vector of
parameters.  All kernels broadcast over leading axes, so one call evaluates
a whole fleet: sigma with shape (N, 3) yields (N, 3, 3).

Conventions fixed across the package:

* ``sigma = e_hat * tan(phi / 4)`` for Euler axis ``e_hat`` and angle
  ``phi``; the parameterization is singular at ``phi = +/- 2*pi``.
* Inertia packing order ``theta = [J11, J12, J13, J22, J23, J33]``, stated
  once as the index pair ``_ROW, _COL``: entry k of theta is
  ``J[_ROW[k], _COL[k]]``.

Every structured matrix (S, L, F and J(theta)) is one product of its
input with a constant table of 0/+-1 entries, built at import from the
packing order and the Levi-Civita symbol.  Each output entry sums at most
two nonzero terms, each an input entry (for F, a product of two) times
+-1, so its value does not depend on the order the product sums in.
"""

import numpy as np

_ROW, _COL = (0, 0, 0, 1, 1, 2), (0, 1, 2, 1, 2, 2)
_EYE = np.eye(3)

# Levi-Civita symbol eps[i, j, k]: +1 / -1 on even / odd permutations of
# (0, 1, 2), 0 on a repeated index
_i, _j, _k = np.ogrid[:3, :3, :3]
_EPS = (_i - _j) * (_j - _k) * (_k - _i) / 2.0

# _JK[p] is dJ / dtheta_p: a 1 at (_ROW[p], _COL[p]) and at its mirror
_JK = np.zeros((6, 3, 3))
_JK[range(6), _ROW, _COL] = _JK[range(6), _COL, _ROW] = 1.0

# flattened (input entries, output entries) tables of the kernels below
_SKEW = np.einsum("ikj->kij", _EPS).reshape(3, 9)        # S(x)_ij = eps_ikj x_k
_J = _JK.reshape(6, 9)                                   # J(theta) = theta @ _J
_L = np.einsum("pik->kip", _JK).reshape(3, 18)           # (J a)_i = J_ik a_k
# S(J x) v = -S(v) J x: entry i is eps_ijm v_m J_jk x_k, linear in v_m x_k
_F = np.einsum("ijm,pjk->mkip", _EPS, _JK).reshape(9, 18)


def mat_vec(m, v):
    """Matrix-vector product broadcasting over leading axes.

    ``m`` has shape (..., i, j), ``v`` shape (..., j); returns (..., i).
    """
    return np.einsum("...ij,...j->...i", m, v)


def skew(x):
    """Cross-product matrix S(x), with S(x) @ y == cross(x, y).

    Parameters
    ----------
    x : array_like, shape (..., 3)

    Returns
    -------
    ndarray, shape (..., 3, 3)
        Skew-symmetric; S(x) @ x == 0.
    """
    x = np.asarray(x, dtype=float)
    return (x @ _SKEW).reshape(x.shape[:-1] + (3, 3))


def kinematics_matrix(sigma):
    """Matrix G(sigma) mapping body rates to MRP rates, sigma_dot = G @ omega.

    G(sigma) = 1/2 * ((1 - sigma.sigma)/2 * I - S(sigma) + sigma sigma^T).

    Satisfies G @ G^T = ((1 + sigma.sigma)/4)^2 * I, so G is never singular
    and its inverse has the closed form used by `kinematics_matrix_inverse`.

    Parameters
    ----------
    sigma : array_like, shape (..., 3)

    Returns
    -------
    ndarray, shape (..., 3, 3)
    """
    sigma = np.asarray(sigma, dtype=float)
    ss = np.einsum("...i,...i->...", sigma, sigma)
    outer = sigma[..., :, None] * sigma[..., None, :]
    iso = np.asarray((1.0 - ss) / 2.0)[..., None, None] * _EYE
    return 0.5 * (iso - skew(sigma) + outer)


def kinematics_matrix_inverse(sigma):
    """Exact inverse of G(sigma): 16 / (1 + sigma.sigma)^2 * G(sigma)^T."""
    return inverse_from_kinematics(sigma, kinematics_matrix(sigma))


def inverse_from_kinematics(sigma, g):
    """G(sigma)^{-1} from g = G(sigma) already built, so G is formed once."""
    sigma = np.asarray(sigma, dtype=float)
    ss = np.einsum("...i,...i->...", sigma, sigma)
    scale = 16.0 / np.square(1.0 + ss)
    return np.asarray(scale)[..., None, None] * g.swapaxes(-1, -2)


def kinematics_matrix_dot(sigma, sigma_dot):
    """Time derivative of G along a trajectory with rate sigma_dot.

    dG/dt = 1/2 * (-(sigma.sigma_dot) I - S(sigma_dot)
                   + sigma_dot sigma^T + sigma sigma_dot^T).

    Parameters
    ----------
    sigma, sigma_dot : array_like, shape (..., 3)

    Returns
    -------
    ndarray, shape (..., 3, 3)
    """
    sigma = np.asarray(sigma, dtype=float)
    sigma_dot = np.asarray(sigma_dot, dtype=float)
    dot = np.einsum("...i,...i->...", sigma, sigma_dot)
    iso = np.asarray(dot)[..., None, None] * _EYE
    cross = sigma_dot[..., :, None] * sigma[..., None, :]  # its transpose is the other term
    cross = cross + cross.swapaxes(-1, -2)
    return 0.5 * (-iso - skew(sigma_dot) + cross)


def l_operator(a):
    """Matrix L(a) with L(a) @ theta == J @ a for theta = packing of J.

    Row layout (theta order J11, J12, J13, J22, J23, J33)::

        [a1 a2 a3  0  0  0]
        [ 0 a1  0 a2 a3  0]
        [ 0  0 a1  0 a2 a3]

    Parameters
    ----------
    a : array_like, shape (..., 3)

    Returns
    -------
    ndarray, shape (..., 3, 6)
    """
    a = np.asarray(a, dtype=float)
    return (a @ _L).reshape(a.shape[:-1] + (3, 6))


def f_operator(x, v):
    """Matrix F(x, v) with F(x, v) @ theta == S(J x) @ v.

    Together with `l_operator` this is what makes the dynamics linear in the
    six independent inertia entries.

    Parameters
    ----------
    x, v : array_like, shape (..., 3)

    Returns
    -------
    ndarray, shape (..., 3, 6)
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    outer = v[..., :, None] * x[..., None, :]  # v_m x_k at [..., m, k]
    lead = outer.shape[:-2]
    return (outer.reshape(lead + (9,)) @ _F).reshape(lead + (3, 6))


def theta_from_inertia(j):
    """Pack a symmetric inertia matrix into [J11, J12, J13, J22, J23, J33].

    Raises ValueError if any |J - J^T| entry exceeds 1e-12.
    """
    j = np.asarray(j, dtype=float)
    if np.max(np.abs(j - j.swapaxes(-1, -2))) > 1e-12:
        raise ValueError("inertia matrix is not symmetric")
    return j[..., _ROW, _COL]


def inertia_from_theta(theta):
    """Inverse of `theta_from_inertia`; always returns a symmetric matrix."""
    theta = np.asarray(theta, dtype=float)
    return (theta @ _J).reshape(theta.shape[:-1] + (3, 3))


def spd_check(m, name):
    """Raise ValueError unless each (..., n, n) matrix in `m` is symmetric
    (to 1e-9) and positive definite (its Cholesky factorization exists)."""
    if np.max(np.abs(m - m.swapaxes(-1, -2))) > 1e-9:
        raise ValueError("%s must be symmetric" % name)
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise ValueError("%s must be positive definite" % name) from None


def mrp_shadow(sigma, sigma_dot=None):
    """Shadow-set counterpart -sigma / (sigma.sigma) of the same attitude.

    Maps the unit sphere to itself and swaps inside/outside; used to keep
    |sigma| <= 1 when shadow switching is enabled.  Given the rate
    sigma_dot, returns (shadow, shadow_dot) with the shadow's rate along
    that trajectory.  Not finite at sigma = 0.
    """
    sigma = np.asarray(sigma, dtype=float)
    ss = np.einsum("...i,...i->...", sigma, sigma)[..., None]
    shadow = -sigma / ss
    if sigma_dot is None:
        return shadow
    radial = np.einsum("...i,...i->...", sigma, sigma_dot)[..., None]
    return shadow, (-sigma_dot * ss + 2.0 * sigma * radial) / np.square(ss)
