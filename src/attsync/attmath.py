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
packing order and the Levi-Civita symbol; so are G and dG/dt, over the
rate-like vector, their 3x3 product term and their isotropic coefficient,
with their factor 1/2 folded into the table (entries +-1/2 and 1/4).  Each
output entry sums at most two nonzero terms, each an input entry (for F, a
product of two) times a signed power of two, so every product is exact and
the entry's value does not depend on the order the product sums in, nor on
the layout of the input.  A table product is
taken as ``table @ x.T``, so it returns the transpose of a C-contiguous
array: the craft-contiguous layout the simulator keeps its fleet in, where
every elementwise kernel here keeps its input's layout.
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

# the kernels' constant tables, transposed: (output entries, input entries), the output
# entries taken in reverse axis order, so `table @ x.T` is the transpose of the result
_SKEW = np.einsum("ikj->jik", _EPS).reshape(9, 3)        # S(x)_ij = eps_ikj x_k
_J = np.einsum("pij->jip", _JK).reshape(9, 6)            # J(theta)_ij = theta_p _JK[p]_ij
_L = _JK.reshape(18, 3)                                  # (J a)_i = J_ik a_k
# S(J x) v = -S(v) J x: entry i is eps_ijm v_m J_jk x_k, linear in v_m x_k
_F = np.einsum("ijm,pjk->pimk", _EPS, _JK).reshape(18, 9)
# G and dG/dt are (-S(v) + P) / 2 + w c I: one table over [v | P | c], with P the
# kernel's 3x3 product term, c its isotropic coefficient and w = 1/4 for G, -1/2 for dG/dt
_KIN, _KIN_DOT = (np.hstack([-0.5 * _SKEW, 0.5 * np.eye(9), w * _EYE.reshape(9, 1)])
                  for w in (0.25, -0.5))


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
    return _SKEW.dot(x.T.reshape(3, -1)).reshape((3,) + x.shape[::-1]).T


def kinematics_matrix(sigma):
    """Matrix G(sigma) mapping body rates to MRP rates, sigma_dot = G @ omega.

    G(sigma) = 1/2 * ((1 - sigma.sigma)/2 * I - S(sigma) + sigma sigma^T).

    Satisfies G @ G^T = ((1 + sigma.sigma)/4)^2 * I (Schaub & Junkins): G is
    never singular and G^{-1} = G^T / |row 0 of G|^2, `inverse_from_kinematics`.

    Parameters
    ----------
    sigma : array_like, shape (..., 3)

    Returns
    -------
    ndarray, shape (..., 3, 3)
    """
    sigma = np.asarray(sigma, dtype=float)
    ss = np.einsum("...i,...i->...", sigma, sigma)
    s = sigma.T
    return _table_product(_KIN, s, s[:, None] * s[None], (1.0 - ss).T)


def _table_product(table, v, p, c):
    """table @ [v | p | c], given transposed: v (3, ...), p (3, 3, ...), c (...)."""
    g = table.dot(np.concatenate((v.reshape(3, -1), p.reshape(9, -1), c.reshape(1, -1))))
    return g.reshape(p.shape).T


def kinematics_matrix_inverse(sigma):
    """Exact inverse of G(sigma): G^T / |row 0 of G|^2, as `inverse_from_kinematics`."""
    return inverse_from_kinematics(kinematics_matrix(sigma))


def inverse_from_kinematics(g):
    """G^{-1} = G^T / |row 0 of G|^2, from g = G(sigma) already built: every row of G
    has squared norm ((1 + sigma.sigma)/4)^2, so sigma.sigma is not formed again."""
    row = g[..., 0, :]
    return g.swapaxes(-1, -2) / np.einsum("...i,...i->...", row, row)[..., None, None]


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
    if sigma.shape != sigma_dot.shape:  # the transposes below line up equal shapes only
        sigma, sigma_dot = np.broadcast_arrays(sigma, sigma_dot)
    dot = np.einsum("...i,...i->...", sigma, sigma_dot)
    s, v = sigma.T, sigma_dot.T
    cross = s[:, None] * v[None]  # sigma_dot sigma^T; its transpose is the other term
    return _table_product(_KIN_DOT, v, cross + cross.swapaxes(0, 1), dot.T)


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
    return _L.dot(a.T.reshape(3, -1)).reshape((6,) + a.shape[::-1]).T


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
    outer = (v[..., :, None] * x[..., None, :]).swapaxes(-1, -2).T  # v_m x_k at [m, k, ...]
    return _F.dot(outer.reshape(9, -1)).reshape((6, 3) + outer.shape[2:]).T


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
    return _J.dot(theta.T.reshape(6, -1)).reshape((3, 3) + theta.shape[-2::-1]).T


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
