"""Dense attitude algebra for Modified Rodrigues Parameters.

Everything here is a small closed-form kernel: cross-product matrices, the
MRP kinematics matrix with its exact inverse and time derivative, and the
pair of linear operators that pull inertia terms out as a 6-vector of
parameters.  All kernels broadcast over leading axes, so one call evaluates
a whole fleet: sigma with shape (N, 3) yields (N, 3, 3).

Conventions fixed across the package:

* ``sigma = e_hat * tan(phi / 4)`` for Euler axis ``e_hat`` and angle
  ``phi``; the parameterization is singular at ``phi = +/- 2*pi``.
* Inertia packing order ``theta = [J11, J12, J13, J22, J23, J33]``.
"""

import numpy as np


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
    out = np.zeros(x.shape[:-1] + (3, 3))
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    out[..., 0, 1] = -x3
    out[..., 0, 2] = x2
    out[..., 1, 0] = x3
    out[..., 1, 2] = -x1
    out[..., 2, 0] = -x2
    out[..., 2, 1] = x1
    return out


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
    iso = np.asarray((1.0 - ss) / 2.0)[..., None, None] * np.eye(3)
    return 0.5 * (iso - skew(sigma) + outer)


def kinematics_matrix_inverse(sigma):
    """Exact inverse of G(sigma): 16 / (1 + sigma.sigma)^2 * G(sigma)^T."""
    sigma = np.asarray(sigma, dtype=float)
    ss = np.einsum("...i,...i->...", sigma, sigma)
    g_t = np.swapaxes(kinematics_matrix(sigma), -1, -2)
    scale = 16.0 / np.square(1.0 + ss)
    return np.asarray(scale)[..., None, None] * g_t


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
    iso = np.asarray(dot)[..., None, None] * np.eye(3)
    cross = sigma_dot[..., :, None] * sigma[..., None, :]
    cross = cross + sigma[..., :, None] * sigma_dot[..., None, :]
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
    out = np.zeros(a.shape[:-1] + (3, 6))
    a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2]
    out[..., 0, 0] = a1
    out[..., 0, 1] = a2
    out[..., 0, 2] = a3
    out[..., 1, 1] = a1
    out[..., 1, 3] = a2
    out[..., 1, 4] = a3
    out[..., 2, 2] = a1
    out[..., 2, 4] = a2
    out[..., 2, 5] = a3
    return out


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
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    v1, v2, v3 = v[..., 0], v[..., 1], v[..., 2]
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


def theta_from_inertia(j):
    """Pack a symmetric inertia matrix into [J11, J12, J13, J22, J23, J33].

    Raises ValueError if any |J - J^T| entry exceeds 1e-12.
    """
    j = np.asarray(j, dtype=float)
    if np.max(np.abs(j - np.swapaxes(j, -1, -2))) > 1e-12:
        raise ValueError("inertia matrix is not symmetric")
    return np.stack(
        [j[..., 0, 0], j[..., 0, 1], j[..., 0, 2],
         j[..., 1, 1], j[..., 1, 2], j[..., 2, 2]],
        axis=-1,
    )


def inertia_from_theta(theta):
    """Inverse of `theta_from_inertia`; always returns a symmetric matrix."""
    theta = np.asarray(theta, dtype=float)
    out = np.zeros(theta.shape[:-1] + (3, 3))
    out[..., 0, 0] = theta[..., 0]
    out[..., 0, 1] = out[..., 1, 0] = theta[..., 1]
    out[..., 0, 2] = out[..., 2, 0] = theta[..., 2]
    out[..., 1, 1] = theta[..., 3]
    out[..., 1, 2] = out[..., 2, 1] = theta[..., 4]
    out[..., 2, 2] = theta[..., 5]
    return out


def mrp_from_axis_angle(axis, angle):
    """MRP vector for a rotation of `angle` radians about `axis`.

    sigma = axis/|axis| * tan(angle / 4).  The axis is normalized, so only
    its direction matters.  Requires |angle| < 2*pi (the representation is
    singular there) and a nonzero axis.
    """
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,):
        raise ValueError("axis must be a 3-vector")
    norm = np.linalg.norm(axis)
    if not norm > 0.0 or not np.isfinite(norm):
        raise ValueError("axis must have positive finite norm, got %r" % norm)
    if not abs(angle) < 2.0 * np.pi:
        raise ValueError("angle must satisfy |angle| < 2*pi")
    return axis / norm * np.tan(angle / 4.0)


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
