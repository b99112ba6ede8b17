"""Single rigid-body dynamics in MRP coordinates.

Two equivalent views of the same plant:

* body frame: J omega_dot = -S(omega) J omega + u
* MRP coordinates: H*(sigma) sigma_ddot + C*(sigma, sigma_dot) sigma_dot
  = G^{-T} u, an Euler-Lagrange form obtained by substituting
  omega = G^{-1} sigma_dot.

H* is symmetric positive definite, d(H*)/dt - 2 C* is skew-symmetric, and
H* a + C* v is linear in the packed inertia vector theta, which is what the
adaptive controller exploits through `regression` (Y) and `body_regression`
(M, the body-frame factor of Y = G^{-T} M).

Like the attmath kernels, the functions take the inertia as a (..., 3, 3)
array, so the fleet simulator evaluates every spacecraft in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attmath import (
    kinematics_matrix,
    kinematics_matrix_dot,
    kinematics_matrix_inverse,
    inverse_from_kinematics,
    f_operator,
    l_operator,
    mat_vec,
    skew,
    spd_check,
    theta_from_inertia,
)


@dataclass(frozen=True)
class InertiaParams:
    """Inertia matrix of one spacecraft plus its packed 6-vector.

    The matrix must be finite, symmetric (to 1e-12) and positive definite;
    all three are checked at construction.
    """

    matrix: np.ndarray
    theta: np.ndarray = field(init=False)

    def __post_init__(self):
        j = np.array(self.matrix, dtype=float)
        if j.shape != (3, 3):
            raise ValueError("inertia matrix must be 3x3")
        if not np.isfinite(j).all():
            raise ValueError("inertia matrix must be finite")
        theta = theta_from_inertia(j)  # also enforces symmetry
        spd_check(j, "inertia matrix")
        j.flags.writeable = False
        theta.flags.writeable = False
        object.__setattr__(self, "matrix", j)
        object.__setattr__(self, "theta", theta)


@dataclass(frozen=True)
class SpacecraftState:
    """Attitude sigma (MRP) and body angular velocity omega of one craft."""

    sigma: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        sigma = np.array(self.sigma, dtype=float)
        omega = np.array(self.omega, dtype=float)
        if sigma.shape != (3,) or omega.shape != (3,):
            raise ValueError("sigma and omega must be 3-vectors")
        if not (np.isfinite(sigma).all() and np.isfinite(omega).all()):
            raise ValueError("state components must be finite")
        sigma.flags.writeable = False
        omega.flags.writeable = False
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "omega", omega)


def angular_acceleration(j, j_inv, omega, torque):
    """Body-frame omega_dot = J^{-1} (u - S(omega) J omega), given j_inv = J^{-1}."""
    rhs = np.asarray(torque, dtype=float) - mat_vec(skew(omega), mat_vec(j, omega))
    return mat_vec(j_inv, rhs)


def mrp_rate(sigma, omega):
    """sigma_dot = G(sigma) @ omega."""
    return mat_vec(kinematics_matrix(sigma), omega)


def h_star(j, sigma):
    """Transformed inertia H* = G^{-T} J G^{-1}, symmetric positive definite."""
    g_inv = kinematics_matrix_inverse(sigma)
    return g_inv.swapaxes(-1, -2) @ j @ g_inv


def body_regression(sigma, sigma_dot, omega, g_inv, v_r, a_r):
    """Body-frame regressor M = L(alpha) - F(omega, omega_r), so M @ theta ==
    J alpha - S(J omega) omega_r, at the reference rate omega_r = G^{-1} v_r and
    acceleration alpha = G^{-1} (a_r - (dG/dt) omega_r); g_inv = G(sigma)^{-1}."""
    omega_r = mat_vec(g_inv, v_r)
    alpha = mat_vec(g_inv, a_r - mat_vec(kinematics_matrix_dot(sigma, sigma_dot), omega_r))
    return l_operator(alpha) - f_operator(omega, omega_r)


def regression(sigma, sigma_dot, g, v_r, a_r):
    """Regressor Y with Y @ theta == H* a_r + C* v_r for every inertia.

    Y = G^{-T} M, with M the `body_regression` at omega = G^{-1} sigma_dot
    and g = G(sigma) as built by the caller.  Inertia-free by construction;
    the controller evaluates it from measured signals only.
    """
    g_inv = inverse_from_kinematics(g)
    m = body_regression(sigma, sigma_dot, mat_vec(g_inv, sigma_dot), g_inv, v_r, a_r)
    return g_inv.swapaxes(-1, -2) @ m
