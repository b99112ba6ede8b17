"""Reference formulas the tests check the program against; the program
itself never calls them."""
import numpy as np

from attsync.attmath import (
    kinematics_matrix,
    kinematics_matrix_dot,
    kinematics_matrix_inverse,
    mat_vec,
    skew,
)
from attsync.rigid_body import angular_acceleration, mrp_rate


def c_star(j, sigma, sigma_dot):
    """Coriolis-like matrix of the MRP-space Euler-Lagrange form.

    C* = -G^{-T} J G^{-1} (dG/dt) G^{-1} - G^{-T} S(J G^{-1} sigma_dot) G^{-1}.

    The sign of the first term is forced by d(H*)/dt - 2 C* being
    skew-symmetric and by consistency with the body-frame dynamics; both are
    pinned in tests.
    """
    g_inv = kinematics_matrix_inverse(sigma)
    g_inv_t = np.swapaxes(g_inv, -1, -2)
    g_dot = kinematics_matrix_dot(sigma, np.asarray(sigma_dot, dtype=float))
    core = mat_vec(j, mat_vec(g_inv, sigma_dot))
    return -(g_inv_t @ j @ g_inv @ g_dot @ g_inv) - g_inv_t @ skew(core) @ g_inv


def mrp_acceleration(j, sigma, omega, torque):
    """sigma_ddot along the true dynamics: dG/dt @ omega + G @ omega_dot."""
    sigma_dot = mrp_rate(sigma, omega)
    omega_dot = angular_acceleration(j, np.linalg.inv(j), omega, torque)
    g_dot = kinematics_matrix_dot(sigma, sigma_dot)
    return mat_vec(g_dot, omega) + mat_vec(kinematics_matrix(sigma), omega_dot)


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


def degree_matrix(topo):
    """Diagonal matrix of weighted in-degrees (row sums of the adjacency)."""
    return np.diag(topo.adjacency.sum(axis=1))


def laplacian(topo):
    """Graph Laplacian L = D - A; rows sum to zero."""
    return degree_matrix(topo) - topo.adjacency
