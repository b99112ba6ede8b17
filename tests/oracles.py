"""Reference formulas the tests check the program against; the program
itself never calls them."""
import numpy as np

from attsync.attmath import (
    kinematics_matrix,
    kinematics_matrix_dot,
    kinematics_matrix_inverse,
    mat_vec,
    mrp_shadow,
    skew,
)
from attsync.rigid_body import angular_acceleration, h_star, mrp_rate, regression
from attsync.topology import aggregate_weights

# the constant-table kernels' direct forms, `x @ table` with flattened (input
# entries, output entries) tables; the program takes each as `table.T @ x.T`
_EPS = np.zeros((3, 3, 3))
_EPS[(0, 1, 2), (1, 2, 0), (2, 0, 1)], _EPS[(0, 2, 1), (2, 1, 0), (1, 0, 2)] = 1.0, -1.0
_JK = np.zeros((6, 3, 3))  # dJ / dtheta_p, theta = [J11, J12, J13, J22, J23, J33]
_JK[range(6), (0, 0, 0, 1, 1, 2), (0, 1, 2, 1, 2, 2)] = 1.0
_JK = np.maximum(_JK, _JK.swapaxes(1, 2))
_SKEW = np.einsum("ikj->kij", _EPS).reshape(3, 9)
_L = np.einsum("pik->kip", _JK).reshape(3, 18)
_F = np.einsum("ijm,pjk->mkip", _EPS, _JK).reshape(9, 18)


def skew_direct(x):
    return (x @ _SKEW).reshape(x.shape[:-1] + (3, 3))


def l_operator_direct(a):
    return (a @ _L).reshape(a.shape[:-1] + (3, 6))


def f_operator_direct(x, v):
    outer = v[..., :, None] * x[..., None, :]  # v_m x_k at [..., m, k]
    lead = outer.shape[:-2]
    return (outer.reshape(lead + (9,)) @ _F).reshape(lead + (3, 6))


def inertia_from_theta_direct(theta):
    return (theta @ _JK.reshape(6, 9)).reshape(theta.shape[:-1] + (3, 3))


def kinematics_matrix_direct(sigma):
    """G = 1/2 (iso - S(sigma) + sigma sigma^T), iso = (1 - sigma.sigma)/2 I."""
    ss = np.einsum("...i,...i->...", sigma, sigma)
    outer = sigma[..., :, None] * sigma[..., None, :]
    iso = np.asarray((1.0 - ss) / 2.0)[..., None, None] * np.eye(3)
    return 0.5 * (iso - skew_direct(sigma) + outer)


def kinematics_matrix_dot_direct(sigma, sigma_dot):
    """dG/dt = 1/2 (iso - S(sigma_dot) + cross + cross^T), iso = -(sigma.sigma_dot) I."""
    dot = np.einsum("...i,...i->...", sigma, sigma_dot)
    iso = np.asarray(dot)[..., None, None] * np.eye(3)
    cross = sigma_dot[..., :, None] * sigma[..., None, :]
    cross = cross + cross.swapaxes(-1, -2)
    return 0.5 * (-iso - skew_direct(sigma_dot) + cross)


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


def filtered_error(e, e_dot, lam):
    """Sliding variable s = e_dot + Lambda e."""
    return np.asarray(e_dot, dtype=float) + mat_vec(lam, e)


def max_pairwise(x):
    """max_ij |x_i - x_j| over the craft axis of x (..., craft, axis), from the
    whole (..., craft, craft, axis) difference tensor at once."""
    diff = x[..., :, None, :] - x[..., None, :, :]
    return np.sqrt(np.einsum("...ijk,...ijk->...ij", diff, diff).max(axis=(-2, -1)))


def derived_series(log):
    """The derived series of a TrajectoryLog, formed record by record from its
    raw ones: V with H* = `h_star`, D and D of sigma_dot = G omega, and, when
    tracking, T and its rate to the reference's image closer to each craft."""
    sc = log.scenario
    j = np.stack([c.inertia.matrix for c in sc.spacecraft])
    theta = np.stack([c.inertia.theta for c in sc.spacecraft])
    gamma = np.stack([c.gains.gamma_diag for c in sc.spacecraft])
    names = ["lyapunov", "disagreement", "disagreement_rate"]
    if sc.mode == "tracking":
        names += ["tracking_error", "tracking_rate"]
    out = {name: np.empty(log.n_records) for name in names}
    for r, t in enumerate(log.times):
        sigma, s = log.sigma[r], log.filtered_error[r]
        sigma_dot = mrp_rate(sigma, log.omega[r])
        err = theta - log.theta_hat[r]
        out["lyapunov"][r] = (0.5 * np.einsum("ni,nij,nj->", s, h_star(j, sigma), s)
                              + 0.5 * (err * err / gamma).reshape(-1).sum(-1))
        out["disagreement"][r] = max_pairwise(sigma)
        out["disagreement_rate"][r] = max_pairwise(sigma_dot)
        if sc.mode == "tracking":
            ref, ref_rate = sc.reference.at(t)[:2]
            d = sigma - ref
            flip = (np.einsum("ni,ni->n", d, d)
                    > 1.0 + np.einsum("ni,ni->n", sigma, sigma))[:, None]
            shadow, shadow_rate = mrp_shadow(ref, ref_rate)
            ref, ref_rate = np.where(flip, shadow, ref), np.where(flip, shadow_rate, ref_rate)
            out["tracking_error"][r] = np.linalg.norm(sigma - ref, axis=-1).max()
            out["tracking_rate"][r] = np.linalg.norm(sigma_dot - ref_rate, axis=-1).max()
    return out


def _closer_image(x, x_dot, to):
    """(x, x_dot), or its shadow pair when the shadow of x is the closer to `to`."""
    d = to - x
    return mrp_shadow(x, x_dot) if d @ d > 1.0 + to @ to else (x, x_dot)


def _fleet_derivative(sc, w, t, state):
    """d/dt of the (craft, 18) state [sigma | sigma_dot | theta_hat | chi | chi_dot]:
    the smoothed generator on the dense-weight aggregates, the law
    u = G^T (Y theta_hat - K s), theta_hat_dot = -Gamma Y^T s, and the plant
    H* sigma_ddot = G^-T u - C* sigma_dot, one craft at a time."""
    sources = [(x[0:3], x[3:6]) for x in state]
    if sc.mode == "tracking":
        sources.append(sc.reference.at(t)[:2])
    wn, leak = sc.smoothing_rate, sc.rate_leak
    out = np.empty_like(state)
    for i, craft in enumerate(sc.spacecraft):
        sigma, sigma_dot, theta, chi, chi_dot = np.split(state[i], [3, 6, 12, 15])
        agg, agg_rate = np.zeros(3), np.zeros(3)
        for j in np.flatnonzero(w[i]):
            x, x_dot = sources[j]
            if sc.shadow_switch:
                x, x_dot = _closer_image(x, x_dot, sigma)
            agg, agg_rate = agg + w[i, j] * x, agg_rate + w[i, j] * x_dot
        chi_ddot = 2.0 * wn * (agg_rate - chi_dot) + wn * wn * (agg - chi) - leak * chi_dot
        lam, k, gamma = craft.gains.Lambda, craft.gains.K, craft.gains.Gamma
        e, e_dot = sigma - chi, sigma_dot - chi_dot
        s = e_dot + lam @ e
        g = kinematics_matrix(sigma)
        y = regression(sigma, sigma_dot, g, chi_dot - lam @ e, chi_ddot - lam @ e_dot)
        u = g.T @ (y @ theta - k @ s)
        j = craft.inertia.matrix
        force = kinematics_matrix_inverse(sigma).T @ u - c_star(j, sigma, sigma_dot) @ sigma_dot
        out[i] = np.concatenate([sigma_dot, np.linalg.solve(h_star(j, sigma), force),
                                 -gamma @ y.T @ s, chi_dot, chi_ddot])
    return out


def fleet_run(sc):
    """Every step of a `smoothed` scenario with control and adaptation on, stepped
    in the paper's MRP-space Euler-Lagrange form by its own RK4 over the state
    (sigma, sigma_dot, theta_hat, chi, chi_dot), the generator seated at
    chi(0) = sigma(0), chi_dot(0) = sigma_dot(0).  Under shadow_switch a craft
    past the unit ball takes its shadow after each step, chi with it when
    nonzero.  Returns sigma, omega = G^-1 sigma_dot and theta_hat, each
    (step, craft, axis)."""
    assert sc.accel_source == "smoothed" and sc.control_enabled and sc.adaptation_enabled
    w = aggregate_weights(sc.topology, with_leader=sc.mode == "tracking")
    sigma = np.array([c.initial_state.sigma for c in sc.spacecraft])
    sigma_dot = mat_vec(kinematics_matrix(sigma), [c.initial_state.omega for c in sc.spacecraft])
    theta = np.array([c.theta_hat0 for c in sc.spacecraft])
    state = np.concatenate([sigma, sigma_dot, theta, sigma, sigma_dot], axis=1)
    states = [state]
    dt = sc.dt
    for k in range(sc.n_steps):
        t = k * dt
        k1 = _fleet_derivative(sc, w, t, state)
        k2 = _fleet_derivative(sc, w, t + dt / 2.0, state + dt / 2.0 * k1)
        k3 = _fleet_derivative(sc, w, t + dt / 2.0, state + dt / 2.0 * k2)
        k4 = _fleet_derivative(sc, w, t + dt, state + dt * k3)
        state = state + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if sc.shadow_switch:
            for x in state:
                if x[0:3] @ x[0:3] > 1.0:
                    x[0:3], x[3:6] = mrp_shadow(x[0:3], x[3:6])
                    if x[12:15] @ x[12:15] > 0.0:
                        x[12:15], x[15:18] = mrp_shadow(x[12:15], x[15:18])
        states.append(state)
    states = np.array(states)
    sigma, sigma_dot = states[..., 0:3], states[..., 3:6]
    omega = mat_vec(kinematics_matrix_inverse(sigma), sigma_dot)
    return sigma, omega, states[..., 6:12]


def draw_in_ball(rng, bound):
    """One vector, componentwise uniform on [-bound, bound], drawn again until
    it lies in the bound's ball; zero for a zero bound."""
    if bound == 0.0:
        return np.zeros(3)
    while True:
        v = rng.uniform(-bound, bound, 3)
        if v @ v <= bound * bound:
            return v


def random_initial_states(seed, n, sigma_bound, omega_bound):
    """(sigma, omega) of each craft, sigma first, one vector at a time."""
    rng = np.random.default_rng(seed)
    return [(draw_in_ball(rng, sigma_bound), draw_in_ball(rng, omega_bound))
            for _ in range(n)]
