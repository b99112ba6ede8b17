"""End-to-end acceptance gate.

Every test here checks one shipping criterion at its stated tolerance and
reports a single pass/fail line through ``record_acceptance`` (printed in the
terminal summary).  The two preset fleets are simulated once per module
(seeds 1..5 as one ensemble, full-rate logging) and shared across the
criteria that grade them.
"""

import itertools
from time import perf_counter

import numpy as np
import pytest

from attsync.attmath import (
    kinematics_matrix,
    kinematics_matrix_dot,
    kinematics_matrix_inverse,
    l_operator,
    f_operator,
    mat_vec,
    skew,
    theta_from_inertia,
)
from attsync.cli import main
from attsync.config import preset
from attsync.errors import SimulationDiverged
from attsync.rigid_body import h_star, mrp_rate, regression
from attsync.simulator import Simulation, metrics
from attsync.topology import (
    CommTopology,
    has_directed_spanning_tree,
    leader_rooted_valid,
    leaderless_valid,
)

from conftest import (
    FLEET_ADJ,
    FLEET_J,
    FLEET_LEADER_B,
    record_acceptance,
    single_craft_scenario,
)
from oracles import c_star, laplacian

FINAL_TOL = 1e-2
V_SLACK = 1e-4


def mixed_inertias(rng, count):
    """Stack of inertia matrices: the six-craft set tiled, then random SPD."""
    fleet = np.array(FLEET_J, dtype=float)
    half = count // 2
    j = np.empty((count, 3, 3))
    j[:half] = np.tile(fleet, (half // 6 + 1, 1, 1))[:half]
    a = rng.normal(size=(count - half, 3, 3))
    j[half:] = 0.2 * a @ a.swapaxes(1, 2) + 0.4 * np.eye(3)
    return j


def _preset_sweep(name):
    """Run one preset for seeds 1..5 at full logging rate as one ensemble; return
    {seed: (log, wall)}, each seed's wall the whole ensemble's, as `attsync run
    --seeds` reports it."""
    seeds = range(1, 6)
    scenarios = [preset(name).with_overrides(seed=seed).to_scenario() for seed in seeds]
    for scenario in scenarios:
        assert scenario.dt == 0.005 and scenario.duration == 40.0
        for craft in scenario.spacecraft:
            state = craft.initial_state
            assert np.linalg.norm(state.sigma) <= 0.5 + 1e-12
            assert np.linalg.norm(state.omega) <= 0.5 + 1e-12
    start = perf_counter()
    logs = Simulation(scenarios).run(decimate=1)
    wall = perf_counter() - start
    for log in logs:
        if isinstance(log, SimulationDiverged):
            raise log
    return {seed: (log, wall) for seed, log in zip(seeds, logs)}


@pytest.fixture(scope="module")
def leaderless_logs():
    return _preset_sweep("paper-leaderless")


@pytest.fixture(scope="module")
def tracking_logs():
    return _preset_sweep("paper-tracking")


def v_slack_violation(v):
    """Worst per-step growth of a certificate series beyond the allowed slack."""
    return float((v[1:] - (v[:-1] + V_SLACK * (1.0 + v[:-1]))).max())


def estimate_bound_margin(log):
    """Max over craft of sup_t |theta_hat| relative to the V(0)-derived cap.

    Boundedness of V gives |theta_err|^2 <= 2 V(0) lmax(Gamma), hence
    |theta_hat| <= |theta| + sqrt(2 V(0) lmax(Gamma)) for all t.
    """
    v0 = float(log.lyapunov[0])
    worst = 0.0
    for i, craft in enumerate(log.scenario.spacecraft):
        gamma_max = float(np.max(craft.gains.gamma_diag))
        cap = np.linalg.norm(craft.inertia.theta) + np.sqrt(2.0 * v0 * gamma_max)
        sup = float(np.linalg.norm(log.theta_hat[:, i, :], axis=1).max())
        worst = max(worst, sup / cap)
    return worst


def test_criterion_1_operator_identities():
    start = perf_counter()
    rng = np.random.default_rng(11)
    count = 1200
    j = mixed_inertias(rng, count)
    theta = np.stack([theta_from_inertia(m) for m in j])
    a = rng.normal(size=(count, 3))
    x = rng.normal(size=(count, 3))
    v = rng.normal(size=(count, 3))
    sigma = rng.normal(size=(count, 3)) * 0.6
    sigma_dot = rng.normal(size=(count, 3))
    v_r = rng.normal(size=(count, 3))
    a_r = rng.normal(size=(count, 3))

    def rel(lhs, rhs):
        return float((np.linalg.norm(lhs - rhs, axis=1)
                      / (1.0 + np.linalg.norm(rhs, axis=1))).max())

    worst = max(
        rel(mat_vec(l_operator(a), theta), mat_vec(j, a)),
        rel(mat_vec(f_operator(x, v), theta), mat_vec(skew(mat_vec(j, x)), v)),
        rel(mat_vec(regression(sigma, sigma_dot, kinematics_matrix(sigma), v_r, a_r),
                    theta),
            mat_vec(h_star(j, sigma), a_r) + mat_vec(c_star(j, sigma, sigma_dot), v_r)),
    )
    elapsed = perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    assert record_acceptance(
        1, ok, "%d tuples, worst relative residual %.2e, %.2f s"
        % (count, worst, elapsed))


def test_criterion_2_inertia_like_matrix_properties():
    start = perf_counter()
    rng = np.random.default_rng(21)
    count = 1000
    j = mixed_inertias(rng, count)
    sigma = rng.normal(size=(count, 3)) * 0.6
    sigma_dot = rng.normal(size=(count, 3))
    x = rng.normal(size=(count, 3))

    h = h_star(j, sigma)
    sym_err = float(np.abs(h - h.swapaxes(1, 2)).max())
    try:
        np.linalg.cholesky(h)
        spd_ok = True
    except np.linalg.LinAlgError:
        spd_ok = False

    eps = 1e-6
    h_dot_fd = (h_star(j, sigma + eps * sigma_dot)
                - h_star(j, sigma - eps * sigma_dot)) / (2.0 * eps)
    m = h_dot_fd - 2.0 * c_star(j, sigma, sigma_dot)
    quad = np.einsum("ni,nij,nj->n", x, m, x)
    allowance = 1e-6 * (1.0 + np.einsum("ni,ni->n", x, x))
    worst = float((np.abs(quad) / allowance).max())
    elapsed = perf_counter() - start
    ok = spd_ok and sym_err <= 1e-12 and worst <= 1.0 and elapsed < 5.0
    assert record_acceptance(
        2, ok, "%d samples, SPD %s, worst skew-quadratic ratio %.2e, %.2f s"
        % (count, spd_ok, worst, elapsed))


def test_criterion_3_kinematics_matrix_identities():
    start = perf_counter()
    rng = np.random.default_rng(31)
    count = 1000
    sigma = rng.normal(size=(count, 3)) * 0.7
    sigma_dot = rng.normal(size=(count, 3))

    g = kinematics_matrix(sigma)
    scale = ((1.0 + np.einsum("ni,ni->n", sigma, sigma)) / 4.0) ** 2
    gram_err = float(np.abs(g @ g.swapaxes(1, 2)
                            - scale[:, None, None] * np.eye(3)).max())
    inv_err = float(np.abs(kinematics_matrix_inverse(sigma) @ g
                           - np.eye(3)).max())
    eps = 1e-6
    g_dot_fd = (kinematics_matrix(sigma + eps * sigma_dot)
                - kinematics_matrix(sigma - eps * sigma_dot)) / (2.0 * eps)
    dot_err = float(np.abs(kinematics_matrix_dot(sigma, sigma_dot)
                           - g_dot_fd).max())
    elapsed = perf_counter() - start
    ok = gram_err <= 1e-12 and inv_err <= 1e-12 and dot_err <= 1e-6 and elapsed < 1.0
    assert record_acceptance(
        3, ok, "gram %.2e, inverse %.2e, derivative-vs-FD %.2e, %.2f s"
        % (gram_err, inv_err, dot_err, elapsed))


def _brute_force_spanning_tree(adj):
    """Reference reachability check: some root reaches every node."""
    n = adj.shape[0]
    reach = (adj.T > 0) | np.eye(n, dtype=bool)
    for _ in range(n):
        reach = reach | (reach @ reach)
    return bool(reach.all(axis=1).any())


def test_criterion_4_topology_detection():
    start = perf_counter()
    agree = 0
    exact_ok = True

    # Every loop-free 3-node digraph, unit weights.
    for bits in itertools.product((0, 1), repeat=6):
        adj = np.zeros((3, 3))
        adj[np.where(~np.eye(3, dtype=bool))] = bits
        topo = CommTopology(adj)
        if has_directed_spanning_tree(topo) == _brute_force_spanning_tree(adj):
            agree += 1
        lap = laplacian(topo)
        exact_ok &= bool(np.all(lap @ np.ones(3) == 0.0))
        exact_ok &= bool(np.all(lap.sum(axis=1) == 0.0))
    count_3 = agree
    assert count_3 == 64

    # 500 random integer-weighted digraphs on 4..6 nodes.
    rng = np.random.default_rng(41)
    for _ in range(500):
        n = int(rng.integers(4, 7))
        adj = rng.integers(0, 4, size=(n, n)).astype(float)
        np.fill_diagonal(adj, 0.0)
        topo = CommTopology(adj)
        if has_directed_spanning_tree(topo) == _brute_force_spanning_tree(adj):
            agree += 1
        lap = laplacian(topo)
        exact_ok &= bool(np.all(lap @ np.ones(n) == 0.0))
        exact_ok &= bool(np.all(lap.sum(axis=1) == 0.0))

    # The six-craft fleet graph is valid for both modes; breaking either
    # condition is detected.
    adj = np.array(FLEET_ADJ, dtype=float)
    fleet_ok = leaderless_valid(CommTopology(adj))
    fleet_ok &= leader_rooted_valid(
        CommTopology(adj, leader_weights=FLEET_LEADER_B))
    cut = adj.copy()
    cut[1, :] = 0.0  # craft 1 loses every in-neighbor
    negative_ok = not leaderless_valid(CommTopology(cut))
    negative_ok &= not leader_rooted_valid(
        CommTopology(adj, leader_weights=np.zeros(6)))

    elapsed = perf_counter() - start
    ok = (agree == 564 and exact_ok and fleet_ok and negative_ok
          and elapsed < 5.0)
    assert record_acceptance(
        4, ok, "564/564 detector agreements, row sums exactly zero: %s, "
        "fleet graph valid and negatives rejected: %s, %.2f s"
        % (exact_ok, fleet_ok and negative_ok, elapsed))


def test_criterion_5_leaderless_consensus(leaderless_logs):
    worst_d = worst_dr = worst_slack = -np.inf
    worst_wall = 0.0
    for seed, (log, wall) in leaderless_logs.items():
        m = metrics(log)
        worst_d = max(worst_d, m["disagreement_final"])
        worst_dr = max(worst_dr, m["disagreement_rate_final"])
        worst_slack = max(worst_slack, v_slack_violation(log.lyapunov))
        worst_wall = max(worst_wall, wall)
    ok = (worst_d < FINAL_TOL and worst_dr < FINAL_TOL
          and worst_slack <= 0.0 and worst_wall < 30.0)
    assert record_acceptance(
        5, ok, "5 seeds: final disagreement %.2e, rate %.2e, V-slack %.2e, "
        "max wall %.1f s" % (worst_d, worst_dr, worst_slack, worst_wall))


def test_criterion_6_leader_tracking(tracking_logs):
    worst_t = worst_tr = worst_slack = -np.inf
    worst_margin = worst_wall = 0.0
    for seed, (log, wall) in tracking_logs.items():
        m = metrics(log)
        worst_t = max(worst_t, m["tracking_error_final"])
        worst_tr = max(worst_tr, m["tracking_rate_final"])
        worst_slack = max(worst_slack, v_slack_violation(log.lyapunov))
        worst_margin = max(worst_margin, estimate_bound_margin(log))
        worst_wall = max(worst_wall, wall)
    ok = (worst_t < FINAL_TOL and worst_tr < FINAL_TOL and worst_slack <= 0.0
          and worst_margin <= 1.0 and worst_wall < 30.0)
    assert record_acceptance(
        6, ok, "5 seeds: final tracking error %.2e, rate %.2e, V-slack %.2e, "
        "estimate-bound margin %.2f, max wall %.1f s"
        % (worst_t, worst_tr, worst_slack, worst_margin, worst_wall))


def test_criterion_7_perfect_knowledge_closed_loop():
    start = perf_counter()
    scenario = single_craft_scenario(perfect=True, duration=5.0)
    log = Simulation(scenario).run(decimate=1)

    t = log.times
    s = log.filtered_error[:, 0, :]
    sigma = log.sigma[:, 0, :]
    sigma_dot = mrp_rate(sigma, log.omega[:, 0, :])
    j = scenario.spacecraft[0].inertia.matrix
    k = scenario.spacecraft[0].gains.K

    s_dot = np.gradient(s, t, axis=0)
    resid = (mat_vec(h_star(j, sigma), s_dot)
             + mat_vec(c_star(j, sigma, sigma_dot), s)
             + s @ k.T)
    worst = float(np.linalg.norm(resid, axis=1)[2:-2].max())
    elapsed = perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    assert record_acceptance(
        7, ok, "closed-loop identity residual %.2e from logged data, %.2f s"
        % (worst, elapsed))


def test_criterion_8_determinism_and_step_refinement(tmp_path):
    start = perf_counter()
    args = ["run", "--preset", "paper-leaderless", "--seed", "3",
            "--duration", "2.0", "--decimate", "5"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    bytes_a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    identical = bytes_a == bytes_b

    coarse = Simulation(single_craft_scenario(dt=0.005, duration=5.0)).run()
    fine = Simulation(single_craft_scenario(dt=0.0025, duration=5.0)).run()
    refine_diff = float(np.linalg.norm(coarse.sigma[-1] - fine.sigma[-1]))
    elapsed = perf_counter() - start
    ok = identical and refine_diff <= 1e-6
    assert record_acceptance(
        8, ok, "same-seed CSVs byte-identical: %s, dt-halving final attitude "
        "shift %.2e, %.2f s" % (identical, refine_diff, elapsed))


def test_criterion_9_estimates_bounded_without_convergence(tracking_logs):
    log, _ = tracking_logs[1]
    theta_true = np.stack([c.inertia.theta for c in log.scenario.spacecraft])
    final_err = np.linalg.norm(log.theta_hat[-1] - theta_true, axis=1)
    margin = estimate_bound_margin(log)
    # Parameter estimates are only required to stay inside the certificate
    # bound; nothing in this suite asserts convergence to the true values.
    ok = margin <= 1.0
    assert record_acceptance(
        9, ok, "estimate-bound margin %.2f; final estimate errors "
        "[%.2f, %.2f] tolerated without convergence"
        % (margin, final_err.min(), final_err.max()))
