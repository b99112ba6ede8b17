"""Directed communication graphs: validity checks, Laplacian, aggregation."""
import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from attsync.errors import ConfigError
from attsync.topology import (
    CommTopology,
    aggregate_weights,
    degree_matrix,
    has_directed_cycle,
    has_directed_spanning_tree,
    laplacian,
    leader_reachable,
    leader_rooted_valid,
    leaderless_valid,
    neighborhood_aggregate,
)
from tests.conftest import FLEET_ADJ, FLEET_LEADER_B, digraphs

RNG = np.random.default_rng(11)


def brute_force_spanning_tree(adj):
    """Some root reaches every node along information flow (j -> i iff a_ij > 0)."""
    n = adj.shape[0]
    for root in range(n):
        seen = {root}
        frontier = [root]
        while frontier:
            j = frontier.pop()
            for i in range(n):
                if adj[i, j] > 0 and i not in seen:
                    seen.add(i)
                    frontier.append(i)
        if len(seen) == n:
            return True
    return False


def random_digraph(rng, n, density, dyadic=False):
    """Random weighted digraph; dyadic weights make float sums exact."""
    if dyadic:
        adj = rng.integers(0, 64, (n, n)).astype(float) / 64.0
        adj *= rng.random((n, n)) < density
    else:
        adj = rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(adj, 0.0)
    return adj


def test_comm_topology_validation():
    with pytest.raises(ValueError):
        CommTopology(np.ones((2, 3)))
    with pytest.raises(ValueError):
        CommTopology(np.array([[1.0, 0.0], [0.0, 0.0]]))  # self loop
    with pytest.raises(ValueError):
        CommTopology(np.array([[0.0, -1.0], [0.0, 0.0]]))  # negative weight
    with pytest.raises(ValueError):
        CommTopology(np.array([[0.0, np.inf], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        CommTopology(np.zeros((2, 2)), leader_weights=np.array([1.0]))
    with pytest.raises(ValueError):
        CommTopology(np.zeros((2, 2)), leader_weights=np.array([1.0, -1.0]))


def test_laplacian_structure():
    adj = random_digraph(RNG, 5, 0.6)
    lap = laplacian(CommTopology(adj))
    off = lap - np.diag(np.diagonal(lap))
    assert np.array_equal(off, -adj)
    assert np.array_equal(np.diagonal(lap), adj.sum(axis=1))


def test_laplacian_rows_sum_to_zero_exactly_on_exact_weights():
    # Dyadic weights (multiples of 1/64) make every float summation order
    # exact, so the row-sum identity holds bit-for-bit.
    for _ in range(100):
        n = int(RNG.integers(2, 7))
        adj = random_digraph(RNG, n, 0.5, dyadic=True)
        lap = laplacian(CommTopology(adj))
        assert np.array_equal(lap @ np.ones(n), np.zeros(n))
        assert np.array_equal(lap.sum(axis=1), np.zeros(n))


def test_laplacian_rows_sum_to_zero_generic_weights():
    for _ in range(100):
        n = int(RNG.integers(2, 7))
        adj = random_digraph(RNG, n, 0.5)
        lap = laplacian(CommTopology(adj))
        assert np.abs(lap @ np.ones(n)).max() <= 8 * n * np.finfo(float).eps


def test_laplacian_empty_graph_is_zero_matrix():
    assert np.array_equal(laplacian(CommTopology(np.zeros((4, 4)))), np.zeros((4, 4)))


def test_laplacian_fleet_graph():
    lap = laplacian(CommTopology(FLEET_ADJ.copy()))
    assert np.array_equal(lap, np.diag([3.0, 1, 2, 1, 1, 1]) - FLEET_ADJ)


def test_degree_matrix_fleet_graph():
    topo = CommTopology(FLEET_ADJ.copy(), leader_weights=FLEET_LEADER_B.copy())
    assert np.array_equal(degree_matrix(topo), np.diag([3.0, 1, 2, 1, 1, 1]))


def test_spanning_tree_matches_brute_force_all_3_node():
    count = 0
    for bits in itertools.product([0, 1], repeat=6):
        adj = np.zeros((3, 3))
        adj[0, 1], adj[0, 2], adj[1, 0], adj[1, 2], adj[2, 0], adj[2, 1] = bits
        topo = CommTopology(adj)
        assert has_directed_spanning_tree(topo) == brute_force_spanning_tree(adj)
        count += 1
    # all 64 labeled loop-free digraphs on 3 nodes were enumerated
    assert count == 64


def test_spanning_tree_matches_brute_force_random():
    for _ in range(500):
        n = int(RNG.integers(4, 7))
        adj = random_digraph(RNG, n, RNG.uniform(0.1, 0.5))
        topo = CommTopology(adj)
        assert has_directed_spanning_tree(topo) == brute_force_spanning_tree(adj)


def test_cycle_detection_matches_nilpotency():
    # a digraph is acyclic exactly when its adjacency is nilpotent: A^n = 0
    rng = np.random.default_rng(5)  # own stream: later tests keep their draws
    for n in (1, 2, 3, 4, 5):
        for _ in range(200 if n > 3 else 50):
            adj = random_digraph(rng, n, rng.uniform(0.05, 0.4))
            acyclic = not np.linalg.matrix_power(adj, n).any()
            assert has_directed_cycle(CommTopology(adj)) == (not acyclic)
    assert has_directed_cycle(CommTopology(FLEET_ADJ.copy()))  # 1 -> 4 -> 1
    chain = np.diag(np.ones(3), -1)  # 1 -> 2 -> 3 -> 4
    assert not has_directed_cycle(CommTopology(chain))


def test_spanning_tree_examples():
    assert has_directed_spanning_tree(CommTopology(FLEET_ADJ.copy()))
    assert not has_directed_spanning_tree(CommTopology(np.zeros((2, 2))))
    ring = np.zeros((4, 4))
    for i in range(4):
        ring[i, (i + 1) % 4] = 1.0
    assert has_directed_spanning_tree(CommTopology(ring))


def test_leaderless_validity():
    assert leaderless_valid(CommTopology(FLEET_ADJ.copy()))
    # hub that everyone hears but that hears nobody: spanning tree exists,
    # yet the silent center has no information source
    star = np.zeros((4, 4))
    star[1:, 0] = 1.0
    assert has_directed_spanning_tree(CommTopology(star))
    assert not leaderless_valid(CommTopology(star))
    assert not leaderless_valid(CommTopology(np.zeros((3, 3))))
    # craft 2 stops listening: no row sum, no validity
    cut = FLEET_ADJ.copy()
    cut[1, :] = 0.0
    assert not leaderless_valid(CommTopology(cut))


def test_leaderless_valid_implies_simple_zero_eigenvalue():
    checked = 0
    while checked < 50:
        n = int(RNG.integers(3, 7))
        adj = random_digraph(RNG, n, RNG.uniform(0.3, 0.8))
        topo = CommTopology(adj)
        if not leaderless_valid(topo):
            continue
        eig = np.linalg.eigvals(laplacian(topo))
        near_zero = np.abs(eig) < 1e-9
        assert near_zero.sum() == 1
        assert np.min(eig[~near_zero].real) > -1e-9
        checked += 1


def test_leader_rooted_validity():
    rooted = CommTopology(FLEET_ADJ.copy(), leader_weights=FLEET_LEADER_B.copy())
    assert leader_rooted_valid(rooted)
    assert leader_reachable(rooted).all()
    unrooted = CommTopology(FLEET_ADJ.copy(), leader_weights=np.zeros(6))
    assert not leader_rooted_valid(unrooted)
    solo = CommTopology(np.zeros((1, 1)), leader_weights=np.array([1.0]))
    assert leader_rooted_valid(solo)
    with pytest.raises(ConfigError):
        leader_reachable(CommTopology(FLEET_ADJ.copy()))


def test_neighborhood_aggregate_fleet_examples():
    topo = CommTopology(FLEET_ADJ.copy(), leader_weights=FLEET_LEADER_B.copy())
    values = RNG.normal(size=(6, 3))
    # craft 2 hears only craft 1: aggregate is craft 1's value verbatim
    assert np.array_equal(neighborhood_aggregate(topo, 1, values), values[0])
    # craft 1 hears crafts 4, 5, 6 with unit weights
    want = (values[3] + values[4] + values[5]) / 3.0
    assert np.allclose(neighborhood_aggregate(topo, 0, values), want, atol=1e-15)
    # with the leader edge, the reference joins the average
    ref = RNG.normal(size=3)
    want = (values[3] + values[4] + values[5] + ref) / 4.0
    got = neighborhood_aggregate(topo, 0, values, leader_value=ref)
    assert np.allclose(got, want, atol=1e-15)


def test_neighborhood_aggregate_errors():
    topo = CommTopology(np.zeros((2, 2)))
    with pytest.raises(ConfigError):
        neighborhood_aggregate(topo, 0, np.zeros((2, 3)))
    # craft numbers are 1-based, as in graph_checks: index 1 is node 2
    starved = CommTopology(np.array([[0.0, 1.0], [0.0, 0.0]]), leader_weights=np.zeros(2))
    with pytest.raises(ConfigError, match="^node 2 has no in-neighbors"):
        neighborhood_aggregate(starved, 1, np.zeros((2, 3)))
    with pytest.raises(ConfigError, match="^node 2 has no in-neighbors"):
        aggregate_weights(starved)
    with pytest.raises(ConfigError, match="^node 2 has no in-neighbors"):
        aggregate_weights(starved, with_leader=True)
    with pytest.raises(ConfigError):
        neighborhood_aggregate(
            CommTopology(FLEET_ADJ.copy()), 0, np.zeros((6, 3)), leader_value=np.zeros(3)
        )


@given(st.data())
def test_neighborhood_aggregate_convex_hull(data):
    leader = data.draw(st.booleans())
    topo = data.draw(digraphs(leader))
    vectors = arrays(float, (topo.n + 1, 3),
                     elements=st.floats(-1e3, 1e3, allow_subnormal=False))
    values, lead = np.split(data.draw(vectors), [topo.n])
    lead = lead[0] if leader else None
    for i in range(topo.n):
        used = values[topo.adjacency[i] > 0.0]
        if leader and topo.leader_weights[i] > 0.0:
            used = np.vstack([used, lead])
        if not len(used):
            with pytest.raises(ConfigError):
                neighborhood_aggregate(topo, i, values, lead)
            continue
        agg = neighborhood_aggregate(topo, i, values, lead)
        tol = 1e-14 * np.abs(used).max()
        assert np.all(agg >= used.min(axis=0) - tol)
        assert np.all(agg <= used.max(axis=0) + tol)


def test_aggregate_weights_rows_normalized():
    topo = CommTopology(FLEET_ADJ.copy(), leader_weights=FLEET_LEADER_B.copy())
    w = aggregate_weights(topo)
    assert w.shape == (6, 6)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-15)
    w2 = aggregate_weights(topo, with_leader=True)
    assert w2.shape == (6, 7)  # the leader is the last source
    assert np.allclose(w2.sum(axis=1), 1.0, atol=1e-15)
    assert w2[0, 6] > 0 and np.array_equal(w2[1:, 6], np.zeros(5))
    assert np.array_equal(w2[1:, :6], w[1:])  # rows without a leader edge


def test_aggregate_weights_match_per_node():
    topo = CommTopology(FLEET_ADJ.copy(), leader_weights=FLEET_LEADER_B.copy())
    values = RNG.normal(size=(6, 3))
    leader = RNG.normal(size=3)
    w = aggregate_weights(topo, with_leader=True)
    for i in range(6):
        got = neighborhood_aggregate(topo, i, values, leader_value=leader)
        want = w[i] @ np.vstack([values, leader])
        assert np.allclose(got, want, atol=1e-14)


def test_stacked_error_identity():
    # e_i = sigma_i - (neighborhood average) stacks to (I - D^-1 A) sigma,
    # i.e. blockwise D^-1 L sigma, matching the per-node computation.
    topo = CommTopology(FLEET_ADJ.copy())
    sigma = RNG.normal(size=(6, 3))
    d_inv = np.linalg.inv(degree_matrix(topo))
    stacked = np.kron(d_inv @ laplacian(topo), np.eye(3)) @ sigma.reshape(-1)
    per_node = np.stack(
        [sigma[i] - neighborhood_aggregate(topo, i, sigma) for i in range(6)]
    )
    assert np.abs(stacked - per_node.reshape(-1)).max() <= 1e-12
