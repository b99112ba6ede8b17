"""Directed communication graphs: validity checks, Laplacian, aggregation."""
import itertools
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from attsync.errors import ConfigError
from attsync.topology import (
    CommTopology,
    aggregate_weights,
    graph_checks,
    has_directed_spanning_tree,
    in_degrees,
    leader_reachable,
    leader_rooted_valid,
    leaderless_valid,
)
from tests.conftest import FLEET_ADJ, FLEET_LEADER_B, digraphs
from tests.oracles import degree_matrix, laplacian

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
    # the leader on craft 2 reaches craft 3 through it, and no other craft
    partial = CommTopology(FLEET_ADJ.copy(), leader_weights=np.eye(6)[1])
    assert not leader_rooted_valid(partial)
    assert [text for ok, text in graph_checks(partial, "tracking") if not ok] == [
        "leader does not reach node %d" % k for k in (1, 4, 5, 6)] + [
        "leader reaches every node"]
    solo = CommTopology(np.zeros((1, 1)), leader_weights=np.array([1.0]))
    assert leader_rooted_valid(solo)
    with pytest.raises(ConfigError):
        leader_reachable(CommTopology(FLEET_ADJ.copy()))


@given(digraphs(leader=True))
def test_leader_reach_matches_matrix_reach(topo):
    # the leader is node n of the augmented matrix; aug[i, j] > 0 is j -> i
    n = topo.n
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n], aug[:n, n] = topo.adjacency, topo.leader_weights
    reached = np.eye(n + 1, dtype=bool)[n]
    for _ in range(n):  # a shortest path has at most n edges
        reached = reached | ((aug > 0.0) @ reached)
    assert np.array_equal(leader_reachable(topo), reached[:n])


@given(digraphs(leader=True))
def test_edge_list_is_the_row_major_order_of_a_and_b(topo):
    full = np.column_stack([topo.adjacency, topo.leader_weights])
    dst, src = np.nonzero(full)
    got = topo.edges
    for have, want in zip(got, (dst, src, full[dst, src])):
        assert np.array_equal(have, want) and have.dtype == want.dtype
        assert not have.flags.writeable
    leaderless = CommTopology(topo.adjacency)
    assert np.array_equal(leaderless.edges[1], src[src < topo.n])


@st.composite
def sparse_digraphs(draw, weight):
    """CommTopology on 2..40 craft, each hearing up to 5 others with weights from
    `weight`, with leader weights or none."""
    n = draw(st.integers(2, 40))
    adj = np.zeros((n, n))
    for i in range(n):
        for j in draw(st.lists(st.integers(0, n - 2), max_size=5, unique=True)):
            adj[i, j + (j >= i)] = draw(weight)
    return CommTopology(adj, draw(st.none() | arrays(float, n, elements=st.floats(0.0, 2.0))))


@given(sparse_digraphs(st.integers(1, 2**20).map(float)))
def test_in_degrees_equal_the_dense_row_sums_on_integer_weights(topo):
    # the edge sum adds each craft's in-edges in order, the dense sum a whole row
    # pairwise: on integers both are exact.  Leader weights are no in-degree
    assert np.array_equal(in_degrees(topo), topo.adjacency.sum(axis=1))


@given(sparse_digraphs(st.floats(1e-6, 1e6)))
def test_in_degrees_are_within_4_ulp_of_the_dense_row_sums(topo):
    # at most 5 positive terms: each sum is within 2 ulp of the exact one
    got, want = in_degrees(topo), topo.adjacency.sum(axis=1)
    assert (np.abs(got - want) <= 4 * np.spacing(np.maximum(got, want))).all()


def test_leaderless_check_is_linear_on_a_late_root_graph():
    # craft i hears craft i + 1 and the last two hear each other: only those
    # two reach every craft, so trying roots in index order costs O(n^2)
    # traversals; the mother-vertex sweep costs two
    n = 2000
    adj = np.zeros((n, n))
    adj[np.arange(n - 1), np.arange(1, n)] = 1.0
    adj[n - 1, n - 2] = 1.0
    topo = CommTopology(adj)
    start = perf_counter()
    checks = graph_checks(topo, "leaderless")
    assert perf_counter() - start < 1.0
    assert checks == [(True, "directed spanning tree exists")]


def test_neighborhood_aggregate_fleet_examples():
    topo = CommTopology(FLEET_ADJ.copy(), leader_weights=FLEET_LEADER_B.copy())
    values = RNG.normal(size=(6, 3))
    w = aggregate_weights(topo)
    # craft 2 hears only craft 1: aggregate is craft 1's value verbatim
    assert np.array_equal(w[1] @ values, values[0])
    # craft 1 hears crafts 4, 5, 6 with unit weights
    want = (values[3] + values[4] + values[5]) / 3.0
    assert np.allclose(w[0] @ values, want, atol=1e-15)
    # with the leader edge, the reference joins the average
    ref = RNG.normal(size=3)
    want = (values[3] + values[4] + values[5] + ref) / 4.0
    got = aggregate_weights(topo, with_leader=True)[0] @ np.vstack([values, ref])
    assert np.allclose(got, want, atol=1e-15)


def test_neighborhood_aggregate_errors():
    with pytest.raises(ConfigError, match="^node 1 has no in-neighbors"):
        aggregate_weights(CommTopology(np.zeros((2, 2))))
    # craft numbers are 1-based, as in graph_checks: index 1 is node 2
    starved = CommTopology(np.array([[0.0, 1.0], [0.0, 0.0]]), leader_weights=np.zeros(2))
    with pytest.raises(ConfigError, match="^node 2 has no in-neighbors"):
        aggregate_weights(starved)
    with pytest.raises(ConfigError, match="^node 2 has no in-neighbors"):
        aggregate_weights(starved, with_leader=True)
    with pytest.raises(ConfigError, match="no leader weights"):
        aggregate_weights(CommTopology(FLEET_ADJ.copy()), with_leader=True)


@given(st.data())
def test_neighborhood_aggregate_convex_hull(data):
    leader = data.draw(st.booleans())
    topo = data.draw(digraphs(leader))
    vectors = arrays(float, (topo.n + 1, 3),
                     elements=st.floats(-1e3, 1e3, allow_subnormal=False))
    sources = data.draw(vectors)[:topo.n + leader]  # the leader's value last
    heard = np.column_stack([topo.adjacency, topo.leader_weights]) if leader else topo.adjacency
    starved = np.flatnonzero(~(heard > 0.0).any(axis=1))
    if starved.size:  # the first craft that hears nobody is named, from 1
        with pytest.raises(ConfigError, match="^node %d has no" % (starved[0] + 1)):
            aggregate_weights(topo, with_leader=leader)
        return
    agg = aggregate_weights(topo, with_leader=leader) @ sources
    for i in range(topo.n):
        used = sources[heard[i] > 0.0]
        tol = 1e-14 * np.abs(used).max()
        assert np.all(agg[i] >= used.min(axis=0) - tol)
        assert np.all(agg[i] <= used.max(axis=0) + tol)


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
    # each row is the receiver's weighted mean of what it hears, leader last
    topo = CommTopology(FLEET_ADJ.copy(), leader_weights=FLEET_LEADER_B.copy())
    values = RNG.normal(size=(6, 3))
    leader = RNG.normal(size=3)
    got = aggregate_weights(topo, with_leader=True) @ np.vstack([values, leader])
    want = [(values[3] + values[4] + values[5] + leader) / 4.0, values[0],
            (values[0] + values[1]) / 2.0, values[0], values[3], values[4]]
    assert np.allclose(got, want, rtol=0.0, atol=1e-14)


def test_stacked_error_identity():
    # e_i = sigma_i - (neighborhood average) stacks to (I - D^-1 A) sigma,
    # i.e. blockwise D^-1 L sigma, matching the row-by-row computation.
    topo = CommTopology(FLEET_ADJ.copy())
    sigma = RNG.normal(size=(6, 3))
    d_inv = np.linalg.inv(degree_matrix(topo))
    stacked = np.kron(d_inv @ laplacian(topo), np.eye(3)) @ sigma.reshape(-1)
    per_node = sigma - aggregate_weights(topo) @ sigma
    assert np.abs(stacked - per_node.reshape(-1)).max() <= 1e-12
