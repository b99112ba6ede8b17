"""Directed communication graphs between spacecraft.

Edge convention: adjacency[i, j] > 0 means spacecraft i receives the state
of spacecraft j (an edge from j to i, with weight a_ij).  Self-loops are
disallowed.  In tracking mode an extra nonnegative weight vector b couples
some spacecraft to a virtual leader broadcasting the reference attitude.

Validity conditions used by the two control modes:

* leaderless: every node has at least one in-neighbor and the graph
  contains a directed spanning tree;
* leader-rooted: in the graph augmented with the leader node, the leader
  reaches every spacecraft through directed edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class CommTopology:
    """Weighted digraph over n spacecraft, optionally with leader weights.

    adjacency : (n, n) nonnegative, zero diagonal.
    leader_weights : (n,) nonnegative, or None in leaderless scenarios.
    """

    adjacency: np.ndarray
    leader_weights: np.ndarray | None = None

    def __post_init__(self):
        a = np.array(self.adjacency, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be square")
        if not np.all(np.isfinite(a)):
            raise ValueError("adjacency entries must be finite")
        if np.any(a < 0.0):
            raise ValueError("adjacency entries must be nonnegative")
        if np.any(np.diagonal(a) != 0.0):
            raise ValueError("adjacency diagonal must be zero (no self-loops)")
        a.flags.writeable = False
        object.__setattr__(self, "adjacency", a)
        if self.leader_weights is not None:
            b = np.array(self.leader_weights, dtype=float)
            if b.shape != (a.shape[0],):
                raise ValueError("leader_weights must have one entry per spacecraft")
            if not np.all(np.isfinite(b)) or np.any(b < 0.0):
                raise ValueError("leader_weights must be finite and nonnegative")
            b.flags.writeable = False
            object.__setattr__(self, "leader_weights", b)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


def degree_matrix(topo: CommTopology, with_leader: bool = False) -> np.ndarray:
    """Diagonal matrix of weighted in-degrees (row sums of the adjacency).

    With ``with_leader`` the leader weight b_i is added to row i, matching
    the denominator of the leader-coupled neighborhood average.
    """
    deg = topo.adjacency.sum(axis=1)
    if with_leader:
        if topo.leader_weights is None:
            raise ConfigError("topology has no leader weights")
        deg = deg + topo.leader_weights
    return np.diag(deg)


def laplacian(topo: CommTopology) -> np.ndarray:
    """Graph Laplacian L = D - A; rows sum to zero."""
    return degree_matrix(topo) - topo.adjacency


def _reach_from(received_from: np.ndarray, roots) -> np.ndarray:
    """Boolean mask of nodes reachable from `roots` following directed edges.

    ``received_from[i, j]`` true means the edge j -> i exists, so from node
    j one reaches every i with a true entry in column j.
    """
    n = received_from.shape[0]
    seen = np.zeros(n, dtype=bool)
    stack = list(roots)
    seen[list(roots)] = True
    while stack:
        j = stack.pop()
        for i in np.nonzero(received_from[:, j])[0]:
            if not seen[i]:
                seen[i] = True
                stack.append(i)
    return seen


def has_directed_spanning_tree(topo: CommTopology) -> bool:
    """True if some node reaches every other node along directed edges."""
    mask = topo.adjacency > 0.0
    return any(_reach_from(mask, [r]).all() for r in range(topo.n))


def leader_reachable(topo: CommTopology) -> np.ndarray:
    """Boolean mask of spacecraft the virtual leader reaches.

    A craft is reachable if it holds a leader edge (b_i > 0) or lies
    downstream of one through directed inter-craft edges.
    """
    if topo.leader_weights is None:
        raise ConfigError("leader reachability requires leader weights")
    roots = np.nonzero(topo.leader_weights > 0.0)[0]
    if roots.size == 0:
        return np.zeros(topo.n, dtype=bool)
    return _reach_from(topo.adjacency > 0.0, roots)


def graph_checks(topo: CommTopology, mode: str) -> list:
    """The graph condition of a control mode as a list of (ok, text) checks.

    The topology is valid for the mode exactly when every check is ok; the
    texts name each failure (craft numbers are 1-based).
    """
    checks = []
    if mode == "leaderless":
        for i in np.nonzero(topo.adjacency.sum(axis=1) == 0.0)[0]:
            checks.append((False, "node %d has no in-neighbor" % (i + 1)))
        checks.append((has_directed_spanning_tree(topo), "directed spanning tree exists"))
    elif topo.leader_weights is None:
        checks.append((False, "tracking mode requires leader weights"))
    elif not np.any(topo.leader_weights > 0.0):
        checks.append((False, "leader reaches no node"))
    else:
        reached = leader_reachable(topo)
        for i in np.nonzero(~reached)[0]:
            checks.append((False, "leader does not reach node %d" % (i + 1)))
        checks.append((bool(reached.all()), "leader reaches every node"))
    return checks


def leaderless_valid(topo: CommTopology) -> bool:
    """Every node has an in-neighbor and a directed spanning tree exists."""
    return all(ok for ok, _ in graph_checks(topo, "leaderless"))


def leader_rooted_valid(topo: CommTopology) -> bool:
    """The virtual leader reaches every spacecraft in the augmented graph."""
    return all(ok for ok, _ in graph_checks(topo, "tracking"))


def neighborhood_aggregate(topo: CommTopology, i: int, values, leader_value=None):
    """Convex neighborhood average of per-spacecraft vectors at node i.

    values : sequence of n vectors (or an (n, d) array).
    leader_value : optional leader vector; when given, the leader weight
        b_i joins both the numerator and the denominator.

    Raises ConfigError when node i has a zero denominator (no in-neighbors
    and, if applicable, no leader edge).
    """
    values = np.asarray(values, dtype=float)
    row = topo.adjacency[i]
    den = row.sum()
    num = row @ values
    if leader_value is not None:
        if topo.leader_weights is None:
            raise ConfigError("leader_value given but topology has no leader weights")
        b_i = topo.leader_weights[i]
        den = den + b_i
        num = num + b_i * np.asarray(leader_value, dtype=float)
    if den == 0.0:
        raise ConfigError("node %d has no in-neighbors to aggregate over" % i)
    return num / den


def aggregate_weights(topo: CommTopology, with_leader: bool = False):
    """Row-normalized weights used by the fleet-wide aggregate.

    Returns (W, c) with W = A / den row-wise and c_i = b_i / den_i (zeros
    when ``with_leader`` is false), where den_i is the full denominator.
    Aggregates are then W @ values + c[:, None] * leader_value, matching
    `neighborhood_aggregate` node by node.
    """
    den = topo.adjacency.sum(axis=1)
    if with_leader:
        if topo.leader_weights is None:
            raise ConfigError("topology has no leader weights")
        den = den + topo.leader_weights
    if np.any(den == 0.0):
        bad = int(np.nonzero(den == 0.0)[0][0])
        raise ConfigError("node %d has no in-neighbors to aggregate over" % bad)
    w = topo.adjacency / den[:, None]
    if with_leader:
        c = topo.leader_weights / den
    else:
        c = np.zeros(topo.n)
    return w, c
