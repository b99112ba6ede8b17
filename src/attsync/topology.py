"""Directed communication graphs between spacecraft.

Edge convention: adjacency[i, j] > 0 means spacecraft i receives the state
of spacecraft j (an edge from j to i, with weight a_ij).  Self-loops are
disallowed.  In tracking mode an extra nonnegative weight vector b couples
some spacecraft to a virtual leader, node n, broadcasting the reference.

`CommTopology.edges` keeps the graph once: (receiver, source, weight) of each
edge in the row-major order of [A | b], by receiver, sources ascending, the
leader last.  The simulator sums along it; each check below is O(n + E):

* leaderless: every node has an in-neighbor and a directed spanning tree
  exists.  In a sweep of traversals from each still unvisited craft, the one
  that visits a tree root reaches all that is left, so it is the last, and
  its root reaches that tree root: one more traversal from it decides;
* leader-rooted: one traversal from node n reaches every spacecraft.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class CommTopology:
    """Weighted digraph over n spacecraft, optionally with leader weights.

    adjacency : (n, n) nonnegative, zero diagonal.
    leader_weights : (n,) nonnegative; None in leaderless scenarios (`Scenario` checks).
    edges : derived (receiver, source, weight) arrays, see the module docstring.
    """

    adjacency: np.ndarray
    leader_weights: np.ndarray | None = None
    edges: tuple = field(init=False, repr=False, compare=False)

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
        full = a if self.leader_weights is None else np.column_stack([a, self.leader_weights])
        dst, src = np.nonzero(full)
        object.__setattr__(self, "edges", (dst, src, full[dst, src]))
        for x in self.edges:
            x.flags.writeable = False

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


def _out_edges(topo: CommTopology):
    """(starts, receivers): node j's edges lead to receivers[starts[j]:starts[j + 1]]."""
    dst, src, _ = topo.edges
    order = np.argsort(src, kind="stable")
    return np.searchsorted(src[order], np.arange(topo.n + 2)), dst[order]


def _reach_from(graph, roots, seen) -> np.ndarray:
    """Flag in `seen` every node reachable from the unseen `roots`, each expanded once."""
    starts, receivers = graph
    stack = list(roots)
    seen[stack] = True
    while stack:
        j = stack.pop()
        nxt = receivers[starts[j]:starts[j + 1]]
        nxt = nxt[~seen[nxt]]
        seen[nxt] = True
        stack.extend(nxt.tolist())
    return seen


def has_directed_spanning_tree(topo: CommTopology) -> bool:
    """True if some craft reaches every other craft along directed edges."""
    graph, n = _out_edges(topo), topo.n
    seen, root = np.zeros(n + 1, dtype=bool), None
    for r in range(n):  # a sweep: each craft is expanded by one traversal only
        if not seen[r]:
            root = r
            _reach_from(graph, [r], seen)
    return root is not None and bool(_reach_from(graph, [root], np.zeros(n + 1, bool))[:n].all())


def leader_reachable(topo: CommTopology) -> np.ndarray:
    """Boolean mask of spacecraft the virtual leader reaches along directed edges."""
    if topo.leader_weights is None:
        raise ConfigError("leader reachability requires leader weights")
    return _reach_from(_out_edges(topo), [topo.n], np.zeros(topo.n + 1, bool))[:topo.n]


def in_degrees(topo: CommTopology) -> np.ndarray:
    """Each craft's weighted in-degree sum_j a_ij, summed along its craft edges."""
    dst, src, w = topo.edges
    return np.bincount(dst[src < topo.n], w[src < topo.n], minlength=topo.n)


def graph_checks(topo: CommTopology, mode: str) -> list:
    """The graph condition of a control mode as a list of (ok, text) checks.

    The topology is valid for the mode exactly when every check is ok; the
    texts name each failure (craft numbers are 1-based).
    """
    checks = []
    if mode == "leaderless":
        for i in np.nonzero(in_degrees(topo) == 0.0)[0]:
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


def aggregate_weights(topo: CommTopology, with_leader: bool = False):
    """Row-normalized weights W, the dense reference of the simulator's edge sum:
    A / den row-wise, N x N, or with the leader N x (N+1), b / den as its last
    column (den_i is the full denominator); row i of W @ values, the leader's
    value appended, is craft i's neighborhood average.  A node with a zero
    denominator raises ConfigError naming it from 1.
    """
    num, den = topo.adjacency, topo.adjacency.sum(axis=1)
    if with_leader:
        if topo.leader_weights is None:
            raise ConfigError("topology has no leader weights")
        num = np.column_stack([num, topo.leader_weights])
        den = den + topo.leader_weights
    if np.any(den == 0.0):
        bad = int(np.nonzero(den == 0.0)[0][0])
        raise ConfigError("node %d has no in-neighbors to aggregate over" % (bad + 1))
    return num / den[:, None]
