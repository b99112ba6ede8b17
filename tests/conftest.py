"""Shared fixtures: the six-craft fleet pieces and small scenario builders."""
import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from attsync.control import GainSet, ReferenceTrajectory
from attsync.rigid_body import InertiaParams, SpacecraftState
from attsync.simulator import Scenario, Spacecraft
from attsync.topology import CommTopology

# inertia set used by the built-in presets (kg m^2)
FLEET_J = [
    [[1.0, 0.1, 0.1], [0.1, 0.1, 0.1], [0.1, 0.1, 0.9]],
    [[1.5, 0.2, 0.3], [0.2, 0.9, 0.4], [0.3, 0.4, 2.0]],
    [[0.8, 0.1, 0.2], [0.1, 0.7, 0.3], [0.2, 0.3, 1.1]],
    [[1.2, 0.3, 0.7], [0.3, 0.9, 0.2], [0.7, 0.2, 1.4]],
    [[0.9, 0.15, 0.3], [0.15, 1.2, 0.4], [0.3, 0.4, 1.2]],
    [[1.1, 0.35, 0.45], [0.35, 1.0, 0.5], [0.45, 0.5, 1.3]],
]

# communication digraph of the presets: row i lists who craft i hears
FLEET_ADJ = np.array([
    [0, 0, 0, 1, 1, 1],
    [1, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 1, 0],
], dtype=float)

FLEET_LEADER_B = np.array([1.0, 0, 0, 0, 0, 0])

# the presets' gains: Lambda = I, K = 3 I, Gamma = 3 I
PAPER_GAINS = GainSet(np.eye(3), 3.0 * np.eye(3), 3.0 * np.eye(6))

# attitudes with |x| spread log-uniformly over [1e-3, 1e3], and a rate
directions = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(np.array).filter(
    lambda v: np.linalg.norm(v) > 0.1)
attitudes = st.builds(lambda d, m: 10.0 ** m * d / np.linalg.norm(d),
                      directions, st.floats(-3.0, 3.0))

# rate-like vectors with |x| in [0.01, 17]
rates = st.builds(lambda d, m: 10.0 ** m * d, directions, st.floats(-1.0, 1.0))


def _spd(a, m):
    j = a @ a.T
    return InertiaParams(10.0 ** m * (0.5 * (j + j.T) + np.eye(3)))


# SPD inertias A A^T + I with entries of A in [-2, 2], scaled by 10^[-2, 2]
inertias = st.builds(_spd, arrays(float, (3, 3), elements=st.floats(-2.0, 2.0)),
                     st.floats(-2.0, 2.0))


@st.composite
def digraphs(draw, leader=False):
    """CommTopology on 2..6 craft, each weight 0 or in [0.1, 2]; with `leader`,
    leader weights drawn the same way (any craft may lack every edge)."""
    n = draw(st.integers(2, 6))
    weight = st.one_of(st.just(0.0), st.floats(0.1, 2.0))
    adj = draw(arrays(float, (n, n), elements=weight))
    np.fill_diagonal(adj, 0.0)
    return CommTopology(adj, draw(arrays(float, n, elements=weight)) if leader else None)


@pytest.fixture
def fleet_inertias():
    return [InertiaParams(np.array(j)) for j in FLEET_J]


@pytest.fixture
def fleet_topology():
    return CommTopology(FLEET_ADJ.copy())


@pytest.fixture
def unit_gains():
    return PAPER_GAINS


def single_craft_scenario(j=None, sigma0=(0.3, -0.2, 0.4), omega0=(0.2, 0.1, -0.3),
                          sigma_ref=(0.1, 0.3, 0.5), perfect=False, dt=0.005,
                          duration=5.0, accel_source="held", **kw):
    """One craft tracking a constant leader it hears directly."""
    j = np.array(j if j is not None else
                 [[1.0, 0.1, 0.2], [0.1, 0.9, 0.3], [0.2, 0.3, 1.1]])
    inertia = InertiaParams(j)
    craft = Spacecraft(
        inertia=inertia,
        initial_state=SpacecraftState(np.array(sigma0), np.array(omega0)),
        gains=PAPER_GAINS,
        theta_hat0=inertia.theta if perfect else np.zeros(6))
    topo = CommTopology(np.zeros((1, 1)), leader_weights=np.array([1.0]))
    return Scenario(
        spacecraft=(craft,), topology=topo, mode="tracking",
        reference=ReferenceTrajectory("constant", value=list(sigma_ref)),
        dt=dt, duration=duration,
        adaptation_enabled=not perfect, accel_source=accel_source, **kw)


def star_scenario(duration=3.0, **kw):
    """Leader -> craft 1 and leader -> craft 2 (b = [1, 2]): every craft hears the
    leader alone, the one graph the held source accepts."""
    states = [SpacecraftState(np.array([0.2, -0.1, 0.1]), np.array([0.1, 0.0, -0.1])),
              SpacecraftState(np.array([-0.1, 0.2, -0.2]), np.array([0.0, 0.1, 0.1]))]
    craft = tuple(Spacecraft(inertia=InertiaParams(np.array(j)), initial_state=st,
                             gains=PAPER_GAINS)
                  for j, st in zip(FLEET_J[:2], states))
    return Scenario(spacecraft=craft, topology=CommTopology(np.zeros((2, 2)), [1.0, 2.0]),
                    mode="tracking",
                    reference=ReferenceTrajectory("constant", value=[0.1, 0.0, -0.1]),
                    duration=duration, accel_source="held", **kw)


def pair_scenario(duration=2.0, mode="leaderless", **kw):
    """Two craft hearing each other; the smallest valid leaderless fleet."""
    states = [SpacecraftState(np.array([0.2, -0.1, 0.1]), np.array([0.1, 0.0, -0.1])),
              SpacecraftState(np.array([-0.1, 0.2, -0.2]), np.array([0.0, 0.1, 0.1]))]
    craft = []
    for j, st in zip(FLEET_J[:2], states):
        inertia = InertiaParams(np.array(j))
        craft.append(Spacecraft(inertia=inertia, initial_state=st,
                                gains=PAPER_GAINS))
    topo = CommTopology(np.array([[0.0, 1.0], [1.0, 0.0]]))
    extra = {}
    if mode == "tracking":
        topo = CommTopology(np.array([[0.0, 1.0], [1.0, 0.0]]),
                            leader_weights=np.array([1.0, 0.0]))
        extra["reference"] = ReferenceTrajectory("constant", value=[0.1, 0.0, -0.1])
    return Scenario(spacecraft=tuple(craft), topology=topo, mode=mode,
                    duration=duration, **extra, **kw)


# -- acceptance reporting -------------------------------------------------

ACCEPTANCE_LINES = []


def record_acceptance(number, passed, detail):
    line = "criterion %d: %s  (%s)" % (number, "PASS" if passed else "FAIL", detail)
    ACCEPTANCE_LINES.append((number, line))
    print(line)
    return passed


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
