"""Closed-loop fleet integration: stepping, logging, metrics, divergence."""
import dataclasses
import itertools
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from attsync import attmath, control, simulator
from attsync.attmath import (
    inverse_from_kinematics,
    kinematics_matrix,
    kinematics_matrix_inverse,
    mrp_shadow,
)
from attsync.config import preset
from attsync.control import GainSet, ReferenceTrajectory, controller_outputs
from attsync.errors import ConfigError, SimulationDiverged
from attsync.rigid_body import (
    InertiaParams,
    SpacecraftState,
    body_regression,
    h_star,
    mrp_rate,
)
from attsync.simulator import (
    Scenario,
    Simulation,
    Spacecraft,
    TrajectoryLog,
    metrics,
    random_initial_states,
)
from attsync.topology import CommTopology, aggregate_weights
from tests.conftest import (
    FLEET_J,
    PAPER_GAINS,
    _spd,
    attitudes,
    inertias,
    pair_scenario,
    rates,
    single_craft_scenario,
    star_scenario,
)
from tests import oracles
from tests.test_acceptance import V_SLACK, estimate_bound_margin, v_slack_violation


def with_states(sc, states):
    """The scenario with its craft started from the given states."""
    craft = tuple(dataclasses.replace(c, initial_state=s)
                  for c, s in zip(sc.spacecraft, states))
    return dataclasses.replace(sc, spacecraft=craft)


def ensemble(sc, size):
    """The scenario followed by size - 1 copies started from seeded states.

    Attitudes reach |sigma| = 0.95, where chart alignment picks shadows.
    """
    return [sc] + [with_states(sc, random_initial_states(seed, sc.n, 0.95, 0.3))
                   for seed in range(1, size)]


def with_parameters(sc, seed):
    """The scenario with seeded per-craft inertias 0.2 A A^T + 0.8 I, A in [-1, 1],
    diagonal gains and estimate priors in place of its own; states unchanged."""
    rng = np.random.default_rng(seed)
    craft = []
    for c in sc.spacecraft:
        a = rng.uniform(-1.0, 1.0, (3, 3))
        gains = GainSet(rng.uniform(0.5, 2.0) * np.eye(3), rng.uniform(1.0, 4.0) * np.eye(3),
                        np.diag(rng.uniform(1.0, 4.0, 6)))
        craft.append(dataclasses.replace(
            c, inertia=InertiaParams(0.2 * a @ a.T + 0.8 * np.eye(3)), gains=gains,
            theta_hat0=rng.uniform(-0.5, 0.5, 6)))
    return dataclasses.replace(sc, spacecraft=tuple(craft))


def parameter_ensemble(members):
    """The members, each but the first given its own seeded craft parameters."""
    return [sc if b == 0 else with_parameters(sc, b) for b, sc in enumerate(members)]


# ----------------------------------------------------------- validation


def test_scenario_validation_errors():
    base = pair_scenario()
    with pytest.raises(ConfigError):
        dataclasses.replace(base, mode="formation")
    with pytest.raises(ConfigError):
        dataclasses.replace(base, dt=0.0)
    with pytest.raises(ConfigError):
        dataclasses.replace(base, dt=np.inf)
    with pytest.raises(ConfigError):
        dataclasses.replace(base, duration=0.001)  # shorter than one step
    with pytest.raises(ConfigError, match="step count"):
        dataclasses.replace(base, dt=1e-310)  # duration / dt overflows
    with pytest.raises(ConfigError):
        dataclasses.replace(base, accel_source="extrapolated")
    with pytest.raises(ConfigError):
        dataclasses.replace(base, smoothing_rate=0.0)
    with pytest.raises(ConfigError):
        dataclasses.replace(base, rate_leak=-0.1)
    with pytest.raises(ConfigError):
        dataclasses.replace(base, reference=ReferenceTrajectory("constant", value=[0.1, 0, 0]))
    with pytest.raises(ConfigError):
        dataclasses.replace(base, spacecraft=base.spacecraft[:1])
    with pytest.raises(ConfigError, match="needs at least one spacecraft"):
        dataclasses.replace(base, spacecraft=())
    for bad, what in ((np.zeros(5), "a 6-vector"), (np.full(6, np.nan), "finite")):
        with pytest.raises(ValueError, match="theta_hat0 must be " + what):
            dataclasses.replace(base.spacecraft[0], theta_hat0=bad)


@pytest.mark.parametrize("stacked", ["Lambda", "K", "Gamma"])
def test_spacecraft_gains_must_be_single_matrices(stacked):
    # a stack in any one gain would only fail later, when Simulation stacks the fleet
    single = {"Lambda": np.eye(3), "K": 3.0 * np.eye(3), "Gamma": 3.0 * np.eye(6)}
    single[stacked] = np.stack([single[stacked]] * 2)
    with pytest.raises(ValueError, match="single 3x3/6x6"):
        Spacecraft(inertia=InertiaParams(np.array(FLEET_J[0])),
                   initial_state=SpacecraftState(np.zeros(3), np.zeros(3)),
                   gains=GainSet(**single))


@pytest.mark.parametrize("mode", ["leaderless", "tracking"])
def test_held_source_rejects_a_cyclic_craft_graph(mode):
    # the two craft hear each other, as some craft does in every leaderless
    # graph; the held source takes only craft that hear the leader alone
    with pytest.raises(ConfigError, match="craft 1 hears craft 2 \\(use 'smoothed'\\)$"):
        pair_scenario(mode=mode, accel_source="held")
    assert pair_scenario(mode=mode).accel_source == "smoothed"
    assert star_scenario().accel_source == "held"  # leader -> 1, leader -> 2 builds
    # nor can it follow a shadow flip: it has no generator state to map
    with pytest.raises(ConfigError, match="shadow_switch needs accel_source 'smoothed'"):
        star_scenario(shadow_switch=True)


@pytest.mark.parametrize("name", ["paper-leaderless", "paper-tracking"])
def test_edge_weights_are_the_dense_weights_bit_for_bit(name):
    # the simulator's edges are the nonzeros of the dense reference weights,
    # in its row-major order, with the very same values
    sc = preset(name).to_scenario()
    sim = Simulation(sc)
    w = aggregate_weights(sc.topology, with_leader=sim.tracking)
    dst, src = np.nonzero(w)
    assert np.array_equal(sim._dst, dst) and np.array_equal(sim._src, src)
    assert np.array_equal(sim._w[:, 0], w[dst, src])


def test_duration_must_be_a_whole_number_of_steps():
    base = pair_scenario()
    with pytest.raises(ConfigError, match="whole number of steps"):
        dataclasses.replace(base, duration=1.0025, dt=0.005)
    # preset and benchmark horizons, and ones whose ratio rounds below n
    for duration, dt, steps in ((40.0, 0.005, 8000), (4.0, 0.005, 800),
                                (2.0, 0.005, 400), (1.0, 0.005, 200),
                                (20.0, 0.0025, 8000), (0.6, 0.01, 60)):
        assert dataclasses.replace(base, duration=duration, dt=dt).n_steps == steps


def test_single_craft_leaderless_is_invalid():
    craft = Spacecraft(
        inertia=InertiaParams(np.eye(3)),
        initial_state=SpacecraftState(np.zeros(3), np.zeros(3)),
        gains=PAPER_GAINS,
    )
    with pytest.raises(ConfigError, match="failed checks: node 1 has no in-neighbor$"):
        Scenario(
            spacecraft=(craft,),
            topology=CommTopology(np.zeros((1, 1))),
            mode="leaderless",
            duration=1.0,
        )


def test_tracking_needs_reference_and_rooted_leader():
    tracking = pair_scenario(mode="tracking")
    with pytest.raises(ConfigError):
        dataclasses.replace(tracking, reference=None)
    unrooted = CommTopology(
        np.array([[0.0, 1.0], [1.0, 0.0]]), leader_weights=np.zeros(2)
    )
    with pytest.raises(ConfigError):
        dataclasses.replace(tracking, topology=unrooted)
    with pytest.raises(ConfigError):
        dataclasses.replace(tracking, topology=CommTopology(np.array([[0.0, 1.0], [1.0, 0.0]])))


def test_leaderless_takes_no_leader_weights():
    # the leader is a node of the graph only when tracking: a leaderless fleet
    # averages its neighbours alone, so any leader weights are refused, zeros too
    leaderless = pair_scenario()
    for b in ([5.0, 0.0], [0.0, 0.0]):
        with pytest.raises(ConfigError, match="^leaderless mode takes no leader weights$"):
            dataclasses.replace(leaderless, topology=CommTopology(
                leaderless.topology.adjacency, leader_weights=b))


# ------------------------------------------------ random initial states


def test_random_initial_states_deterministic():
    a = random_initial_states(123, 6)
    b = random_initial_states(123, 6)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.sigma, sb.sigma)
        assert np.array_equal(sa.omega, sb.omega)
    c = random_initial_states(124, 6)
    assert any(not np.array_equal(sa.sigma, sc.sigma) for sa, sc in zip(a, c))


def test_random_initial_states_bounds():
    states = random_initial_states(7, 1000, sigma_bound=0.5, omega_bound=0.4)
    sig = np.stack([s.sigma for s in states])
    om = np.stack([s.omega for s in states])
    assert np.abs(sig).max() <= 0.5 and np.abs(om).max() <= 0.4
    assert np.linalg.norm(sig, axis=1).max() <= 0.5
    assert np.linalg.norm(om, axis=1).max() <= 0.4


def test_random_initial_states_zero_bounds_and_errors():
    states = random_initial_states(1, 3, sigma_bound=0.0, omega_bound=0.0)
    for s in states:
        assert np.array_equal(s.sigma, np.zeros(3))
        assert np.array_equal(s.omega, np.zeros(3))
    with pytest.raises(ValueError):
        random_initial_states(1, 0)
    with pytest.raises(ValueError):
        random_initial_states(1, 2, sigma_bound=-0.1)


BALL_BOUNDS = st.sampled_from([0.0, 1e-3, 0.5, 0.95, 2.0])


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 300),
       sigma_bound=BALL_BOUNDS, omega_bound=BALL_BOUNDS)
@example(seed=4, n=300, sigma_bound=0.5, omega_bound=0.5)  # tries past the first batch
def test_random_initial_states_equal_the_per_vector_draws(seed, n, sigma_bound, omega_bound):
    # the batched draws are bit for bit the one-vector-at-a-time rejection loop
    states = random_initial_states(seed, n, sigma_bound, omega_bound)
    expected = oracles.random_initial_states(seed, n, sigma_bound, omega_bound)
    assert [(s.sigma.tobytes(), s.omega.tobytes()) for s in states] == \
        [(sigma.tobytes(), omega.tobytes()) for sigma, omega in expected]


@pytest.mark.parametrize("bound", [1e308, np.inf, np.nan])
def test_random_initial_states_refuse_what_the_per_vector_draws_refuse(bound):
    # a bound whose range 2 * bound is not finite: an error, not an endless walk
    for draw in (random_initial_states, oracles.random_initial_states):
        with pytest.raises(OverflowError):
            draw(1, 2, 0.5, bound)


# ------------------------------------------------------- point dynamics


@pytest.mark.parametrize("accel_source", ["held", "smoothed"])
def test_equilibrium_holds(accel_source):
    # start on the constant leader with the true inertia estimate and zero
    # rate: every error term vanishes and the craft must stay put
    ref = (0.1, 0.3, 0.5)
    sc = single_craft_scenario(
        sigma0=ref, omega0=(0.0, 0.0, 0.0), sigma_ref=ref, perfect=True,
        duration=1.0, accel_source=accel_source,
    )
    log = Simulation(sc).run(decimate=1)
    drift = np.abs(log.sigma - np.array(ref)).max()
    assert drift <= 1e-9
    assert np.abs(log.omega).max() <= 1e-9
    assert np.abs(log.torque).max() <= 1e-9


def test_spherical_free_body_keeps_omega():
    sc = single_craft_scenario(
        j=np.eye(3), omega0=(0.3, -0.2, 0.4), control_enabled=False, duration=10.0,
        shadow_switch=True, accel_source="smoothed",
    )
    log = Simulation(sc).run(decimate=1)
    assert np.abs(log.omega - log.omega[0]).max() <= 1e-10
    assert np.abs(log.torque).max() == 0.0


def test_free_body_conserves_momentum_and_energy():
    j = np.array(FLEET_J[3])
    sc = single_craft_scenario(
        j=j, omega0=(0.4, -0.3, 0.5), control_enabled=False, duration=10.0,
        shadow_switch=True, accel_source="smoothed",
    )
    log = Simulation(sc).run(decimate=1)
    h = log.omega[:, 0, :] @ j.T
    h_norm = np.linalg.norm(h, axis=1)
    energy = np.einsum("ri,ij,rj->r", log.omega[:, 0, :], j, log.omega[:, 0, :])
    assert np.abs(h_norm - h_norm[0]).max() <= 1e-11
    assert np.abs(energy - energy[0]).max() <= 1e-11


# ------------------------------------------------------ run and logging


def test_run_is_deterministic():
    sc = pair_scenario(duration=2.0)
    a, b = Simulation(sc).run(), Simulation(sc).run()
    for name in ("times", "sigma", "omega", "torque", "theta_hat",
                 "sync_error", "filtered_error", "lyapunov", "disagreement"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_record_counts_and_times():
    sc = pair_scenario(duration=2.0)  # 400 steps at dt = 0.005
    full = Simulation(sc).run(decimate=1)
    assert full.n_records == 401
    assert np.all(np.diff(full.times) > 0)
    assert full.times[0] == 0.0 and abs(full.times[-1] - 2.0) < 1e-12
    dec = Simulation(sc).run(decimate=10)
    assert dec.n_records == 41  # initial record + every 10th of 400 steps
    dec7 = Simulation(sc).run(decimate=7)
    kept = len([k for k in range(1, 401) if k % 7 == 0])
    assert dec7.n_records == 1 + kept + 1  # final step logged despite 400 % 7 != 0
    with pytest.raises(ValueError):
        Simulation(sc).run(decimate=0)


@pytest.mark.parametrize("decimate", [2.0, 2.5, True, 0, -1, np.int64(3)],
                         ids=["float-whole", "float", "True", "zero", "negative", "int64"])
def test_decimate_must_be_a_positive_integer(decimate):
    # a float is refused by run itself, not by numpy's log allocation; True is 1
    sc = pair_scenario(duration=0.1)
    if isinstance(decimate, float) or decimate < 1:
        with pytest.raises(ValueError, match="decimate must be a positive integer"):
            Simulation(sc).run(decimate=decimate)
    else:
        assert_same_log(Simulation(sc).run(decimate=decimate),
                        Simulation(sc).run(decimate=int(decimate)))


@pytest.mark.parametrize("build", [
    pair_scenario,
    lambda **kw: pair_scenario(control_enabled=False, **kw),
    star_scenario,
], ids=["smoothed", "control-off", "held"])
def test_controller_outputs_runs_once_per_rhs_evaluation(monkeypatch, build):
    # bench/run.py reads rhs_evals_per_step and us_per_rhs off these calls:
    # the initial state's evaluation, then per step three RK4 stages and one
    # evaluation of the accepted state, which is also the next step's first
    # stage and feeds any record.  The decimation does not enter the count.
    calls = []

    def counted(*args):
        calls.append(args)
        return controller_outputs(*args)

    monkeypatch.setattr(simulator, "controller_outputs", counted)
    n = 10
    for d in (1, 3):
        calls.clear()
        Simulation(build(duration=n * 0.005)).run(decimate=d)
        assert len(calls) == 1 + 4 * n
        # an ensemble advances all its members in each of those same calls
        calls.clear()
        Simulation(ensemble(build(duration=n * 0.005), 3)).run(decimate=d)
        assert len(calls) == 1 + 4 * n
        assert calls[0][0].shape == (3, 2, 3)


def derived_blocks(members, n_records):
    """The last record of each block the derived-series pass of `Simulation.run` takes."""
    block = max(1, simulator._BLOCK_ELEMENTS // (len(members) * members[0].n ** 2))
    return [min(a + block, n_records) - 1 for a in range(0, n_records, block)]


@pytest.mark.parametrize("build", [
    pair_scenario,
    lambda **kw: pair_scenario(control_enabled=False, **kw),
    star_scenario,
], ids=["smoothed", "control-off", "held"])
def test_kinematics_matrix_is_built_once_per_rhs_evaluation(monkeypatch, build):
    # each evaluation builds G(sigma) once; sigma_dot and the control law share
    # it.  One more call seats the generator, chi_dot(0) =
    # sigma_dot(0), and the derived-series pass builds one per block of records
    # for V and sigma_dot.  The step loop forms V and D only per block: each
    # block makes one _certificate and two _max_pairwise calls, right after
    # the evaluation of its last record and before the next evaluation
    calls = {"g": 0, "rhs": 0, "certificate": [], "max_pairwise": []}

    def counting(fn, key):
        def counted(*args):
            if isinstance(calls[key], list):  # evaluations made before this call
                calls[key].append(calls["rhs"])
            else:
                calls[key] += 1
            return fn(*args)
        return counted

    original = attmath.kinematics_matrix
    counted_g = counting(original, "g")
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "attsync":  # every binding the program calls G by
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted_g)
    monkeypatch.setattr(simulator, "controller_outputs",
                        counting(controller_outputs, "rhs"))
    for name in ("certificate", "max_pairwise"):
        monkeypatch.setattr(simulator, "_" + name,
                            counting(getattr(simulator, "_" + name), name))
    n = 10
    for d, block_elements in itertools.product((1, 3), (simulator._BLOCK_ELEMENTS, 8)):
        monkeypatch.setattr(simulator, "_BLOCK_ELEMENTS", block_elements)
        for scenario in (build(duration=n * 0.005), ensemble(build(duration=n * 0.005), 3)):
            calls.update(g=0, rhs=0, certificate=[], max_pairwise=[])
            Simulation(scenario).run(decimate=d)
            members = scenario if isinstance(scenario, list) else [scenario]
            last = derived_blocks(members, 1 + -(-n // d))
            assert (len(last) > 1) == (block_elements == 8)
            assert calls["rhs"] == 1 + 4 * n
            assert calls["g"] == calls["rhs"] + 1 + len(last)
            # record r is the state of step min(r d, n), evaluated 1 + 4 step times
            evaluated = [1 + 4 * min(r * d, n) for r in last]
            assert calls["certificate"] == evaluated
            assert calls["max_pairwise"] == [e for e in evaluated for _ in range(2)]


@pytest.mark.parametrize("build", [pair_scenario, star_scenario], ids=["smoothed", "held"])
def test_inertia_is_inverted_once_per_simulation(monkeypatch, build):
    # J^-1 is formed once when the Simulation is built; no evaluation solves
    calls = {"inv": 0, "solve": 0}

    def counting(fn, key):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(np.linalg, "inv", counting(np.linalg.inv, "inv"))
    monkeypatch.setattr(np.linalg, "solve", counting(np.linalg.solve, "solve"))
    for scenario in (build(duration=0.05), ensemble(build(duration=0.05), 3)):
        calls.update(inv=0, solve=0)
        sim = Simulation(scenario)
        assert calls == {"inv": 1, "solve": 0}
        sim.run(decimate=1)
        assert calls == {"inv": 1, "solve": 0}


@st.composite
def craft_stacks(draw):
    """(j, sigma, omega, torque): a single craft's 3-vectors, or (B, N, 3)
    stacks with one inertia per craft, from conftest's strategies."""
    shape = draw(st.sampled_from([(), (1, 1), (2, 3), (3, 2)]))
    count = int(np.prod(shape, dtype=int))
    n = shape[-1] if shape else 1

    def stack(strategy, size):
        return np.reshape(draw(st.lists(strategy, min_size=size, max_size=size)),
                          shape + (3,) if shape else (3,))

    j = np.stack([p.matrix for p in draw(st.lists(inertias, min_size=n, max_size=n))])
    return (j if shape else j[0], stack(attitudes, count), stack(rates, count),
            stack(rates, count))


@given(craft_stacks())
def test_inverse_from_a_shared_g_equals_kinematics_matrix_inverse(inputs):
    # regression and the record form G^-1 from the evaluation's G
    _, sigma, _, _ = inputs
    got = inverse_from_kinematics(kinematics_matrix(sigma))
    assert np.array_equal(got, kinematics_matrix_inverse(sigma))


@given(craft_stacks(), st.data())
def test_record_certificate_equals_the_h_star_form(inputs, data):
    # the record's V takes H* from the evaluation's G; it must equal V formed
    # with h_star(j, sigma) bit for bit
    j, sigma, s, _ = inputs
    if sigma.ndim == 1:  # one craft: the craft axis V sums over
        sigma, s = sigma[None], s[None]
    err = data.draw(arrays(float, sigma.shape[:-1] + (6,), elements=st.floats(-10.0, 10.0)))
    gamma = data.draw(arrays(float, err.shape[-2:], elements=st.floats(0.5, 3.0)))
    got = simulator._certificate(j, kinematics_matrix(sigma), s, err, gamma)
    want = (0.5 * np.einsum("...ni,...nij,...nj->...", s, h_star(j, sigma), s)
            + 0.5 * (err * err / gamma).reshape(sigma.shape[:-2] + (-1,)).sum(-1))
    assert np.array_equal(got, want, equal_nan=True)


def sinusoid_tracking(**kw):
    """pair_scenario tracking a sinusoid outside the unit ball: T takes shadows."""
    return dataclasses.replace(pair_scenario(mode="tracking", **kw),
                               reference=ReferenceTrajectory(
                                   "sinusoid", amplitude=[0.3, -0.2, 0.4],
                                   frequency=[1.0, 2.0, 0.5], offset=[0.9, 0.8, -0.6]))


def ring_scenario(n, duration):
    """n craft on a directed ring, each hearing the next; seeded states."""
    craft = [Spacecraft(inertia=InertiaParams(np.array(FLEET_J[i % len(FLEET_J)])),
                        initial_state=s, gains=PAPER_GAINS)
             for i, s in enumerate(random_initial_states(3, n, 0.5, 0.3))]
    return Scenario(spacecraft=tuple(craft), topology=CommTopology(np.roll(np.eye(n), 1, 1)),
                    mode="leaderless", duration=duration, shadow_switch=True)


def diverging_ensemble():
    """Three members at dt = 0.5: at rest, blowing up, and at rest in consensus."""
    diverging = pair_scenario(dt=0.5, duration=50.0)
    still = [with_states(diverging, [SpacecraftState(x, np.zeros(3))] * 2)
             for x in (np.zeros(3), np.array([0.3, -0.2, 0.1]))]
    return [still[0], diverging, still[1]]


@pytest.mark.parametrize("build, block_elements", [
    (lambda: pair_scenario(duration=1.0, shadow_switch=True), None),
    (diverging_ensemble, None),
    (lambda: pair_scenario(duration=1.0, mode="tracking", shadow_switch=True), None),
    (lambda: sinusoid_tracking(duration=3.0, shadow_switch=True), None),
    (lambda: star_scenario(duration=1.0), None),
    # 170 records a block: three blocks at decimate 1
    (lambda: ensemble(sinusoid_tracking(duration=2.0, shadow_switch=True), 3), None),
    (lambda: ensemble(pair_scenario(duration=1.0, shadow_switch=True), 3), 100),  # 8 a block
    (lambda: ring_scenario(33, 0.05), None),  # 2048 < 33^2 craft pairs: 1 record a block
    (lambda: ring_scenario(70, 0.05), None),  # D over pruned candidates
], ids=["one", "ensemble-diverging", "tracking-constant", "tracking-sinusoid", "held",
        "ensemble-tracking", "many-blocks", "one-record-blocks", "pruned"])
@pytest.mark.parametrize("decimate", [1, 3, 7])
def test_derived_series_equal_the_per_record_oracle(monkeypatch, build, block_elements,
                                                    decimate):
    # the pass after the step loop reduces blocks of logged records; every
    # derived series must equal the record-by-record oracle bit for bit
    members = build()
    if block_elements is not None:
        monkeypatch.setattr(simulator, "_BLOCK_ELEMENTS", block_elements)
    logs = Simulation(members).run(decimate=decimate)
    logs = logs if isinstance(logs, list) else [logs]
    assert ([isinstance(log, SimulationDiverged) for log in logs]
            == [i == 1 and build is diverging_ensemble for i in range(len(logs))])
    for log in logs:
        if isinstance(log, SimulationDiverged):
            continue
        want = oracles.derived_series(log)
        assert sorted(want) == sorted(
            k for k in LOG_ARRAYS[7:] if getattr(log, k) is not None)
        for name, series in want.items():
            assert np.array_equal(getattr(log, name), series, equal_nan=True), name


def test_max_pairwise_in_row_chunks_equals_the_whole_tensor(monkeypatch):
    # D is the max of chunk maxima: exact, and nan wherever a difference is nan
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 3, 7, 3))
    x[0, 1, 4, 2] = np.nan
    x[1, 0, 2, 0] = np.inf
    x[1, 2, 5] = -np.inf
    x[1, 1, 3, 1] = np.inf
    for elements in (simulator._PAIRWISE_ELEMENTS, 1, 6, 42, 43, 84):
        monkeypatch.setattr(simulator, "_PAIRWISE_ELEMENTS", elements)
        for y in (x, x[1], x[0, 1], x[1, 2], x[0, 0]):
            with np.errstate(invalid="ignore"):  # inf - inf
                got, want = simulator._max_pairwise(y), oracles.max_pairwise(y)
            assert np.array_equal(got, want, equal_nan=True)


@st.composite
def point_sets(draw):
    """(..., craft, 3) sets of at least _PRUNE_MIN_CRAFT points: tight clusters,
    uniform balls, spherical shells about their centre, a few points repeated, or
    lines; one set or (member, record) leading axes; some with nan or inf entries."""
    lead = draw(st.sampled_from([(), (1, 1), (2, 3), (3, 1)]))
    n = draw(st.integers(simulator._PRUNE_MIN_CRAFT, simulator._PRUNE_MIN_CRAFT + 150))
    kind = draw(st.sampled_from(["cluster", "ball", "shell", "repeated", "line"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = lead + (n, 3)
    unit = rng.normal(size=shape)
    unit /= np.linalg.norm(unit, axis=-1, keepdims=True)
    ball = unit * rng.uniform(size=shape[:-1] + (1,)) ** (1 / 3)
    x = {"cluster": 1e-3 * ball, "ball": ball, "shell": unit,
         "repeated": np.take(ball, rng.integers(draw(st.integers(1, 4)), size=n), axis=-2),
         "line": rng.uniform(-1.0, 1.0, shape[:-1] + (1,)) * unit[..., :1, :]}[kind]
    x = draw(st.sampled_from([1e-6, 0.5, 2.0])) * x + rng.uniform(-0.5, 0.5, 3)
    for _ in range(draw(st.integers(0, 3)) if draw(st.booleans()) else 0):
        x[tuple(rng.integers(s) for s in shape)] = draw(st.sampled_from([np.nan, np.inf,
                                                                          -np.inf]))
    return x


@settings(deadline=None, max_examples=300)
@given(point_sets())
def test_pruned_max_pairwise_equals_every_pair(x):
    # D over the candidates that can still beat the lower bound is the max over every
    # pair bit for bit, nan and inf included
    with np.errstate(invalid="ignore"):  # inf - inf
        assert np.array_equal(simulator._max_pairwise(x), oracles.max_pairwise(x),
                              equal_nan=True)


def test_max_pairwise_takes_candidates_only_where_they_are_few(monkeypatch):
    # a ball keeps a few craft and a shell about its centre all of them, each slice
    # on its own; a set with a nan entry or under _PRUNE_MIN_CRAFT craft is taken whole
    sizes = []
    monkeypatch.setattr(simulator, "_all_pairs", lambda x: sizes.append(x.shape) or 0.0)
    rng = np.random.default_rng(9)
    unit = rng.normal(size=(2000, 3))
    unit /= np.linalg.norm(unit, axis=-1, keepdims=True)
    ball = 0.5 * unit * rng.uniform(size=(2000, 1)) ** (1 / 3)
    simulator._max_pairwise(ball)
    simulator._max_pairwise(np.stack([unit, ball]))
    assert sizes[0][0] < 200 and sizes == [sizes[0], (2000, 3), sizes[0]]
    ball[7, 1] = np.nan
    small = ball[:simulator._PRUNE_MIN_CRAFT - 1]
    sizes.clear()
    simulator._max_pairwise(ball)
    simulator._max_pairwise(small)
    assert sizes == [ball.shape, small.shape]


def test_max_pairwise_temporaries_do_not_grow_with_craft_squared():
    # a blob takes few candidates; a nan entry sends all 2000 craft to the chunked scan
    x = np.random.default_rng(8).normal(size=(2000, 3))
    full = x.copy()
    full[5, 0] = np.nan
    for points in (x, full):
        tracemalloc.start()
        try:
            simulator._max_pairwise(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20  # the whole 2000 x 2000 x 3 tensor is 92 MiB


def test_divergence_guard_reports_craft_and_time():
    # a step far past the stability limit of RK4 blows up at once; the guard
    # must stop the run and say who went where, without letting numpy's
    # overflow warnings out first
    sc = pair_scenario(dt=0.5, duration=50.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationDiverged) as exc:
            Simulation(sc).run()
    assert exc.value.craft_index in (0, 1)
    assert 0.0 < exc.value.time <= 50.0
    assert exc.value.quantity in ("sigma", "omega", "theta_hat")
    text = str(exc.value)
    assert "spacecraft" in text and "diverged" in text
    assert exc.value.quantity in text
    assert "is not finite" in text or "|sigma| = " in text


@pytest.mark.parametrize("bad, quantity, how", [
    ((0, "sigma", 2000.0), "sigma", "|sigma| = 2e+03 > 1000"),
    ((1, "omega", np.inf), "omega", "omega is not finite"),
    ((0, "theta_hat", np.nan), "theta_hat", "theta_hat is not finite"),
])
def test_divergence_guard_names_the_quantity(bad, quantity, how):
    i, name, value = bad
    sc = pair_scenario(duration=1.0)
    y = np.zeros((2, 18))  # the packed state, each field's first entry at this column
    y[i, {"sigma": 0, "omega": 3, "theta_hat": 6}[name]] = value
    exc = Simulation(sc)._check_state(0.25, y, np.einsum("ni,ni->n", y[:, :3], y[:, :3]))[0]
    assert isinstance(exc, SimulationDiverged)
    assert exc.craft_index == i and exc.quantity == quantity
    assert str(exc) == "spacecraft %d diverged at t = 0.25 s (%s)" % (i + 1, how)


def test_a_flipped_craft_is_guarded_at_its_shadow():
    # the step loop forms |sigma|^2 once per accepted state and again only after a
    # shadow flip, so a craft at |sigma| = 2000 is guarded at its shadow, 1/2000
    sim = Simulation(pair_scenario(shadow_switch=True))
    y = np.zeros((2, 18))
    y[0, 0], y[1, :3] = 2000.0, [0.1, 0.2, 0.3]
    y[:, 12:15] = y[:, :3]  # the generator seated on each craft
    out, ss = sim._apply_shadow(y, np.einsum("ni,ni->n", y[:, :3], y[:, :3]))
    assert out is not y and out[0, 0] == -1.0 / 2000.0
    assert np.array_equal(ss, np.einsum("ni,ni->n", out[:, :3], out[:, :3]))
    assert sim._check_state(0.25, out, ss) == {}


LOG_ARRAYS = ("times", "sigma", "omega", "torque", "theta_hat", "sync_error",
              "filtered_error", "lyapunov", "disagreement", "disagreement_rate",
              "tracking_error", "tracking_rate")


def assert_same_log(a, b):
    for name in LOG_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None and y is None) or np.array_equal(x, y), name


def straddling_ensemble():
    """Three shadow_switch pairs: the middle one has a craft outside the chart-alignment
    fleet bound |sigma|^2 <= _FLIP_FREE_SQ, the other two lie inside it, so at t = 0 that
    member takes the per-edge test alone and all three take it together."""
    sc = pair_scenario(duration=1.0, shadow_switch=True)
    return [with_states(sc, random_initial_states(seed, sc.n, bound, 0.3))
            for seed, bound in ((1, 0.5), (2, 0.95), (3, 0.5))]


@pytest.mark.parametrize("members", [
    lambda: ensemble(pair_scenario(duration=1.0, shadow_switch=True), 3),
    lambda: ensemble(pair_scenario(duration=1.0, mode="tracking"), 3),
    lambda: ensemble(star_scenario(duration=1.0), 3),
    straddling_ensemble,
], ids=["leaderless-aligned", "tracking", "held", "leaderless-straddling"])
def test_ensemble_members_match_their_solo_runs(members):
    # members differ in inertia, gains and theta_hat0 as well as in states
    members = parameter_ensemble(members())
    if members[0].shadow_switch:  # some member starts outside the fleet bound, some inside
        radii = [max(c.initial_state.sigma @ c.initial_state.sigma for c in sc.spacecraft)
                 for sc in members]
        assert min(radii) <= simulator._FLIP_FREE_SQ < max(radii)
    logs = Simulation(members).run(decimate=3)
    assert len(logs) == 3
    for sc, log in zip(members, logs):
        assert log.scenario is sc
        assert_same_log(log, Simulation(sc).run(decimate=3))


def test_ensemble_members_match_their_solo_runs_at_70_craft():
    # 3 x 70 craft: einsum and the ufuncs run their vector loops along the craft
    # axis, which the 2- and 6-craft fleets above do not reach
    base = ring_scenario(70, 0.05)
    members = parameter_ensemble(
        [base] + [with_states(base, random_initial_states(seed, 70, 0.5, 0.3))
                  for seed in (1, 2)])
    logs = Simulation(members).run(decimate=1)
    for sc, log in zip(members, logs):
        assert_same_log(log, Simulation(sc).run(decimate=1))


def flipping_pair(duration=0.1):
    """pair_scenario under shadow_switch with craft 1 spun out of the unit ball."""
    sc = pair_scenario(duration=duration, shadow_switch=True)
    spun = SpacecraftState(np.array([0.98, 0.0, 0.0]), np.array([3.0, 0.0, 0.0]))
    return with_states(sc, [spun, sc.spacecraft[1].initial_state])


@pytest.mark.parametrize("build", [
    lambda: pair_scenario(duration=0.1, shadow_switch=True),
    lambda: parameter_ensemble(ensemble(pair_scenario(duration=0.1, shadow_switch=True), 3)),
    lambda: sinusoid_tracking(duration=0.1, shadow_switch=True),
    lambda: star_scenario(duration=0.1),
    flipping_pair,
], ids=["one", "ensemble", "tracking-sinusoid", "held", "shadow-flip"])
def test_step_loop_keeps_the_state_craft_contiguous(monkeypatch, build):
    # the state, every derivative and the per-craft J, J^-1 and gain stacks are the
    # transpose of a C-contiguous (field, craft[, member]) array, so elementwise work
    # runs along the craft axis; a copy or concatenate back to component-innermost
    # fails here.  An ensemble's stacks carry the member axis: one J per member craft
    evaluations, flips = [], []
    evaluate, apply_shadow = Simulation._eval, Simulation._apply_shadow

    def checked(self, t, y):
        out = evaluate(self, t, y)
        evaluations.append((y.T.flags.c_contiguous, out[0].T.flags.c_contiguous))
        return out

    def counted(self, y, ss):
        out = apply_shadow(self, y, ss)
        flips.append(out[0] is not y)
        return out

    monkeypatch.setattr(Simulation, "_eval", checked)
    monkeypatch.setattr(Simulation, "_apply_shadow", counted)
    scenarios = build()
    sim = Simulation(scenarios)
    lead = (len(scenarios),) if isinstance(scenarios, list) else ()
    for stack in (sim.j_stack, sim.j_inv, sim.gains.Lambda, sim.gains.K, sim.gains.Gamma):
        assert stack.T.flags.c_contiguous
        assert stack.shape[:-2] == lead + (sim.n,)
    if lead:  # each member's own stacks, not one broadcast from member 0
        assert not np.array_equal(sim.j_stack[0], sim.j_stack[1])
        assert not np.array_equal(sim.gains.Gamma[0], sim.gains.Gamma[1])
    sim.run(decimate=1)
    assert len(evaluations) == 1 + 4 * sim.scenario.n_steps
    assert all(state and derivative for state, derivative in evaluations)
    assert any(flips) == (build is flipping_pair)


def test_kernels_and_step_loop_skip_the_array_function_dispatch(monkeypatch):
    # attmath binds numpy's own einsum and concatenate, and every call in attmath and
    # the simulator goes through those bindings: with the public functions raising, a
    # run still reaches the derived pass, chart alignment, shadow flips, the tracking
    # reference, the held source, an ensemble and D's pruned path
    assert attmath.einsum is not np.einsum
    assert attmath.concatenate is not np.concatenate
    # built first: Simulation's setup calls np.diff, which concatenates through numpy
    runs = [Simulation(scenario) for scenario in (
        flipping_pair(),
        sinusoid_tracking(duration=0.1, shadow_switch=True),
        star_scenario(duration=0.1),
        parameter_ensemble(ensemble(pair_scenario(duration=0.1, shadow_switch=True), 3)),
        ring_scenario(70, 0.05),
    )]
    sigma = np.array([[0.2, -0.1, 0.4], [0.9, 0.5, -0.3]])
    rate = np.array([[0.1, 0.3, -0.2], [-0.4, 0.2, 0.1]])
    called = []

    def refused(name):
        def public(*args, **kwargs):
            called.append(name)
            raise AssertionError("numpy.%s called through its dispatcher" % name)
        return public

    monkeypatch.setattr(np, "einsum", refused("einsum"))
    monkeypatch.setattr(np, "concatenate", refused("concatenate"))
    for sim in runs:
        sim.run(decimate=1)
    g = kinematics_matrix(sigma)
    attmath.mat_vec(g, rate)
    attmath.kinematics_matrix_dot(sigma, rate)
    inverse_from_kinematics(g)
    mrp_shadow(sigma, rate)
    assert called == []


def test_diverged_member_is_reported_and_the_rest_finish():
    # at rest, a leaderless pair stays put at any step; the other member
    # blows up at dt = 0.5 exactly as it does alone
    diverging = pair_scenario(dt=0.5, duration=50.0)
    rest = with_states(diverging, [SpacecraftState(np.zeros(3), np.zeros(3))] * 2)
    with pytest.raises(SimulationDiverged) as solo:
        Simulation(diverging).run()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log, exc = Simulation([rest, diverging]).run()
    assert_same_log(log, Simulation(rest).run())
    assert log.n_records == 11
    assert isinstance(exc, SimulationDiverged)
    assert ((exc.craft_index, exc.quantity, exc.time, str(exc))
            == (solo.value.craft_index, solo.value.quantity, solo.value.time,
                str(solo.value)))


def test_sink_gets_each_block_as_it_is_derived(monkeypatch):
    # the blocks, copied when the sink sees them, make up the returned log: each
    # series is final by then.  A member's entry is its SimulationDiverged from the
    # first block handed over after it diverged, and the sink runs under the
    # caller's numpy error settings, not the step loop's
    monkeypatch.setattr(simulator, "_BLOCK_ELEMENTS", 8)  # 1 record a block
    diverging = pair_scenario(dt=0.5, duration=5.0)  # diverges at t = 0.5 s
    rest = with_states(diverging, [SpacecraftState(np.zeros(3), np.zeros(3))] * 2)
    seen = []

    def sink(blocks):
        assert np.geterr()["over"] == "raise"
        kept, other = blocks
        seen.append(({name: np.copy(getattr(kept, name)) for name in LOG_ARRAYS[:-2]}, other))

    with np.errstate(over="raise"):
        kept, exc = Simulation([rest, diverging]).run(decimate=1, sink=sink)
    for name in LOG_ARRAYS[:-2]:  # leaderless: no T
        assert np.array_equal(np.concatenate([b[name] for b, _ in seen]), getattr(kept, name))
    handed_over = [b["times"][-1] for b, _ in seen]
    assert handed_over == [0.5 * k for k in range(11)]
    assert [other is exc for _, other in seen] == [exc.time <= t for t in handed_over]
    assert exc.time == 0.5


@pytest.mark.parametrize("field, change", [
    ("topology", lambda sc: dataclasses.replace(sc, topology=CommTopology(
        2.0 * sc.topology.adjacency, leader_weights=sc.topology.leader_weights))),
    ("mode", lambda sc: dataclasses.replace(
        sc, mode="leaderless", reference=None,
        topology=CommTopology(sc.topology.adjacency))),
    ("reference", lambda sc: dataclasses.replace(
        sc, reference=ReferenceTrajectory("constant", value=[0.2, 0.0, 0.0]))),
    ("dt", lambda sc: dataclasses.replace(sc, dt=0.01)),
    ("duration", lambda sc: dataclasses.replace(sc, duration=1.0)),
    ("shadow_switch", lambda sc: dataclasses.replace(sc, shadow_switch=True)),
    ("accel_source", lambda sc: dataclasses.replace(sc, accel_source="smoothed")),
    ("inertia", lambda sc: dataclasses.replace(sc, spacecraft=(
        dataclasses.replace(sc.spacecraft[0], inertia=InertiaParams(np.eye(3))),
        sc.spacecraft[1]))),
    ("gains", lambda sc: dataclasses.replace(sc, spacecraft=(
        sc.spacecraft[0],
        dataclasses.replace(sc.spacecraft[1],
                            gains=GainSet(np.eye(3), 2.0 * np.eye(3), 3.0 * np.eye(6)))))),
    ("theta_hat0", lambda sc: dataclasses.replace(sc, spacecraft=(
        dataclasses.replace(sc.spacecraft[0], theta_hat0=np.ones(6)),
        sc.spacecraft[1]))),
])
def test_ensemble_members_must_match(field, change):
    # members may differ in their craft (inertia, gains, theta_hat0 and states), and
    # each then equals its solo run; any other setting names itself.  A leaderless
    # run takes no leader weights, so a mode change changes the topology too, and
    # the first setting that differs is named
    base = pair_scenario(mode="tracking")
    if field == "accel_source":
        base = star_scenario(duration=2.0)
    Simulation([base, with_states(base, random_initial_states(5, 2))])
    if field in ("inertia", "gains", "theta_hat0"):
        members = [base, change(base)]
        for sc, log in zip(members, Simulation(members).run()):
            assert_same_log(log, Simulation(sc).run())
        return
    first = "topology" if field == "mode" else field
    with pytest.raises(ConfigError, match="ensemble members differ in %s$" % first):
        Simulation([base, change(base)])


def test_shadow_switch_keeps_attitude_in_unit_ball():
    tumble = dict(omega0=(0.0, 0.0, 1.0), sigma0=(0.0, 0.0, 0.0),
                  control_enabled=False, duration=5.0)
    free = Simulation(single_craft_scenario(**tumble)).run(decimate=1)
    norms = np.linalg.norm(free.sigma[:, 0, :], axis=1)
    assert norms.max() > 1.1  # the long rotation leaves the unit ball
    switched = Simulation(single_craft_scenario(
        shadow_switch=True, accel_source="smoothed", **tumble)).run(decimate=1)
    norms = np.linalg.norm(switched.sigma[:, 0, :], axis=1)
    assert norms.max() <= 1.0 + 1e-12


# ----------------------------------------------- neighborhood aggregation

weights = st.floats(0.1, 2.0)


@st.composite
def valid_graphs(draw, leader=True, sizes=None, weight=weights):
    """A topology valid for its mode, its craft count drawn from `sizes` (by
    default 1..5 with `leader`, else 2..5) and each weight from `weight`.  With
    `leader` the graph is leader-rooted; without, every craft hears one, a
    spanning tree exists, and there are no leader weights."""
    n = draw(st.integers(1 if leader else 2, 5) if sizes is None else sizes)
    order = draw(st.permutations(range(n)))
    adj, b = np.zeros((n, n)), np.zeros(n)
    for k, i in enumerate(order):
        # a tree rooted at the leader, or at the first craft, which then hears
        # a later one: each other craft hears the leader or an earlier craft
        if leader:
            parent = draw(st.integers(-1, k - 1))
        else:
            parent = draw(st.integers(0, k - 1) if k else st.integers(1, n - 1))
        if parent < 0:
            b[i] = draw(weight)
        else:
            adj[i, order[parent]] = draw(weight)
    for k, i in enumerate(order):
        for m, j in enumerate(order):
            if m != k and draw(st.booleans()):
                adj[i, j] = draw(weight)
        if leader and draw(st.booleans()):
            b[i] = draw(weight)
    return CommTopology(adj, leader_weights=b if leader else None)


@st.composite
def fleets(draw, leader=True):
    """A fleet state on a valid graph; returns (topology, reference, t, sigma,
    rate).  With `leader` the reference lies inside, outside or at zero of the
    unit ball; without, it is None.  The states carry a member axis of 3 or
    none."""
    topo = draw(valid_graphs(leader))
    n = topo.n
    ref = None
    if leader:
        where = draw(st.sampled_from(["inside", "outside", "zero"]))
        if where == "zero":
            ref = ReferenceTrajectory("constant", value=np.zeros(3))
        else:
            direction = draw(arrays(float, 3, elements=st.floats(-1.0, 1.0)))
            assume(np.linalg.norm(direction) > 0.1)
            radius = draw(st.floats(0.1, 0.9) if where == "inside" else st.floats(1.1, 3.0))
            amplitude = draw(arrays(float, 3, elements=st.floats(-0.03, 0.03)))
            ref = ReferenceTrajectory("sinusoid", amplitude=amplitude, frequency=2.0,
                                      offset=radius * direction / np.linalg.norm(direction))
    t = draw(st.floats(0.0, 10.0))
    fleet = arrays(float, draw(st.sampled_from([(), (3,)])) + (n, 3),
                   elements=st.floats(-2.0, 2.0))
    return topo, ref, t, draw(fleet), draw(fleet)


@pytest.mark.parametrize("accel_source, shadow_switch", [("smoothed", True), ("smoothed", False)])
@settings(deadline=None)
@given(data=st.data())
def test_aggregates_align_the_leader_by_the_neighbor_rule(
        accel_source, shadow_switch, data):
    leader = data.draw(st.booleans())
    topo, ref, t, sigma, sigma_dot = data.draw(fleets(leader))
    n = topo.n
    craft = [Spacecraft(inertia=InertiaParams(np.array(j)),
                        initial_state=SpacecraftState(np.zeros(3), np.zeros(3)),
                        gains=PAPER_GAINS)
             for j in FLEET_J[:n]]
    sim = Simulation(Scenario(spacecraft=craft, topology=topo,
                              mode="tracking" if leader else "leaderless",
                              reference=ref, accel_source=accel_source,
                              shadow_switch=shadow_switch))
    sr, srd, _ = ref.at(t) if leader else (None, None, None)
    weights = aggregate_weights(topo, with_leader=leader)  # the leader's value last
    with np.errstate(all="ignore"):  # a zero attitude has no finite shadow
        got = sim._aggregates(t, sigma, sigma_dot)

        # oracle: each receiver takes each source's closer image, then
        # averages; member by member when the states have a member axis
        for b in np.ndindex(sigma.shape[:-2]):
            for i in range(n):
                def image(x, x_dot):
                    if not sim.scenario.shadow_switch or x is None:
                        return x, x_dot
                    sh, sh_dot = mrp_shadow(x, x_dot)
                    d_raw = np.sum((sigma[b][i] - x) ** 2)
                    d_sh = np.sum((sigma[b][i] - sh) ** 2)
                    if not np.isfinite(d_sh):
                        return x, x_dot
                    assume(abs(d_sh - d_raw) > 1e-9 * (d_sh + d_raw))  # no near-tie
                    return (sh, sh_dot) if d_sh < d_raw else (x, x_dot)

                imgs = [image(sigma[b][j], sigma_dot[b][j]) for j in range(n)]
                lead, lead_dot = image(sr, srd)

                def average(values, leader_value):
                    sources = list(values) + ([leader_value] if leader else [])
                    return weights[i] @ np.vstack(sources)

                want = [average([x for x, _ in imgs], lead),
                        average([v for _, v in imgs], lead_dot)]
                for g, w in zip(got, want):
                    np.testing.assert_allclose(
                        g[b][i], w, rtol=0.0, atol=1e-12 * (1.0 + np.abs(w).max()))


@settings(deadline=None)
@given(data=st.data())
def test_edge_weights_are_each_receivers_shares(data):
    # an edge weighs its share of its receiver's edge sum: the dense reference
    # weights to 1e-15 relative, and bit for bit when every weight is an
    # integer (from 8 craft up numpy's dense row sum adds in another order)
    leader, integer = data.draw(st.booleans()), data.draw(st.booleans())
    topo = data.draw(valid_graphs(leader, st.integers(2, 12),
                                  st.integers(1, 9).map(float) if integer else weights))
    craft = [Spacecraft(InertiaParams(np.eye(3)), SpacecraftState(np.zeros(3), np.zeros(3)),
                        PAPER_GAINS)] * topo.n
    ref = ReferenceTrajectory("constant", value=[0.1, 0.0, 0.0]) if leader else None
    sim = Simulation(Scenario(spacecraft=craft, topology=topo, reference=ref,
                              mode="tracking" if leader else "leaderless"))
    w = aggregate_weights(topo, with_leader=leader)
    dst, src = np.nonzero(w)
    assert np.array_equal(sim._dst, dst) and np.array_equal(sim._src, src)
    got, want = sim._w[:, 0], w[dst, src]
    assert np.array_equal(got, want) if integer else np.all(np.abs(got - want) <= 1e-15 * want)


def ball_points(draw, shape):
    """Attitudes with |x|^2 <= _FLIP_FREE_SQ, some of them on its sphere (within
    rounding, inside) and some the antipode of an earlier one."""
    x = draw(arrays(float, shape + (3,), elements=st.floats(-1.0, 1.0)))
    x = x.reshape(-1, 3)
    for k in range(len(x)):
        norm = np.linalg.norm(x[k])
        if norm < 1e-3:
            continue
        radius = draw(st.sampled_from([np.sqrt(simulator._FLIP_FREE_SQ), None]))
        x[k] *= (radius / norm) if radius else min(1.0, np.sqrt(simulator._FLIP_FREE_SQ) / norm)
        while x[k] @ x[k] > simulator._FLIP_FREE_SQ:  # rounding put it just outside
            x[k] *= 1.0 - 2.0 ** -52
        if k and draw(st.booleans()):
            x[k] = -x[draw(st.integers(0, k - 1))]
    return x.reshape(shape + (3,))


@settings(deadline=None)
@given(data=st.data())
def test_no_edge_flips_inside_the_fleet_bound(data):
    # with every craft and the reference in |x|^2 <= _FLIP_FREE_SQ, antipodal pairs
    # on its sphere included, no edge passes the flip test |to - x|^2 > 1 + |to|^2,
    # and the aggregates that skip the test equal the per-edge path bit for bit
    leader = data.draw(st.booleans())
    topo = data.draw(valid_graphs(leader))
    n = topo.n
    lead = data.draw(st.sampled_from([(), (3,)]))
    sources = ball_points(data.draw, lead + (n + 1,))
    sigma, ref = sources[..., :n, :], sources.reshape(-1, 3)[-1]
    sigma_dot = data.draw(arrays(float, lead + (n, 3), elements=st.floats(-2.0, 2.0)))
    craft = [Spacecraft(inertia=InertiaParams(np.array(j)),
                        initial_state=SpacecraftState(np.zeros(3), np.zeros(3)),
                        gains=PAPER_GAINS)
             for j in FLEET_J[:n]]
    sim = Simulation(Scenario(
        spacecraft=craft, topology=topo, mode="tracking" if leader else "leaderless",
        reference=ReferenceTrajectory("constant", value=ref) if leader else None,
        shadow_switch=True))
    table = np.concatenate([sigma, np.broadcast_to(ref, lead + (1, 3))], -2)
    x, to = table[..., sim._src, :], sigma[..., sim._dst, :]
    assert not (np.einsum("...i,...i->...", to - x, to - x)
                > 1.0 + np.einsum("...i,...i->...", to, to)).any()
    got = sim._aggregates(0.5, sigma, sigma_dot)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_FLIP_FREE_SQ", -np.inf)  # every evaluation tests every edge
        want = sim._aggregates(0.5, sigma, sigma_dot)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_closer_image_runs_only_outside_the_fleet_bound(monkeypatch):
    # the per-edge test runs once the largest source |x|^2, over every member's
    # craft and the reference, exceeds _FLIP_FREE_SQ, or any source is not finite
    calls = []
    closer_image = simulator._closer_image
    monkeypatch.setattr(simulator, "_closer_image",
                        lambda *args: calls.append(1) or closer_image(*args))
    inside = np.array([[0.3, 0.2, 0.1], [-0.4, 0.1, 0.2]])  # |sigma|^2 0.14 and 0.21
    outside = inside.copy()
    outside[1] = [0.5, -0.2, 0.15]  # 0.3125
    rates = np.full((2, 3), 0.1)
    leaderless = Simulation(pair_scenario(shadow_switch=True))
    tracking = pair_scenario(mode="tracking", shadow_switch=True)
    far_reference = dataclasses.replace(
        tracking, reference=ReferenceTrajectory("constant", value=[0.6, 0.0, 0.0]))
    with np.errstate(all="ignore"):
        for sim, sigma, want in [
                (leaderless, inside, 0),
                (leaderless, outside, 1),
                (leaderless, np.stack([inside, inside, inside]), 0),
                (leaderless, np.stack([inside, outside, inside]), 1),
                (leaderless, np.stack([inside, np.full((2, 3), np.nan), inside]), 1),
                (leaderless, np.stack([inside, np.full((2, 3), np.inf), inside]), 1),
                (Simulation(tracking), inside, 0),
                (Simulation(far_reference), inside, 1)]:
            calls.clear()
            sim._aggregates(0.5, sigma, np.broadcast_to(rates, sigma.shape))
            assert len(calls) == want


@given(st.data())
def test_closer_image_closed_form_matches_the_explicit_distances(data):
    # the shadow -x/|x|^2 is closer to `to` iff |to - x|^2 > 1 + |to|^2; away
    # from ties that picks what comparing both distances picks, for per-edge
    # states against their receivers and for a (3,) reference against (B, N, 3)
    lead = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4)))

    def stack(strategy, shape):
        size = int(np.prod(shape, dtype=int))
        return np.reshape(data.draw(st.lists(strategy, min_size=size, max_size=size)),
                          shape + (3,))

    to = stack(attitudes, lead)
    shape = data.draw(st.sampled_from([lead, ()]))
    x, x_dot = stack(attitudes, shape), stack(rates, shape)
    if shape and data.draw(st.booleans()):  # each x 1e-6 inside or outside the boundary
        norm = np.linalg.norm(x, axis=-1, keepdims=True)
        t = np.einsum("...i,...i->...", to, x)[..., None] / norm
        side = data.draw(arrays(float, lead + (1,), elements=st.sampled_from([-1e-6, 1e-6])))
        x = x / norm * (t + np.sqrt(t * t + 1.0)) * (1.0 + side)
    if data.draw(st.booleans()):  # a zero attitude, which never flips
        x[(slice(None), data.draw(st.integers(0, lead[1] - 1))) if shape else ...] = 0.0
    with np.errstate(all="ignore"):  # x = 0 has no finite shadow
        shadow, shadow_dot = mrp_shadow(x, x_dot)
        d_raw = np.einsum("...i,...i->...", to - x, to - x)
        d_sh = np.einsum("...i,...i->...", to - shadow, to - shadow)
        got = [np.broadcast_to(v, to.shape) for v in simulator._closer_image(x, x_dot, to)]
    flip = (d_sh < d_raw)[..., None]  # a nan distance (x = 0) compares false
    clear = ~(np.abs(d_sh - d_raw) <= 1e-9 * (d_sh + d_raw))
    for g, want in zip(got, (np.where(flip, shadow, x), np.where(flip, shadow_dot, x_dot))):
        assert np.array_equal(g[clear], want[clear])


# ------------------------------------------------- logged-signal checks


def test_logged_errors_match_offline_recomputation():
    # under the held source every craft hears the leader alone and the law
    # reads the reference itself, so the logged errors must equal the errors
    # to the reference recomputed from the log alone
    sc = star_scenario(duration=3.0)
    log = Simulation(sc).run(decimate=1)
    sigma_dot = mrp_rate(log.sigma, log.omega)
    sr = np.stack([sc.reference.at(t)[0] for t in log.times])
    sr_dot = np.stack([sc.reference.at(t)[1] for t in log.times])
    e = log.sigma - sr[:, None]
    s = (sigma_dot - sr_dot[:, None]) + e  # Lambda = I
    assert np.abs(e - log.sync_error).max() <= 1e-10
    assert np.abs(s - log.filtered_error).max() <= 1e-10


def test_logged_filtered_error_consistent_under_smoothing():
    # smoothed runs measure errors against the generator state, which is not
    # logged; but s - Lambda e must still be the time derivative of e
    sc = pair_scenario(duration=2.0)
    log = Simulation(sc).run(decimate=1)
    e_dot_implied = log.filtered_error - log.sync_error  # Lambda = I
    e_dot_fd = np.gradient(log.sync_error, log.times, axis=0)
    settled = slice(100, -5)  # skip the high-curvature transient
    assert np.abs((e_dot_implied - e_dot_fd)[settled]).max() <= 1e-3


def test_lyapunov_initial_value_smoothed_is_estimate_term_only():
    # the generator starts seated on each craft's own state, so s(0) = 0 and
    # V(0) is purely the estimation error: 1/2 sum theta^T Gamma^-1 theta
    sc = pair_scenario(duration=1.0)
    log = Simulation(sc).run()
    want = sum(
        0.5 * c.inertia.theta @ c.inertia.theta / 3.0 for c in sc.spacecraft
    )
    assert abs(log.lyapunov[0] - want) <= 1e-12 * (1.0 + want)


def test_seated_generator_gives_exactly_zero_initial_errors():
    # chi_dot(0) is formed as the first evaluation forms sigma_dot(0), bit for bit,
    # so e(0) and s(0) are exactly zero, not zero to rounding
    tracking = preset("paper-tracking").with_overrides(duration=0.05)
    leaderless = preset("paper-leaderless").with_overrides(duration=0.05, shadow_switch=True)
    runs = [Simulation(tracking.to_scenario(seed)).run() for seed in range(1, 9)]
    runs.append(Simulation(leaderless.to_scenario()).run())
    runs += Simulation([tracking.to_scenario(seed) for seed in (2, 4, 5)]).run()
    for log in runs:
        assert not log.sync_error[0].any() and not log.filtered_error[0].any()


def test_lyapunov_positive_and_zero_exactly_at_rest():
    def v0(omega0):
        sc = single_craft_scenario(j=FLEET_J[0], sigma0=(0.1, 0.3, 0.5), omega0=omega0,
                                   sigma_ref=(0.1, 0.3, 0.5), perfect=True,
                                   duration=0.005)
        return Simulation(sc).run().lyapunov[0]

    assert v0((0.0, 0.0, 0.0)) == 0.0
    assert v0((0.1, 0.0, 0.0)) > 0.0


def stable_pair_scenario(duration=5.0):
    """Pair with the gentle-generator settings the leaderless preset uses."""
    return pair_scenario(duration=duration, smoothing_rate=1.0, rate_leak=0.2,
                         shadow_switch=True)


def test_lyapunov_nonincreasing_on_short_adaptive_run():
    log = Simulation(stable_pair_scenario()).run(decimate=1)
    v = log.lyapunov
    assert np.all(v[1:] <= v[:-1] + 1e-4 * (1.0 + v[:-1]))


@st.composite
def adaptive_ensembles(draw, members=st.integers(2, 4)):
    """`smoothed` scenarios sharing a valid graph of 2-6 craft in either mode, with
    or without shadow_switch, a constant reference inside the 0.5 ball and the
    generator; each member draws its own per-craft inertias 10^[-1, 1] (A A^T + I),
    A in [-1, 1], gains and seeded states."""
    leader = draw(st.booleans())
    topo = draw(valid_graphs(leader, st.integers(2, 6)))
    ref = None
    if leader:
        direction = draw(arrays(float, 3, elements=st.floats(-1.0, 1.0)))
        assume(np.linalg.norm(direction) > 0.1)
        ref = ReferenceTrajectory("constant", value=draw(st.floats(0.0, 0.5))
                                  * direction / np.linalg.norm(direction))
    shared = dict(topology=topo, reference=ref, duration=1.0,
                  mode="tracking" if leader else "leaderless",
                  shadow_switch=draw(st.booleans()),
                  smoothing_rate=draw(st.floats(0.5, 6.0)),
                  rate_leak=draw(st.floats(0.0, 0.5)))
    scale = st.floats(0.3, 5.0)

    def craft():
        return [Spacecraft(
            inertia=draw(st.builds(_spd, arrays(float, (3, 3), elements=st.floats(-1.0, 1.0)),
                                   st.floats(-1.0, 1.0))),
            initial_state=state,
            gains=GainSet(draw(st.floats(0.3, 3.0)) * np.eye(3), draw(scale) * np.eye(3),
                          np.diag(draw(arrays(float, 6, elements=scale)))))
            for state in random_initial_states(draw(st.integers(0, 2**32 - 1)), topo.n)]

    return [Scenario(spacecraft=craft(), **shared) for _ in range(draw(members))]


def adaptive_fleets():
    """One scenario of `adaptive_ensembles`."""
    return adaptive_ensembles(st.just(1)).map(lambda members: members[0])


@settings(deadline=None, max_examples=30)
@given(adaptive_ensembles())
def test_lyapunov_claim_holds_on_any_valid_graph(members):
    # under the smoothed source V is non-increasing up to integration error on
    # any valid digraph, and the estimates stay inside the V(0) cap: the
    # gate's own slack and margin, over what the gate's presets fix.  The 2-4
    # members of a graph, each with its own craft, run as one ensemble
    for b, log in enumerate(Simulation(members).run(decimate=1)):
        assert isinstance(log, TrajectoryLog), "member %d: %s" % (b, log)
        assert v_slack_violation(log.lyapunov) <= 0.0, (
            "member %d: V rose by more than V_SLACK = %g" % (b, V_SLACK))
        assert estimate_bound_margin(log) <= 1.0, "member %d" % b


# max |program - oracle| over sigma, omega and theta_hat at dt 0.005 for 0.5 s: 4x
# the largest gap measured over 540 `adaptive_fleets` draws (2.4e-4).  Halving dt
# shrinks the gap 16-fold (median; 6.8-18 above rounding, the low end on the stiffest
# draws), so it is the RK4 truncation error of the two forms
ORACLE_GAP = 1e-3


def shadowed_pair(mode):
    """Craft 2 and 3 of the fleet as a pair from |sigma| up to 0.95, 0.5 s under
    shadow_switch: chart alignment takes shadows on edges and one craft flips."""
    sc = pair_scenario(duration=0.5, mode=mode, shadow_switch=True)
    craft = tuple(dataclasses.replace(c, inertia=InertiaParams(np.array(j)))
                  for c, j in zip(sc.spacecraft, FLEET_J[1:3]))
    return with_states(dataclasses.replace(sc, spacecraft=craft),
                       random_initial_states(1, 2, 0.95, 0.3))


def assert_matches_oracle(sc):
    log = Simulation(sc).run(decimate=1)
    for name, got, want in zip(("sigma", "omega", "theta_hat"),
                               (log.sigma, log.omega, log.theta_hat), oracles.fleet_run(sc)):
        gap = np.abs(got - want).max()
        assert gap <= ORACLE_GAP, "%s is %.3g from the MRP-space oracle" % (name, gap)


@settings(deadline=None, max_examples=20)
@given(adaptive_fleets())
@example(shadowed_pair("leaderless")).via("chart alignment and a craft flip")
@example(shadowed_pair("tracking")).via("chart alignment and a craft flip")
def test_simulation_steps_as_the_mrp_space_euler_lagrange_oracle(sc):
    # the body-frame loop, stepped whole, against the paper's MRP-space form
    # H* sigma_ddot = G^-T u - C* sigma_dot with u = G^T (Y theta_hat - K s),
    # integrated in sigma_dot rather than omega by an independent RK4
    assert_matches_oracle(dataclasses.replace(sc, duration=0.5))


def _flip_adaptation(*args):
    u, e, s, theta_dot = controller_outputs(*args)
    return u, e, s, -theta_dot


def _drop_f_term(sigma, sigma_dot, omega, g_inv, v_r, a_r):
    # M = L(alpha) - F(omega, omega_r), and F(0, omega_r) = S(J 0) omega_r = 0
    return body_regression(sigma, sigma_dot, np.zeros_like(omega), g_inv, v_r, a_r)


def _farther_image(x, x_dot, to):
    d = to - x
    flip = (np.einsum("...i,...i->...", d, d)
            <= 1.0 + np.einsum("...i,...i->...", to, to))[..., None]
    shadow, shadow_dot = mrp_shadow(x, x_dot)
    return np.where(flip, shadow, x), np.where(flip, shadow_dot, x_dot)


@pytest.mark.parametrize("module, name, mutant", [
    (simulator, "controller_outputs", _flip_adaptation),
    (control, "body_regression", _drop_f_term),
    (simulator, "_closer_image", _farther_image),
], ids=["theta-hat-dot-sign", "no-F-term", "farther-image"])
def test_the_oracle_property_fails_on_a_mutated_loop(monkeypatch, module, name, mutant):
    # each mutant replaces the program's binding only; the oracle calls none of them
    monkeypatch.setattr(module, name, mutant)
    with np.errstate(all="ignore"), pytest.raises((AssertionError, SimulationDiverged)):
        assert_matches_oracle(shadowed_pair("tracking"))


def test_filtered_error_bounded_by_initial_lyapunov_level():
    # |s_i|^2 <= 2 V / lambda_min(H*), with lambda_min(H*) at attitude sigma
    # at least 16 lambda_min(J) / (1 + |sigma|^2)^2
    sc = stable_pair_scenario()
    log = Simulation(sc).run()
    v0 = log.lyapunov[0]
    for i, c in enumerate(sc.spacecraft):
        lam_min_j = np.linalg.eigvalsh(c.inertia.matrix)[0]
        norm2 = np.einsum("ri,ri->r", log.sigma[:, i, :], log.sigma[:, i, :])
        cap = np.sqrt(2.0 * v0 * (1.0 + norm2) ** 2 / (16.0 * lam_min_j))
        s_norm = np.linalg.norm(log.filtered_error[:, i, :], axis=1)
        assert np.all(s_norm <= cap * (1.0 + 1e-6) + 1e-12)


# --------------------------------------------------------------- metrics


def test_disagreement_examples():
    sc = pair_scenario(duration=1.0)
    states = [
        SpacecraftState(np.zeros(3), np.zeros(3)),
        SpacecraftState(np.array([0.3, 0.0, 0.0]), np.zeros(3)),
    ]
    craft = tuple(
        dataclasses.replace(c, initial_state=st)
        for c, st in zip(sc.spacecraft, states)
    )
    log = Simulation(dataclasses.replace(sc, spacecraft=craft)).run()
    assert abs(log.disagreement[0] - 0.3) <= 1e-15
    same = tuple(
        dataclasses.replace(c, initial_state=states[0]) for c in sc.spacecraft
    )
    log = Simulation(dataclasses.replace(sc, spacecraft=same)).run()
    assert log.disagreement[0] == 0.0


def test_tracking_error_zero_on_reference():
    ref = (0.1, 0.3, 0.5)
    sc = single_craft_scenario(sigma0=ref, omega0=(0, 0, 0), sigma_ref=ref,
                               perfect=True, duration=1.0)
    log = Simulation(sc).run()
    assert log.tracking_error[0] == 0.0
    assert log.tracking_error.max() <= 1e-9


def test_tracking_error_is_taken_to_the_closer_image_of_the_reference():
    # a reference near [0, 0, 1.5] and its shadow near [0, 0, -2/3] are one
    # attitude; the chain leader -> 1 -> 2 starts closer to the shadow, which
    # the aligned aggregate steers it to, so T and the tracking rate measure to it
    ref = ReferenceTrajectory("sinusoid", amplitude=[0.05, 0.0, 0.0], frequency=1.0,
                              offset=[0.0, 0.0, 1.5])
    chain = CommTopology(np.array([[0.0, 0.0], [1.0, 0.0]]), leader_weights=[1.0, 0.0])
    sc = Scenario(spacecraft=star_scenario().spacecraft, topology=chain, mode="tracking",
                  reference=ref, duration=0.5, shadow_switch=True)
    log = Simulation(sc).run(decimate=10)
    sigma_dot = mrp_rate(log.sigma, log.omega)
    t_err, t_rate = [], []
    for t, sigma, rate in zip(log.times, log.sigma, sigma_dot):
        images = [ref.at(t)[:2], mrp_shadow(*ref.at(t)[:2])]
        closer = [min(images, key=lambda im: np.linalg.norm(x - im[0])) for x in sigma]
        t_err.append(max(np.linalg.norm(x - im[0]) for x, im in zip(sigma, closer)))
        t_rate.append(max(np.linalg.norm(v - im[1]) for v, im in zip(rate, closer)))
    assert log.tracking_error[0] < 0.8  # 1.71 to the reference as written
    np.testing.assert_allclose(log.tracking_error, t_err, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(log.tracking_rate, t_rate, rtol=1e-15, atol=0.0)


def test_metrics_summary_consistent_with_log():
    sc = pair_scenario(duration=2.0)
    log = Simulation(sc).run()
    out = metrics(log)
    assert out["mode"] == "leaderless"
    assert out["records"] == log.n_records
    assert out["duration"] == log.times[-1]
    assert out["disagreement_final"] == log.disagreement[-1]
    assert out["lyapunov_initial"] == log.lyapunov[0]
    assert out["lyapunov_final"] == log.lyapunov[-1]
    assert out["torque_max"] == np.linalg.norm(log.torque, axis=2).max()
    assert out["theta_hat_norm_max"] == np.linalg.norm(log.theta_hat, axis=2).max()
    assert "tracking_error_final" not in out and log.tracking_rate is None
    sigma_dot = mrp_rate(log.sigma, log.omega)
    d_rate = [max(np.linalg.norm(a - b) for a in v for b in v) for v in sigma_dot]
    assert np.allclose(log.disagreement_rate, d_rate, rtol=1e-14, atol=0.0)
    assert out["disagreement_rate_final"] == log.disagreement_rate[-1]

    tlog = Simulation(star_scenario(duration=1.0)).run()
    tout = metrics(tlog)
    assert tout["tracking_error_final"] == tlog.tracking_error[-1]
    assert tout["tracking_rate_final"] == tlog.tracking_rate[-1]
    assert np.isfinite(tout["tracking_rate_final"])
    for m in (out, tout):  # finals only: every value is a scalar
        assert all(np.isscalar(v) for v in m.values())
