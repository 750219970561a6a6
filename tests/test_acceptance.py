"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report lines including runtimes.
"""

import time

import numpy as np
import pytest

from coopreg import comm_graph as cg
from coopreg import signal_model
from coopreg import simulator as sim
from coopreg import synthesis
from coopreg.backstepping import TriangularKernel, invert_kernel, solve_kernel
from coopreg.cli import run_synthesis
from coopreg.errors import NonPositiveBound, NotControllable, ResonantSpectrum
from coopreg.scenario import ResolvedScenario, loads
from coopreg.synthesis import MODE_LEADER

from _support import (
    cascade_discrepancy,
    kernel_residual,
    nominal_resolved,
    numerator_at,
    numerator_by_ode,
    pack,
    random_connected_topology,
    random_smooth_profile,
)
from test_comm_graph import FOUR_AGENT_LAPLACIAN, four_agent_topology


def report(number: int, description: str, ok: bool, started: float, budget: float):
    elapsed = time.time() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {description} [{elapsed:.2f}s / {budget:.0f}s]")
    assert ok, f"criterion {number} failed: {description}"
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


def test_criterion_1_graph_suite():
    started = time.time()
    ok = True

    graph = cg.laplacian(four_agent_topology())
    ok &= np.array_equal(graph.laplacian, FOUR_AGENT_LAPLACIAN)

    rng = np.random.default_rng(2024)
    for _ in range(100):
        top = random_connected_topology(rng, with_leader=True)
        lap = cg.laplacian(top).laplacian
        ok &= np.array_equal(lap @ np.ones(top.n_agents), np.zeros(top.n_agents))

    bound = cg.spectral_lower_bound(graph.leader_follower)
    ok &= abs(bound - 0.382) <= 1e-3
    report(1, "graph suite (benchmark Laplacian, row sums, spectral margin)", ok, started, 1.0)


def test_criterion_2_kernel_suite():
    started = time.time()
    ok = True
    a_fn = lambda z: z + 1.0

    k100 = solve_kernel(a_fn, 3.0, 5.0, m=100)
    k200 = solve_kernel(a_fn, 3.0, 5.0, m=200)

    z = k200.nodes
    diag_exact = 3.0 - 0.5 * (6.0 * z + 0.5 * z**2)
    ok &= np.abs(k200.diagonal() - diag_exact).max() <= 1e-3

    r100 = kernel_residual(k100, a_fn, 5.0)
    r200 = kernel_residual(k200, a_fn, 5.0)
    ok &= np.log2(r100 / r200) >= 1.8

    ki = TriangularKernel(pack(invert_kernel(k200, np.eye(201))))
    fwd = np.eye(201) - k200.integral_operator()
    inv = np.eye(201) + ki.integral_operator()
    rng = np.random.default_rng(77)
    for _ in range(10):
        prof = random_smooth_profile(rng, 200, 6)
        back = inv @ (fwd @ prof)
        ok &= np.linalg.norm(back - prof) / np.linalg.norm(prof) <= 1e-3
    report(2, "kernel suite (diagonal, residual order, inverse composition)", ok, started, 30.0)


def test_criterion_3_decoupling_and_riccati(leader_design_m400):
    started = time.time()
    from scipy.interpolate import make_interp_spline

    r = leader_design_m400
    ok = True

    m = 400
    coarse = np.linspace(0.0, 1.0, m + 1)
    fine = np.linspace(0.0, 1.0, 2 * m + 1)
    q_fine = np.stack(
        [make_interp_spline(coarse, r.decoupling.q_tilde[i], k=5)(fine) for i in range(3)]
    )
    c_fine = make_interp_spline(coarse, r.output_transformed.smooth_weight.values, k=5)(fine)
    a_mat = 5.0 * np.eye(3) + r.exo.S
    h_fine = 0.5 / m
    second = (q_fine[:, 2:] - 2.0 * q_fine[:, 1:-1] + q_fine[:, :-2]) / h_fine**2
    residual = second - a_mat @ q_fine[:, 1:-1] - np.outer(r.exo.b_y, c_fine[1:-1])
    ok &= np.abs(residual).max() <= 1e-5

    q = r.riccati_q
    g = r.decoupling.q_tilde_at_1
    are_res = (
        r.exo.S.T @ q + q @ r.exo.S - 2.0 * r.nu * q @ np.outer(g, g) @ q + 150.0 * np.eye(3)
    )
    ok &= np.linalg.norm(are_res, "fro") <= 1e-8 * 150.0 * 3
    ok &= np.linalg.eigvalsh(q).min() > 0

    for lam in np.linalg.eigvals(r.graph.leader_follower):
        block = r.exo.S - lam * np.outer(g, r.gains.k_v)
        ok &= np.linalg.eigvals(block).real.max() < 0
    report(3, "decoupling residual, Riccati solution, per-eigenvalue blocks", ok, started, 10.0)


def test_criterion_4_nonblocking(leader_design):
    started = time.time()
    r = leader_design
    ok = True
    for lam in (0.0, 1j * np.pi, -1j * np.pi):
        closed = numerator_at(lam, r.output_transformed, 5.0)
        ok &= abs(closed) > 1e-6
        ok &= abs(closed - numerator_by_ode(lam, r.output_transformed, 5.0)) <= 1e-8
    ok &= min(v for _, v in r.nonblocking) > 1e-6
    report(4, "nonblocking margins at the signal frequencies, design and ODE oracle", ok, started, 1.0)


def cascade_draws(scenario, design, rng, n_draws, m=200, dt=1e-3, n_steps=2000):
    """Criterion-5 discrepancies of random draws of x0 and v0, and their bound 5(1/m^2 + dt)."""
    discrepancies = []
    for _ in range(n_draws):
        x0 = np.stack([random_smooth_profile(rng, m) for _ in range(4)])
        v0 = rng.normal(size=(4, 3))
        resolved = nominal_resolved(
            scenario, m=m, dt=dt, n_steps=n_steps, x0=x0, v0=v0, sample_every=5
        )
        trace = sim.simulate(resolved, design.gains, record_state=True)
        e_v, x_t = sim.transform_state_trace(
            trace, design.kernel, design.decoupling.q_tilde, design.graph.leader_follower
        )
        cascade = sim.simulate_target_cascade(
            design.gains, design.graph.leader_follower, design.decoupling.q_tilde_at_1,
            e_v[0], x_t[0], dt, n_steps, sample_every=5,
        )
        discrepancies.append(cascade_discrepancy(e_v, x_t, cascade))
    return np.array(discrepancies), 5.0 * (1.0 / m**2 + dt)


def test_criterion_5_structural_oracle(leader_scenario, leader_design):
    started = time.time()
    discrepancies, tol = cascade_draws(leader_scenario, leader_design, np.random.default_rng(42), 5)
    ok = bool(np.all(discrepancies <= tol))
    report(5, "transform pushforward matches the target-cascade simulation", ok, started, 120.0)


@pytest.mark.parametrize("seed, rep", [(10, 1), (9, 10), (17, 12)])
def test_criterion_5_on_rare_benchmark_draws(leader_scenario, leader_design, seed, rep):
    # the oracle_cross repetitions whose worst draw exceeded the bound while
    # the internal-model drive and the boundary input were held over each step
    rng = np.random.default_rng([seed, rep])
    discrepancies, tol = cascade_draws(leader_scenario, leader_design, rng, 4)
    assert discrepancies.max() <= tol


def test_criterion_6_leader_follower_regulation(leader_scenario, leader_design):
    started = time.time()
    trace = sim.simulate(leader_scenario.resolve(), leader_design.gains)
    errors = np.abs(trace.tracking_errors)
    tail = errors[trace.times >= 16.0].max()
    metrics = sim.error_metrics(trace, MODE_LEADER)
    ok = tail < 0.1 and metrics.decay_rate > 0
    report(
        6,
        f"leader-follower regulation under uncertainty (tail {tail:.2e})",
        ok, started, 300.0,
    )


def test_criterion_7_leaderless_synchronization(leaderless_scenario, leaderless_design):
    started = time.time()
    r = leaderless_design
    trace = sim.simulate(leaderless_scenario.resolve(), r.gains)
    sync = trace.pairwise_sync_errors()
    tail = sync[trace.times >= 16.0].max()
    ss = synthesis.sync_steady_state(r.exo.S, r.gains.k_v, 5.0, r.output_transformed)
    # nominal agents under a silent exosystem settle on the trajectory y_map v_1(t)
    # that agent 1's internal model generates
    shipped, m = leaderless_scenario.resolve(), r.m
    nominal = nominal_resolved(
        leaderless_scenario, m=m, dt=1e-3, n_steps=20000,
        x0=[ag.initial_profile.values for ag in shipped.agents], v0=shipped.v0, sample_every=50,
    )
    synced = sim.simulate(nominal, r.gains, record_state=True)
    predicted = synced.states_v[:, 0, :] @ ss.y_map
    late = synced.times >= 16.0
    deviation = np.abs(synced.outputs[late] - predicted[late, None]).max()
    deviation /= np.abs(synced.outputs).max()
    ok = tail < 0.1 and deviation <= 5.0 / m**2
    report(
        7,
        f"leaderless synchronization (tail {tail:.2e}, trajectory deviation {deviation:.1e})",
        ok, started, 300.0,
    )


def test_criterion_8_disturbance_location_robustness(leader_scenario, leader_design):
    started = time.time()
    m = 200
    rng = np.random.default_rng(3)
    nodes = np.linspace(0.0, 1.0, m + 1)
    base = leader_scenario.agent_specs(m)
    randomized = tuple(
        sim.AgentSpec(
            delta_lambda=spec.delta_lambda,
            delta_a=spec.delta_a,
            delta_q0=spec.delta_q0,
            delta_q1=spec.delta_q1,
            delta_c0=spec.delta_c0,
            delta_points=spec.delta_points,
            delta_cb0=spec.delta_cb0,
            delta_cb1=spec.delta_cb1,
            g1=(
                rng.normal() + rng.normal() * nodes
                + rng.normal() * np.cos(np.pi * nodes)
                + rng.normal() * np.sin(2 * np.pi * nodes)
            ).reshape(-1, 1),
            g2=spec.g2,
            g3=spec.g3,
            g4=np.ones(1),
            initial_profile=spec.initial_profile,
        )
        for spec in base
    )
    resolved = leader_scenario.resolve()
    resolved = ResolvedScenario(
        mode=resolved.mode, plant=resolved.plant, agents=randomized,
        topology=resolved.topology, exo=resolved.exo, dt=resolved.dt,
        n_steps=resolved.n_steps, sample_every=resolved.sample_every,
        snapshot_times=resolved.snapshot_times, blowup_bound=resolved.blowup_bound,
        v0=resolved.v0, w0=resolved.w0,
    )
    trace = sim.simulate(resolved, leader_design.gains)
    tail = np.abs(trace.tracking_errors)[trace.times >= 16.0].max()
    ok = tail < 0.1
    report(8, f"regulation with randomized disturbance locations (tail {tail:.2e})", ok, started, 300.0)


def test_criterion_9_negative_controls(leader_scenario_text):
    started = time.time()
    ok = True

    edgeless = loads(
        leader_scenario_text.replace(
            "adjacency = 0 0 1 0 ; 1 0 0 1 ; 1 0 0 0 ; 0 0 1 0",
            "adjacency = 0 0 0 0 ; 0 0 0 0 ; 0 0 0 0 ; 0 0 0 0",
        ).replace("leader_links = 1 0 0 0", "leader_links = 0 0 0 0")
    )
    try:
        run_synthesis(edgeless, m=64)
        ok = False
    except NonPositiveBound:
        pass

    no_drive = loads(leader_scenario_text.replace("b_y = 1 1 1", "b_y = 0 0 0"))
    ok &= not signal_model.check_controllable(no_drive.exo_model().S, np.zeros(3))
    try:
        run_synthesis(no_drive, m=64)
        ok = False
    except NotControllable:
        pass

    resonant = loads(leader_scenario_text.replace("mu_c = 5", "mu_c = 0"))
    try:
        run_synthesis(resonant, m=64)
        ok = False
    except ResonantSpectrum:
        pass
    report(9, "negative controls (edgeless, undriven copy, resonant shift)", ok, started, 5.0)
