"""Closed-loop simulation: outputs, controller, steppers, traces, metrics."""

import dataclasses
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import block_diag, expm

from coopreg import simulator
from coopreg.backstepping import OutputOperator
from coopreg.comm_graph import CommTopology
from coopreg.errors import GridMismatch, NumericalBlowup, SchemaError, SingularStep
from coopreg.grid import GridFunction, trapezoid_weights, uniform_nodes
from coopreg.linalg import PartitionedSolve, chunk_rows, expm as propagator, largest_eigenvalue
from coopreg.scenario import ResolvedScenario, loads
from coopreg.signal_model import ExoModel, frequency_blocks
from coopreg.simulator import (
    BLOCK_BYTES,
    AgentSpec,
    ClosedLoopStep,
    NominalPlant,
    SimTrace,
    error_metrics,
    simulate,
    simulate_target_cascade,
    transform_state_trace,
    _closed_loop,
)
from coopreg.synthesis import MODE_LEADER, MODE_LEADERLESS, RegulatorGains

from _support import (
    cascade_discrepancy,
    constant_exo,
    dense_crank_nicolson,
    dense_stencil,
    dense_step_cascade,
    dense_step_loop,
    first_output,
    loop_scenario,
    nominal_agents,
    nominal_resolved,
    random_smooth_profile,
    silent_exo,
    silent_gains,
    silent_plant,
    stepwise_cascade,
    stepwise_simulate,
)


def plain_agent(m: int, **kwargs) -> AgentSpec:
    kwargs.setdefault("delta_lambda", GridFunction.constant(0.0, m))
    kwargs.setdefault("delta_a", GridFunction.constant(0.0, m))
    return AgentSpec(**kwargs)


def benchmark_output(m: int) -> OutputOperator:
    return OutputOperator(
        GridFunction(-uniform_nodes(m)), boundary_weights=(1.0, 1.0)
    )


def toy_gains(m: int, n_w: int = 2) -> RegulatorGains:
    s = np.zeros((n_w, n_w))
    s[:2, :2] = [[0.0, 1.0], [-1.0, 0.0]]
    return RegulatorGains(
        k_v=np.zeros(n_w),
        k_1=0.0,
        k_x=GridFunction.constant(0.0, m),
        r_x=GridFunction.constant(0.0, m),
        b_y=np.ones(n_w),
        S=s,
        mu_c=1.0,
    )


def uncertain_resolved(scenario, m: int = 48, n_steps: int = 200, seed: int = 3):
    """The scenario's graph and signal model, with a plant and agents that use every loop term.

    Point output weights, g4 feedthrough and nonzero delta-uncertainties in
    every coefficient; every step is sampled.
    """
    rng = np.random.default_rng(seed)
    resolved = scenario.resolve(m=m, horizon=n_steps * 1e-3)
    plant = NominalPlant(
        a=GridFunction(uniform_nodes(m) + 1.0), q0=3.0, q1=0.5,
        output=OutputOperator(
            GridFunction(-uniform_nodes(m)),
            point_weights=((0.7, 0.3), (-0.4, 0.85)),
            boundary_weights=(1.0, 0.5),
        ),
    )
    agents = tuple(
        AgentSpec(
            delta_lambda=GridFunction(0.1 * np.tanh(random_smooth_profile(rng, m))),
            delta_a=GridFunction(random_smooth_profile(rng, m)),
            delta_q0=rng.normal(scale=0.2), delta_q1=rng.normal(scale=0.2),
            delta_c0=GridFunction(0.1 * random_smooth_profile(rng, m)),
            delta_points=(rng.normal(scale=0.1),),
            delta_cb0=rng.normal(scale=0.05), delta_cb1=rng.normal(scale=0.05),
            g1=rng.normal(size=(m + 1, p_i.shape[0])), g2=rng.normal(size=p_i.shape[0]),
            g3=rng.normal(size=p_i.shape[0]), g4=1.0 + rng.random(p_i.shape[0]),
            initial_profile=GridFunction(random_smooth_profile(rng, m)),
        )
        for p_i in resolved.exo.read_outs
    )
    gains = RegulatorGains(
        k_v=rng.normal(size=3), k_1=0.7,
        k_x=GridFunction(random_smooth_profile(rng, m)),
        r_x=GridFunction(random_smooth_profile(rng, m)),
        b_y=rng.normal(size=3), S=resolved.exo.S, mu_c=5.0,
    )
    resolved = dataclasses.replace(
        resolved, plant=plant, agents=agents, sample_every=1, n_steps=n_steps,
        v0=tuple(map(tuple, rng.normal(size=(len(agents), 3)))),
    )
    return resolved, gains


def unstable_resolved(scenario, m: int, reaction: float, amplitude: float, bound: float,
                      n_steps: int):
    """Uncoupled agents with reaction a + ``reaction``, started from random
    profiles of size ``amplitude``, and zero gains: the state grows until it
    passes ``bound``."""
    rng = np.random.default_rng(4)
    x0 = amplitude * np.stack([random_smooth_profile(rng, m) for _ in range(4)])
    resolved = nominal_resolved(
        scenario, m=m, dt=1e-3, n_steps=n_steps, x0=x0, v0=np.zeros((4, 3)),
    )
    agents = tuple(
        AgentSpec(
            delta_lambda=GridFunction.constant(0.0, m),
            delta_a=GridFunction.constant(reaction, m),
            g1=np.zeros((m + 1, 1)), g2=np.zeros(1), g3=np.zeros(1), g4=np.zeros(1),
            initial_profile=GridFunction(x0[i]),
        )
        for i in range(4)
    )
    resolved = ResolvedScenario(
        mode=resolved.mode, plant=resolved.plant, agents=agents,
        topology=resolved.topology, exo=resolved.exo, dt=1e-3,
        n_steps=n_steps, sample_every=5, snapshot_times=(),
        blowup_bound=bound, v0=resolved.v0, w0=resolved.w0,
    )
    gains = RegulatorGains(
        k_v=np.zeros(3), k_1=0.0, k_x=GridFunction.constant(0.0, m),
        r_x=GridFunction.constant(0.0, m), b_y=np.ones(3),
        S=resolved.exo.S, mu_c=5.0,
    )
    return resolved, gains


def assert_rel_close(actual, expected, rel: float = 1e-12):
    assert np.abs(actual - expected).max() <= rel * np.abs(expected).max()


def first_inputs(gains: RegulatorGains, topology, v, x, mode) -> np.ndarray:
    """Boundary inputs at sample 0 of a ``simulate`` run from profiles x and internal models v."""
    agents = [plain_agent(gains.m, initial_profile=GridFunction(row)) for row in x]
    resolved = loop_scenario(
        silent_plant(gains.m), agents, topology, silent_exo(len(agents)), w0=[0.0], v0=v,
        mode=mode,
    )
    return simulate(resolved, gains).inputs[0]


def stepped_models(gains: RegulatorGains, topology, v, y, r, dt, mode=MODE_LEADER, n_steps=1):
    """Internal models after n_steps of ``simulate`` with every output y_i and the reference r held.

    The output operator is zero, so agent i's output is its feedthrough
    g4 . d_i = y_i, read from a constant signal state like the reference.
    """
    m = gains.m
    agents = [plain_agent(m, g1=np.zeros((m + 1, 1)), g4=np.ones(1)) for _ in y]
    resolved = loop_scenario(
        silent_plant(m), agents, topology, constant_exo(r, [[[y_i]] for y_i in y]),
        w0=[1.0], v0=v, mode=mode, dt=dt, n_steps=n_steps,
    )
    return simulate(resolved, gains, record_state=True).states_v[-1]


def held_input_states(plant: NominalPlant, agents, u, dt, exo=None, w0=(0.0,), n_steps=1):
    """Profiles over n_steps of ``simulate`` with each boundary input held at u_i.

    The law is u = k_v v with k_v = 1 and a frozen internal model started at v = u.
    """
    n = len(agents)
    gains = dataclasses.replace(silent_gains(plant.a.m), k_v=np.ones(1))
    resolved = loop_scenario(
        plant, agents, CommTopology(np.zeros((n, n)), np.ones(n)), exo or silent_exo(n),
        w0=w0, v0=np.reshape(u, (n, 1)), dt=dt, n_steps=n_steps,
    )
    trace = simulate(resolved, gains, record_state=True)
    assert np.array_equal(trace.inputs[0], u)
    return trace.states_x


class TestEvaluateOutput:
    def test_zero_profile_zero_disturbance(self):
        m = 50
        agent = plain_agent(m)
        assert first_output(agent, benchmark_output(m), np.zeros(m + 1)) == 0.0

    def test_flat_profile_benchmark_operator(self):
        m = 200
        agent = plain_agent(m)
        val = first_output(agent, benchmark_output(m), np.ones(m + 1))
        assert val == pytest.approx(1.5, abs=1e-12)

    def test_point_weight_on_linear_profile(self):
        m = 100
        op = OutputOperator(
            GridFunction.constant(0.0, m), point_weights=((2.0, 0.3),)
        )
        uncertain = plain_agent(
            m, delta_c0=GridFunction.constant(1.0, m), delta_points=(0.5,)
        )
        profile = np.linspace(0.0, 1.0, m + 1)
        # the uncertain agent adds delta_points to the point weight and int z dz
        for agent, expected in ((plain_agent(m), 0.6), (uncertain, 2.5 * 0.3 + 0.5)):
            assert first_output(agent, op, profile) == pytest.approx(expected, abs=1e-12)

    def test_uncertainties_and_feedthrough(self):
        m = 100
        agent = plain_agent(
            m,
            delta_cb0=-0.05,
            delta_cb1=0.1,
            g2=np.zeros(1),
            g3=np.zeros(1),
            g4=np.array([2.0]),
            g1=np.zeros((m + 1, 1)),
        )
        val = first_output(agent, benchmark_output(m), np.ones(m + 1), d=[1.5])
        assert val == pytest.approx(1.5 + 0.05 + 3.0, abs=1e-12)


class TestControllerInput:
    def test_zero_state(self):
        m = 64
        top = CommTopology(adjacency=np.zeros((3, 3)))
        gains = toy_gains(m)
        u = first_inputs(gains, top, np.zeros((3, 2)), np.zeros((3, m + 1)), MODE_LEADER)
        assert np.array_equal(u, np.zeros(3))

    def test_edgeless_graph_reduces_to_local_feedback(self):
        m = 64
        rng = np.random.default_rng(0)
        top = CommTopology(adjacency=np.zeros((2, 2)))
        gains = RegulatorGains(
            k_v=np.array([1.0, -2.0]),
            k_1=0.5,
            k_x=GridFunction(random_smooth_profile(rng, m)),
            r_x=GridFunction(random_smooth_profile(rng, m)),
            b_y=np.ones(2),
            S=np.zeros((2, 2)),
            mu_c=1.0,
        )
        v = rng.normal(size=(2, 2))
        x = rng.normal(size=(2, m + 1))
        u = first_inputs(gains, top, v, x, MODE_LEADER)
        w_kx = trapezoid_weights(m) * gains.k_x.values
        expected = v @ gains.k_v - 0.5 * x[:, -1] - x @ w_kx
        assert np.allclose(u, expected, atol=1e-14)

    def test_identical_agents_cancel_pairwise(self):
        m = 64
        top = CommTopology(
            adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]),
            leader_links=np.array([1.0, 0.0]),
        )
        gains = toy_gains(m)
        gains = RegulatorGains(
            k_v=gains.k_v, k_1=gains.k_1,
            k_x=gains.k_x, r_x=GridFunction.constant(1.0, m),
            b_y=gains.b_y, S=gains.S, mu_c=gains.mu_c,
        )
        profile = np.cos(np.linspace(0.0, np.pi, m + 1))
        x = np.stack([profile, profile])
        u = first_inputs(gains, top, np.zeros((2, 2)), x, MODE_LEADER)
        xi = profile @ (trapezoid_weights(m) * np.ones(m + 1))
        assert u[0] == pytest.approx(1.0 * xi, abs=1e-14)  # leader link weight 1
        assert u[1] == pytest.approx(0.0, abs=1e-14)

    def test_leaderless_mode_rejects_leader_links(self):
        # loads rejects such links in a file; simulate rejects them in a scenario built in Python
        m = 64
        top = CommTopology(
            adjacency=np.zeros((2, 2)), leader_links=np.array([3.0, 0.0])
        )
        x = np.ones((2, m + 1))
        with pytest.raises(SchemaError, match=r"leader_links = 3 0 must be zero if leaderless"):
            first_inputs(toy_gains(m), top, np.zeros((2, 2)), x, MODE_LEADERLESS)


class TestInternalModelStep:
    def test_synchronized_outputs_leave_pure_rotation(self):
        m = 32
        gains = toy_gains(m)
        top = CommTopology(adjacency=np.ones((3, 3)) - np.eye(3), leader_links=np.ones(3))
        rng = np.random.default_rng(1)
        v = rng.normal(size=(3, 2))
        y = np.full(3, 0.8)
        out = stepped_models(gains, top, v, y, r=0.8, dt=0.01, mode=MODE_LEADER)
        lhs = np.eye(2) - 0.005 * gains.S
        rhs = np.eye(2) + 0.005 * gains.S
        expected = np.linalg.solve(lhs, rhs @ v.T).T
        assert np.allclose(out, expected, atol=1e-14)

    def test_single_agent_pure_integrator(self):
        m = 32
        gains = RegulatorGains(
            k_v=np.zeros(1), k_1=0.0,
            k_x=GridFunction.constant(0.0, m), r_x=GridFunction.constant(0.0, m),
            b_y=np.ones(1), S=np.zeros((1, 1)), mu_c=1.0,
        )
        top = CommTopology(adjacency=np.zeros((1, 1)), leader_links=np.array([1.0]))
        v = stepped_models(gains, top, np.zeros((1, 1)), [1.5], r=0.5, dt=0.01, n_steps=100)
        assert v[0, 0] == pytest.approx(1.0, abs=1e-12)  # integrates y - r = 1

    def test_matches_aggregated_kronecker_form(self):
        m = 32
        n, n_w, dt = 4, 3, 1e-3
        s = np.zeros((n_w, n_w))
        s[:2, :2] = [[0.0, np.pi], [-np.pi, 0.0]]
        gains = RegulatorGains(
            k_v=np.zeros(n_w), k_1=0.0,
            k_x=GridFunction.constant(0.0, m), r_x=GridFunction.constant(0.0, m),
            b_y=np.array([1.0, 1.0, 1.0]), S=s, mu_c=1.0,
        )
        rng = np.random.default_rng(9)
        adjacency = rng.uniform(0.0, 1.0, size=(n, n))
        np.fill_diagonal(adjacency, 0.0)
        links = rng.uniform(0.0, 1.0, size=n)
        top = CommTopology(adjacency=adjacency, leader_links=links)
        v = rng.normal(size=(n, n_w))
        y = rng.normal(size=n)
        stepped = stepped_models(gains, top, v, y, r=0.0, dt=dt, mode=MODE_LEADER)

        lap = np.diag(adjacency.sum(axis=1)) - adjacency
        h_mat = lap + np.diag(links)
        big_s = np.kron(np.eye(n), s)
        lhs = np.eye(n * n_w) - 0.5 * dt * big_s
        rhs = (np.eye(n * n_w) + 0.5 * dt * big_s) @ v.reshape(-1)
        rhs = rhs + dt * np.kron(h_mat, gains.b_y[:, None]) @ y
        aggregated = np.linalg.solve(lhs, rhs).reshape(n, n_w)
        assert np.abs(stepped - aggregated).max() < 1e-12


class TestPdeStep:
    def test_zero_state_persists(self):
        m = 64
        plant = NominalPlant(
            a=GridFunction.constant(0.0, m), q0=0.0, q1=0.0, output=benchmark_output(m)
        )
        out = held_input_states(plant, [plain_agent(m)], [0.0], dt=1e-3)[1, 0]
        assert np.abs(out).max() == 0.0

    def test_heat_eigenfunction_decay(self):
        m, dt, t_end = 200, 1e-4, 0.1
        plant = NominalPlant(
            a=GridFunction.constant(0.0, m), q0=0.0, q1=0.0, output=benchmark_output(m)
        )
        nodes = np.linspace(0.0, 1.0, m + 1)
        agent = plain_agent(m, initial_profile=GridFunction(np.cos(np.pi * nodes)))
        x = held_input_states(plant, [agent], [0.0], dt, n_steps=int(round(t_end / dt)))[-1, 0]
        exact = np.exp(-np.pi**2 * t_end) * np.cos(np.pi * nodes)
        rel = np.linalg.norm(x - exact) / np.linalg.norm(exact)
        assert rel <= 1e-3

    def test_converges_to_stationary_solve(self):
        m, dt = 100, 1e-2
        plant = NominalPlant(
            a=GridFunction.constant(-1.0, m), q0=0.0, q1=0.0, output=benchmark_output(m)
        )
        x = held_input_states(plant, [plain_agent(m)], [2.0], dt, n_steps=3000)[-1, 0]
        # the same spatial stencil solved directly for the steady state
        h = 1.0 / m
        a_mat = np.zeros((m + 1, m + 1))
        for j in range(1, m):
            a_mat[j, j - 1] = a_mat[j, j + 1] = 1.0 / h**2
            a_mat[j, j] = -2.0 / h**2 - 1.0
        a_mat[0, 0] = -2.0 / h**2 - 1.0
        a_mat[0, 1] = 2.0 / h**2
        a_mat[m, m] = -2.0 / h**2 - 1.0
        a_mat[m, m - 1] = 2.0 / h**2
        forcing = np.zeros(m + 1)
        forcing[m] = 2.0 / h * 2.0
        stationary = np.linalg.solve(a_mat, -forcing)
        assert np.abs(x - stationary).max() < 1e-9

    def test_parabolicity_guard(self):
        m = 32
        with pytest.raises(ValueError):
            AgentSpec(
                delta_lambda=GridFunction.constant(-1.0, m),
                delta_a=GridFunction.constant(0.0, m),
            )

    def test_stacked_agents_step_independently(self):
        m, dt, n_w = 32, 1e-3, 3
        h = 1.0 / m
        rng = np.random.default_rng(7)
        plant = NominalPlant(
            a=GridFunction(2.0 * np.cos(2.0 * uniform_nodes(m))),
            q0=0.5, q1=-0.2, output=benchmark_output(m),
        )
        agents, read_outs = [], []
        for lam_fn, a_fn, dq0, dq1, n_ch in (
            (lambda z: 0.3 * z, lambda z: -0.5 + z**2, 0.2, -0.1, 2),
            (lambda z: -0.2 + 0.0 * z, lambda z: np.sin(3.0 * z), -0.3, 0.4, 0),
            (lambda z: 0.1 * np.cos(z), lambda z: 1.0 + 0.0 * z, 0.0, 0.25, 1),
        ):
            agents.append(plain_agent(
                m,
                delta_lambda=GridFunction(lam_fn(uniform_nodes(m))),
                delta_a=GridFunction(a_fn(uniform_nodes(m))),
                delta_q0=dq0, delta_q1=dq1,
                g1=rng.normal(size=(m + 1, n_ch)), g2=rng.normal(size=n_ch),
                g3=rng.normal(size=n_ch), g4=rng.normal(size=n_ch),
            ))
            read_outs.append(rng.normal(size=(n_ch, n_w)))
        x = np.stack([random_smooth_profile(rng, m) for _ in agents])
        u = rng.normal(size=len(agents))
        w = rng.normal(size=n_w)
        agents = [
            dataclasses.replace(ag, initial_profile=GridFunction(row)) for ag, row in zip(agents, x)
        ]
        exo = ExoModel(
            S=np.zeros((n_w, n_w)), p=np.zeros(n_w), read_outs=read_outs, b_y=np.ones(n_w)
        )
        stacked = held_input_states(plant, agents, u, dt, exo=exo, w0=w)[1]

        for i, (agent, p_i) in enumerate(zip(agents, read_outs)):
            lam = 1.0 + agent.delta_lambda.values
            abar = plant.a.values + agent.delta_a.values
            a_mat = np.zeros((m + 1, m + 1))
            for j in range(1, m):
                a_mat[j, j - 1] = a_mat[j, j + 1] = lam[j] / h**2
                a_mat[j, j] = -2.0 * lam[j] / h**2 + abar[j]
            a_mat[0, 0] = -2.0 * lam[0] * (1.0 + h * (plant.q0 + agent.delta_q0)) / h**2 + abar[0]
            a_mat[0, 1] = 2.0 * lam[0] / h**2
            a_mat[m, m] = -2.0 * lam[m] * (1.0 - h * (plant.q1 + agent.delta_q1)) / h**2 + abar[m]
            a_mat[m, m - 1] = 2.0 * lam[m] / h**2
            d = p_i @ w
            forcing = agent.g1 @ d
            forcing[0] += -2.0 * lam[0] / h * (agent.g2 @ d)
            forcing[m] += 2.0 * lam[m] / h * (agent.g3 @ d + u[i])
            eye = np.eye(m + 1)
            dense = np.linalg.solve(
                eye - 0.5 * dt * a_mat, (eye + 0.5 * dt * a_mat) @ x[i] + dt * forcing
            )
            assert np.abs(stacked[i] - dense).max() < 1e-12


def graded_stencil(m: int, reaction: float = 0.0) -> np.ndarray:
    """Dense L of three uncoupled agents whose diffusion spans 10^-1 .. 10^2 along z,
    so the step matrix I - (dt/2) L is far from symmetric."""
    z = uniform_nodes(m)
    return block_diag(*(
        dense_stencil(10.0 ** (3.0 * z - 1.0 + 0.1 * i), reaction + np.cos(z + i), 0.5 * i, -0.3)
        for i in range(3)
    ))


def cascade_stencil(m: int) -> np.ndarray:
    """Dense L of the target cascade: three heat equations with decay mu_c = 5."""
    return block_diag(*[dense_stencil(np.ones(m + 1), np.full(m + 1, -5.0), 0.0, 0.0)] * 3)


def random_loop(stencil: np.ndarray, n_v: int = 4, n_w: int = 2, seed: int = 11):
    """Bands of the dense L over x, and a random E, read-out G and skew S_w."""
    rng = np.random.default_rng(seed)
    n_x = stencil.shape[0]
    bands = (np.diag(stencil, -1), np.diag(stencil), np.diag(stencil, 1))
    read_out = rng.normal(size=(n_x, 3)) / n_x
    e = rng.normal(size=(n_x + n_v, 3 + n_v + n_w))
    s_w = rng.normal(size=(n_w, n_w))
    return bands, e, read_out, s_w - s_w.T


class TestClosedLoopStep:
    @pytest.mark.parametrize(
        "stencil", [graded_stencil(40), cascade_stencil(40)], ids=["graded", "cascade"]
    )
    def test_matches_dense_crank_nicolson(self, stencil):
        bands, e, read_out, s_w = random_loop(stencil)
        n_x, dt, n_steps = stencil.shape[0], 1e-3, 200
        n_v, n_read = e.shape[0] - n_x, read_out.shape[1] + e.shape[0] - n_x
        rng = np.random.default_rng(5)
        y0, w0 = rng.normal(size=e.shape[0]), rng.normal(size=s_w.shape[0])
        # y' = L y + E z with z = [R y, w], R = diag(G^T, I) the read of [x, v]
        read = block_diag(read_out.T, np.eye(n_v))
        generator = block_diag(stencil, np.zeros((n_v, n_v))) + e[:, :n_read] @ read
        (ys, ws), _ = dense_crank_nicolson(
            generator, e[:, n_read:], expm(s_w * dt), y0, w0, dt, n_steps
        )
        step = ClosedLoopStep(bands, e, read_out, s_w, dt)
        blocks = [(k0, ys.copy(), ws.copy()) for k0, ys, ws in step.run(y0, w0, n_steps)]
        assert [k0 for k0, _, _ in blocks] == list(range(0, n_steps, step.block_steps))
        assert_rel_close(np.vstack([y0, *(y for _, y, _ in blocks)]), ys)
        assert_rel_close(np.vstack([w0, *(w for _, _, w in blocks)]), ws)

    def test_signal_rows_carry_the_exact_propagator(self, leader_scenario):
        # the w rows advance as 2 w + (propagator - I) w - w for 20,000 steps
        s_w, n_steps, dt = leader_scenario.exo_model().S, 20_000, 1e-3
        bands, e, read_out, _ = random_loop(cascade_stencil(8), n_w=s_w.shape[0])
        w0 = np.random.default_rng(6).normal(size=s_w.shape[0])
        step = ClosedLoopStep(bands, e, read_out, s_w, dt)
        ws = np.vstack([ws.copy() for _, _, ws in step.run(np.zeros(e.shape[0]), w0, n_steps)])
        powers = [w0]
        for _ in range(n_steps):
            powers.append(propagator(s_w * dt) @ powers[-1])
        assert_rel_close(ws, np.array(powers[1:]), rel=1e-13)
        k = np.arange(1000, n_steps + 1, 1000)
        assert_rel_close(ws[k - 1], np.array([expm(s_w * j * dt) @ w0 for j in k]))

    def test_singular_step_names_largest_dt(self):
        stencil = graded_stencil(40, reaction=3000.0)
        loop = random_loop(stencil)
        with pytest.raises(SingularStep) as info:
            ClosedLoopStep(*loop, 1e-3)
        limit = float(re.search(r"2 / lambda_max\(L\) = (\S+)$", str(info.value))[1])
        # L is similar to a symmetric matrix, so its eigenvalues are real
        assert limit == pytest.approx(2.0 / np.linalg.eigvals(stencil).real.max(), rel=1e-5)
        ClosedLoopStep(*loop, 0.99 * limit)
        with pytest.raises(SingularStep, match="not positive definite"):
            ClosedLoopStep(*loop, 1.01 * limit)

    def test_singular_step_blames_rounding_below_the_limit(self):
        # diffusion 1e100 with Neumann ends and no reaction: lambda_max(L) = 0, so B is
        # positive definite for every dt, but its unit eigenvalue drowns in 1e100
        stencil = dense_stencil(np.full(201, 1e100), np.zeros(201), 0.0, 0.0)
        with pytest.raises(SingularStep, match="lost definiteness to rounding at dt = 0.001"):
            ClosedLoopStep(*random_loop(stencil), 1e-3)

    def test_rejects_bands_without_symmetrizing_scale(self):
        bands, e, read_out, s_w = random_loop(cascade_stencil(8))
        lower, diag, upper = bands
        for bad in ((-lower, diag, upper), (lower, diag, np.where(lower > 0, 0.0, upper))):
            with pytest.raises(ValueError, match="both positive or both zero"):
                ClosedLoopStep(bad, e, read_out, s_w, 1e-3)


def dominant_tridiagonal(n: int, seed: int = 3):
    """Diagonal, lower and upper band of a random diagonally dominant B, B[j + 1, j]
    and B[j, j + 1] of one sign but apart, as in a step matrix I - (dt/2) L."""
    rng = np.random.default_rng(seed)
    lower, upper = -rng.uniform(1.0, 100.0, size=(2, n - 1))
    diag = 1.0 + np.abs(np.append(lower, 0.0)) + np.abs(np.append(0.0, upper))
    return diag, lower, upper


def assert_solves(solver, dense, rhs, rel=1e-13):
    """B^-1 rhs and B^-T rhs of ``solver`` against dense solves, for rhs of at most n rows."""
    padded = np.zeros((dense.shape[0], *rhs.shape[1:]))
    padded[: len(rhs)] = rhs
    for transpose, matrix in ((False, dense), (True, dense.T)):
        reference = np.linalg.solve(matrix, padded)
        x = solver.solve(rhs, transpose=transpose)
        assert x.shape == reference.shape
        assert np.abs(x - reference).max() <= rel * np.abs(reference).max()


CHUNK = chunk_rows(100)


class TestPartitionedSolve:
    @pytest.mark.parametrize(
        "n, cut",
        [(CHUNK - 12, None), (CHUNK, None), (CHUNK + 1, None), (2 * CHUNK + 1, None),
         (3 * CHUNK, CHUNK - 1), (3 * CHUNK, 2 * CHUNK - 1)],
        ids=["below_one_chunk", "one_chunk", "above_one_chunk", "one_row_last_chunk",
             "boundary_on_first_edge", "boundary_on_second_edge"],
    )
    @pytest.mark.parametrize("columns", [(), (7,)], ids=["vector", "column_block"])
    def test_matches_dense_solve(self, n, cut, columns):
        assert chunk_rows(n) == CHUNK
        diag, lower, upper = dominant_tridiagonal(n)
        if cut is not None:   # two agents meet on a chunk edge: zero coupling there
            lower[cut] = upper[cut] = 0.0
        dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        rhs = np.random.default_rng(8).normal(size=(n, *columns))
        assert_solves(PartitionedSolve(diag, lower, upper), dense, rhs)

    @pytest.mark.parametrize("rows", [1, CHUNK - 1, 2 * CHUNK + 5])
    def test_short_bands_and_right_hand_sides(self, rows):
        # the bands of the first rows, identity rows past them, and a right-hand
        # side of fewer rows than B: the step's solve with its y rows and E
        n = 2 * CHUNK + 7
        diag, lower, upper = dominant_tridiagonal(n)
        diag[rows:], lower, upper = 1.0, lower[: rows - 1], upper[: rows - 1]
        dense = np.diag(diag)
        dense[: rows, : rows] += np.diag(lower, -1) + np.diag(upper, 1)
        rhs = np.random.default_rng(4).normal(size=(rows, 3))
        assert_solves(PartitionedSolve(diag, lower, upper), dense, rhs)

    def test_graded_step_matrix(self):
        # A = I - (dt/2) L of three stiff agents, unscaled as in the step
        stencil = graded_stencil(40)
        dense = np.eye(stencil.shape[0]) - 5e-4 * stencil
        solver = PartitionedSolve(np.diag(dense), np.diag(dense, -1), np.diag(dense, 1))
        assert_solves(solver, dense, np.random.default_rng(9).normal(size=dense.shape[0]))


class TestPropagator:
    @pytest.mark.parametrize("dt", [1e-3, 0.37])
    def test_shipped_signal_matrix(self, dt):
        s_w, _ = frequency_blocks([np.pi, 0.0])
        reference = expm(s_w * dt)
        assert np.abs(propagator(s_w * dt) - reference).max() <= 1e-14 * np.abs(reference).max()

    @pytest.mark.parametrize("dt", [1e-3, 0.37])
    def test_non_canonical_signal_matrix(self, dt):
        # a similarity transform of rotations and a constant: diagonalizable, not a direct sum
        basis = np.random.default_rng(3).normal(size=(5, 5))
        core = block_diag([[0.0, 2.0], [-2.0, 0.0]], [[0.0]], [[0.0, 5.0], [-5.0, 0.0]])
        s_w = ExoModel(
            S=basis @ core @ np.linalg.inv(basis), p=np.ones(5), read_outs=(), b_y=np.ones(5)
        ).S
        reference = expm(s_w * dt)
        assert np.abs(propagator(s_w * dt) - reference).max() <= 1e-13 * np.abs(reference).max()


class TestLargestEigenvalue:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_eigvalsh(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 80))
        diag = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
        off = rng.normal(size=n - 1) * 10.0 ** rng.uniform(-3, 3)
        off[rng.random(n - 1) < 0.1] = 0.0
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        norm = np.abs(dense).sum(axis=1).max()
        assert abs(largest_eigenvalue(diag, off) - np.linalg.eigvalsh(dense)[-1]) <= 1e-14 * norm


class TestSimulate:
    def test_zero_scenario_stays_zero(self, leader_scenario):
        m = 64
        resolved = nominal_resolved(
            leader_scenario, m=m, dt=1e-3, n_steps=200,
            x0=np.zeros((4, m + 1)), v0=np.zeros((4, 3)),
        )
        gains = RegulatorGains(
            k_v=np.ones(3), k_1=0.3,
            k_x=GridFunction.constant(1.0, m), r_x=GridFunction.constant(1.0, m),
            b_y=np.ones(3), S=resolved.exo.S, mu_c=5.0,
        )
        trace = simulate(resolved, gains)
        assert np.abs(trace.outputs).max() == 0.0
        assert np.abs(trace.inputs).max() == 0.0
        assert np.abs(trace.reference).max() == 0.0

    def test_deterministic_replay(self, leader_scenario, leader_design):
        resolved = leader_scenario.resolve(m=200, horizon=0.5)
        t1 = simulate(resolved, leader_design.gains)
        t2 = simulate(resolved, leader_design.gains)
        assert np.array_equal(t1.outputs, t2.outputs)
        assert np.array_equal(t1.inputs, t2.inputs)

    def test_blowup_detected_with_time(self, leader_scenario):
        # unstable reaction and a tiny blow-up bound
        resolved, gains = unstable_resolved(
            leader_scenario, m=64, reaction=40.0, amplitude=1.0, bound=1e3, n_steps=500
        )
        with pytest.raises(NumericalBlowup) as info:
            simulate(resolved, gains)
        assert info.value.time is not None and info.value.time > 0
        assert info.value.time == dense_step_loop(resolved, gains)[1]

    def test_nan_initial_profile_raises_after_first_step(self, leader_scenario):
        resolved, gains = uncertain_resolved(leader_scenario)
        profile = np.array(resolved.agents[2].initial_profile.values)
        profile[5] = np.nan
        agents = list(resolved.agents)
        agents[2] = dataclasses.replace(agents[2], initial_profile=SimpleNamespace(values=profile))
        resolved = dataclasses.replace(resolved, agents=tuple(agents))
        with pytest.raises(NumericalBlowup) as info:
            simulate(resolved, gains)
        assert info.value.time == resolved.dt

    @pytest.mark.parametrize("scenario", ["leader_scenario", "leaderless_scenario"])
    def test_matches_dense_step_loop(self, scenario, request):
        resolved, gains = uncertain_resolved(request.getfixturevalue(scenario))
        trace = simulate(resolved, gains, record_state=True)
        (y, u, v, x), blowup_time = dense_step_loop(resolved, gains)
        assert blowup_time is None
        assert trace.times.size == resolved.n_steps + 1
        for actual, expected in (
            (trace.outputs, y), (trace.inputs, u), (trace.states_v, v), (trace.states_x, x)
        ):
            assert_rel_close(actual, expected)
        peaks = np.maximum(np.abs(x).max(axis=(1, 2)), np.abs(v).max(axis=(1, 2)))
        assert trace.metadata["peak_state"] == pytest.approx(peaks.max(), rel=1e-12)
        assert trace.metadata["peak_time"] == trace.times[np.argmax(peaks)]
        assert trace.metadata["peak_ratio"] == trace.metadata["peak_state"] / resolved.blowup_bound

    def test_extra_rows_spill_into_another_chunk(self, leader_scenario):
        # at m = 33 the 160 padded rows of [x, v] take 12 read slots and 3 signal
        # rows no more: the step's solve runs on a sixth chunk
        resolved, gains = uncertain_resolved(leader_scenario, m=33)
        step = _closed_loop(resolved, gains)[0]
        n, n_all = 4 * 34 + 12, 4 * 34 + 12 + 12 + 3
        s = chunk_rows(n)
        assert n <= -(-n // s) * s < n_all and step._solver.shape == (6, 32)
        self.assert_matches_dense_step_loop(resolved, gains)

    def test_one_agent_one_signal_state(self):
        m, rng = 40, np.random.default_rng(12)
        agent = plain_agent(
            m, delta_lambda=GridFunction(0.2 * np.tanh(random_smooth_profile(rng, m))),
            delta_a=GridFunction(random_smooth_profile(rng, m)), delta_q1=0.3,
            g1=rng.normal(size=(m + 1, 1)), g2=rng.normal(size=1), g3=rng.normal(size=1),
            g4=np.ones(1), initial_profile=GridFunction(random_smooth_profile(rng, m)),
        )
        gains = RegulatorGains(
            k_v=np.array([0.8]), k_1=0.4, k_x=GridFunction(random_smooth_profile(rng, m)),
            r_x=GridFunction(random_smooth_profile(rng, m)), b_y=np.ones(1),
            S=np.zeros((1, 1)), mu_c=2.0,
        )
        resolved = loop_scenario(
            silent_plant(m, benchmark_output(m)), [agent],
            CommTopology(np.zeros((1, 1)), np.ones(1)), constant_exo(0.5, [[[1.5]]]),
            w0=[1.0], v0=[[0.2]], n_steps=200,
        )
        self.assert_matches_dense_step_loop(resolved, gains)

    @staticmethod
    def assert_matches_dense_step_loop(resolved, gains):
        trace = simulate(resolved, gains, record_state=True)
        (y, u, v, x), blowup_time = dense_step_loop(resolved, gains)
        assert blowup_time is None
        for actual, expected in (
            (trace.outputs, y), (trace.inputs, u), (trace.states_v, v), (trace.states_x, x)
        ):
            assert_rel_close(actual, expected)

    @pytest.mark.parametrize(
        ("line", "count"), [("delta_lambda = 1e300", 1), ("delta_lambda = 1e200*z", 4)],
        ids=["agent_1_stiff", "every_agent_graded"],
    )
    def test_stiff_agents_match_dense_step_loop(self, leader_scenario_text, line, count):
        from coopreg.cli import run_synthesis

        # diffusion 1 + 1e300: L[j, j-1] L[j-1, j] overflows, each factor does not;
        # 1 + 1e200 z: d spans 1e100 in each agent, so four in a row overflow it
        # unless it restarts in each agent
        text = re.sub(r"\ndelta_lambda = \S+\n", f"\n{line}\n", leader_scenario_text, count=count)
        edited = [section.count(f"\n{line}\n") for section in text.split("[agent ")[1:]]
        assert edited == [1] * count + [0] * (4 - count)
        gains = run_synthesis(loads(leader_scenario_text), m=64).gains
        resolved = dataclasses.replace(loads(text).resolve(m=64, horizon=0.5), sample_every=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = simulate(resolved, gains, record_state=True)
        (y, u, v, x), blowup_time = dense_step_loop(resolved, gains)
        assert blowup_time is None
        # the dense reference rounds the stiff rows to about 2.5e-12 of the state
        for actual, expected in (
            (trace.outputs, y), (trace.inputs, u), (trace.states_v, v), (trace.states_x, x)
        ):
            assert_rel_close(actual, expected, rel=1e-11)

    def test_second_order_in_dt(self, leader_scenario):
        from coopreg.cli import run_synthesis

        gains = run_synthesis(leader_scenario, m=32).gains
        finals = []
        for dt in (4e-3, 2e-3, 1e-3):
            resolved = leader_scenario.resolve(m=32, dt=dt, horizon=0.5)
            trace = simulate(resolved, gains, record_state=True)
            finals.append(np.concatenate([trace.states_x[-1].ravel(), trace.states_v[-1].ravel()]))
        coarse, fine = np.abs(np.diff(finals, axis=0)).max(axis=1)
        assert np.log2(coarse / fine) >= 1.9

    def test_channel_mismatch_reported(self, leader_scenario, leader_design):
        m = 200
        resolved = leader_scenario.resolve()
        bad_agents = nominal_agents(m, np.zeros((4, m + 1)), n_channels=2)
        resolved = ResolvedScenario(
            mode=resolved.mode, plant=resolved.plant, agents=bad_agents,
            topology=resolved.topology, exo=resolved.exo, dt=1e-3,
            n_steps=10, sample_every=1, snapshot_times=(),
            blowup_bound=1e8, v0=resolved.v0, w0=resolved.w0,
        )
        with pytest.raises(ValueError, match="channels"):
            simulate(resolved, leader_design.gains)

    def test_gain_grid_mismatch_reported(self, leader_scenario):
        from coopreg.cli import run_synthesis

        gains = run_synthesis(leader_scenario, m=64).gains
        with pytest.raises(GridMismatch) as info:
            simulate(leader_scenario.resolve(m=100), gains)
        assert "64" in str(info.value) and "100" in str(info.value)

    def test_snapshots_recorded(self, leader_scenario, leader_design):
        resolved = leader_scenario.resolve(m=200, horizon=0.2)
        resolved = ResolvedScenario(
            mode=resolved.mode, plant=resolved.plant, agents=resolved.agents,
            topology=resolved.topology, exo=resolved.exo, dt=resolved.dt,
            n_steps=resolved.n_steps, sample_every=resolved.sample_every,
            snapshot_times=(0.1,), blowup_bound=resolved.blowup_bound,
            v0=resolved.v0, w0=resolved.w0,
        )
        trace = simulate(resolved, leader_design.gains)
        assert 0.1 in trace.snapshots
        assert trace.snapshots[0.1].shape == (4, 201)


# step counts around the block length K of a run
BLOCK_EDGES = {
    "one": lambda k: 1, "K-1": lambda k: k - 1, "K": lambda k: k, "K+1": lambda k: k + 1,
    "2K+3": lambda k: 2 * k + 3,
}


def assert_same_trace(actual, expected):
    """The same times, snapshot steps (in order) and peak time; samples, states,
    snapshots and peak within 1e-12 relative of the ``ScaledStep`` oracle."""
    assert np.array_equal(actual.times, expected.times)
    for name in ("outputs", "inputs", "reference", "states_x", "states_v"):
        assert getattr(actual, name).shape == getattr(expected, name).shape, name
        assert_rel_close(getattr(actual, name), getattr(expected, name))
    assert list(actual.snapshots) == list(expected.snapshots)
    for t, snap in expected.snapshots.items():
        assert_rel_close(actual.snapshots[t], snap)
    assert actual.metadata["peak_time"] == expected.metadata["peak_time"]
    peaks = actual.metadata["peak_state"], expected.metadata["peak_state"]
    assert peaks[0] == pytest.approx(peaks[1], rel=1e-12)


def cascade_inputs(m: int = 48, n: int = 4):
    rng = np.random.default_rng(17)
    gains = RegulatorGains(
        k_v=rng.normal(size=3), k_1=0.0,
        k_x=GridFunction.constant(0.0, m), r_x=GridFunction.constant(0.0, m),
        b_y=np.ones(3), S=np.array([[0.0, np.pi, 0.0], [-np.pi, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        mu_c=5.0,
    )
    x0 = np.stack([random_smooth_profile(rng, m) for _ in range(n)])
    return gains, rng.normal(size=(n, n)), rng.normal(size=3), rng.normal(size=(n, 3)), x0


class TestBlockStepping:
    """``simulate`` checks, samples and snapshots blocks of steps as the
    per-step loop of ``_support.stepwise_simulate`` did on the ``ScaledStep``
    it replaced: the same rows, steps and blow-up, values within 1e-12."""

    @pytest.mark.parametrize("every", ["one", "three", "K", "past_the_end"])
    @pytest.mark.parametrize("steps", list(BLOCK_EDGES))
    def test_simulate_matches_stepwise_loop(self, leader_scenario, steps, every):
        k = _closed_loop(*uncertain_resolved(leader_scenario))[0].block_steps
        n_steps = BLOCK_EDGES[steps](k)
        stride = {"one": 1, "three": 3, "K": k, "past_the_end": n_steps + 1}[every]
        resolved, gains = uncertain_resolved(leader_scenario, n_steps=n_steps)
        # snapshots on the first and the last step of the first two blocks, and at the
        # ends; a resolved scenario rejects those past its horizon
        snap_steps = (0, 1, k - 1, k, k + 1, 2 * k, 2 * k + 1, n_steps)
        resolved = dataclasses.replace(
            resolved, sample_every=stride,
            snapshot_times=tuple(j * resolved.dt for j in snap_steps if j <= n_steps),
        )
        trace = simulate(resolved, gains, record_state=True)
        assert_same_trace(trace, stepwise_simulate(resolved, gains, record_state=True))
        assert trace.times.size == -(-n_steps // stride) + 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        ("amplitude", "n_steps"), [(1e290, 60), (1e60, 174)],
        ids=["mid_first_block", "last_partial_block"],
    )
    def test_blowup_inside_a_block(self, leader_scenario, amplitude, n_steps):
        # about 40-fold growth a step: the bound is passed at a finite state, and
        # the steps the block runs after it overflow to inf and nan
        resolved, gains = unstable_resolved(
            leader_scenario, m=48, reaction=1900.0, amplitude=amplitude, bound=1e300,
            n_steps=n_steps,
        )
        with pytest.raises(NumericalBlowup) as expected:
            stepwise_simulate(resolved, gains)
        with pytest.raises(NumericalBlowup) as info:
            simulate(resolved, gains)
        assert str(info.value) == str(expected.value)
        assert info.value.time == expected.value.time
        # the failing step lies in the block the test names, which runs on into overflow
        step, _, y, w = _closed_loop(resolved, gains)
        k = step.block_steps
        first = round(info.value.time / resolved.dt)
        with np.errstate(all="ignore"):
            blocks = {k0: ys.copy() for k0, ys, _ in step.run(y, w, n_steps)}
        k0 = (first - 1) // k * k
        assert (k0 == 0) if n_steps < k else (k0 == 2 * k and n_steps - k0 < k)
        assert not np.isfinite(blocks[k0][first - k0 :]).all()

    @pytest.mark.parametrize(("m", "k"), [(200, 18), (800, 4)])
    def test_block_buffer_within_budget(self, leader_scenario, m, k):
        resolved = leader_scenario.resolve(m=m, horizon=0.02)
        step, _, y, w = _closed_loop(resolved, toy_gains(m, n_w=3))
        rows = step.p.shape[0]
        assert step.block_steps == k
        assert (k + 1) * 8 * rows <= BLOCK_BYTES == 128 * 1024
        assert [len(ys) for _, ys, _ in step.run(y, w, 2 * k + 1)] == [k, k, 1]

    def test_simulate_memory_peak(self, leader_scenario, leader_design):
        resolved = leader_scenario.resolve(m=200, horizon=2.0)
        simulate(resolved, leader_design.gains)
        tracemalloc.start()
        try:
            simulate(resolved, leader_design.gains)
            whole = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            step, _, y, w = _closed_loop(resolved, leader_design.gains)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _, ys, _ in step.run(y, w, resolved.n_steps):
                np.abs(ys).max(axis=1)
            run = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        # the peak is forming the step
        assert whole <= 1.16e6 + 128 * 1024
        # the assembled loop holds the chunk inverses, one P in padded rows and
        # the two read-outs, and below 96 KiB besides
        p, s = step._solver.shape
        assert held <= 8 * p * s * s + step.p.nbytes + 2 * step.read_out.nbytes + 96 * 1024
        # a run holds its block buffer and the magnitudes of one block, which
        # numpy forms through its 64 KiB iterator buffer
        assert run <= 3 * BLOCK_BYTES


class TestTargetCascade:
    @pytest.mark.parametrize("every", ["one", "three", "five", "past_the_end"])
    @pytest.mark.parametrize("n_steps", [1, 2, 7, 2000])
    def test_cascade_matches_stepwise_loop(self, n_steps, every):
        # the cosine-mode cascade against the ClosedLoopStep one it replaced;
        # a stride that does not divide n_steps ends on a shorter interval
        gains, coupling, q1, e_v0, x0 = cascade_inputs()
        stride = {"one": 1, "three": 3, "five": 5, "past_the_end": n_steps + 1}[every]
        args = (gains, coupling, q1, e_v0, x0, 1e-3, n_steps, stride)
        cascade, expected = simulate_target_cascade(*args), stepwise_cascade(*args)
        assert np.array_equal(cascade.times, expected.times)
        assert cascade.times.size == -(-n_steps // stride) + 1
        for name in ("e_v", "x_tilde"):
            actual, oracle = getattr(cascade, name), getattr(expected, name)
            assert np.array_equal(actual[0], oracle[0]), name
            assert_rel_close(actual, oracle)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        ("probe", "violations"),
        [
            ({"sample_every": 0}, ["sample_every = 0 must be an integer of at least 1"]),
            ({"sample_every": -1}, ["sample_every = -1 must be an integer of at least 1"]),
            ({"n_steps": -3}, ["n_steps = -3 must be an integer of at least 1"]),
            ({"n_steps": 2.5}, ["n_steps = 2.5 must be an integer of at least 1"]),
            ({"n_steps": 0}, ["n_steps = 0 must be an integer of at least 1"]),
            ({"dt": 0.0}, ["dt = 0.0 must be positive"]),
            ({"dt": -1e-3}, ["dt = -0.001 must be positive"]),
            ({"dt": float("nan")}, ["dt = nan must be positive"]),
            ({"coupling": np.eye(3)}, ["coupling has shape (3, 3), not (4, 4)"]),
            ({"q_tilde_at_1": np.ones(2)}, ["q_tilde_at_1 has shape (2,), not (3,)"]),
            ({"e_v0": np.ones((4, 2))}, ["e_v0 has shape (4, 2), not (4, 3)"]),
            ({"x_tilde0": np.ones((3, 17))}, ["x_tilde0 has shape (3, 17), not (4, 17)"]),
            (
                {"dt": 0.0, "sample_every": 0, "e_v0": np.ones(4)},
                [
                    "dt = 0.0 must be positive",
                    "sample_every = 0 must be an integer of at least 1",
                    "e_v0 has shape (4,), not (4, 3)",
                ],
            ),
        ],
        ids=[
            "sample_every_0", "sample_every_-1", "n_steps_-3", "n_steps_2.5", "n_steps_0",
            "dt_0", "dt_-1e-3", "dt_nan", "coupling_3x3", "q_tilde_2", "e_v0_2_columns",
            "x_tilde0_3_rows", "three_at_once",
        ],
    )
    def test_rejects_bad_inputs(self, probe, violations):
        gains, coupling, q1, e_v0, x0 = cascade_inputs(m=16)
        args = {
            "coupling": coupling, "q_tilde_at_1": q1, "e_v0": e_v0, "x_tilde0": x0,
            "dt": 1e-3, "n_steps": 10, "sample_every": 1,
        }
        with pytest.raises(SchemaError) as info:
            simulate_target_cascade(gains, **{**args, **probe})
        assert info.value.violations == violations

    def test_singular_step_names_largest_dt(self):
        # with mu_c = -50 the mean mode grows at rate 50: dt = 0.1 is past 2 / 50
        gains, coupling, q1, e_v0, x0 = cascade_inputs(m=16)
        args = (dataclasses.replace(gains, mu_c=-50.0), coupling, q1, e_v0, x0, 0.1, 10)
        with pytest.raises(SingularStep) as expected:
            stepwise_cascade(*args)
        with pytest.raises(SingularStep) as info:
            simulate_target_cascade(*args)
        assert str(info.value) == str(expected.value)
        assert str(info.value).endswith("must stay below 2 / lambda_max(L) = 0.04")

    def test_builds_no_closed_loop_step(self, monkeypatch):
        # the cascade checks the closed loop, so it must not share its step
        def refuse(*args, **kwargs):
            raise AssertionError("the target cascade built the closed loop's step")

        monkeypatch.setattr(simulator, "ClosedLoopStep", refuse)
        monkeypatch.setattr(simulator, "PartitionedSolve", refuse)
        gains, coupling, q1, e_v0, x0 = cascade_inputs()
        simulate_target_cascade(gains, coupling, q1, e_v0, x0, 1e-3, 20, 3)

    def test_cascade_memory_peak(self, leader_design):
        rng = np.random.default_rng(5)
        x0 = np.stack([random_smooth_profile(rng, 200) for _ in range(4)])
        args = (
            leader_design.gains, leader_design.graph.leader_follower,
            leader_design.decoupling.q_tilde_at_1, rng.normal(size=(4, 3)), x0, 1e-3, 2000, 5,
        )
        simulate_target_cascade(*args)
        tracemalloc.start()
        try:
            cascade = simulate_target_cascade(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 401-row trace is 2.62 MB; the ClosedLoopStep cascade peaked at 3.14 MB
        assert cascade.e_v.nbytes + cascade.x_tilde.nbytes == 401 * 4 * (3 + 201) * 8
        assert peak <= 3.14e6

    def test_zero_initial_state_stays_zero(self, leader_design):
        gains = leader_design.gains
        cascade = simulate_target_cascade(
            gains, leader_design.graph.leader_follower,
            leader_design.decoupling.q_tilde_at_1,
            np.zeros((4, 3)), np.zeros((4, 101)), dt=1e-3, n_steps=100,
        )
        assert np.abs(cascade.e_v).max() == 0.0
        assert np.abs(cascade.x_tilde).max() == 0.0

    def test_transformation_consistency_quick(self, leader_scenario, leader_design):
        m, dt, n_steps = 100, 1e-3, 1000
        rng = np.random.default_rng(21)
        design = leader_design
        # gains were generated at m=200; rebuild the pipeline at m=100
        from coopreg.cli import run_synthesis

        design = run_synthesis(leader_scenario, m=m)
        x0 = np.stack([random_smooth_profile(rng, m) for _ in range(4)])
        v0 = rng.normal(size=(4, 3))
        resolved = nominal_resolved(
            leader_scenario, m=m, dt=dt, n_steps=n_steps, x0=x0, v0=v0, sample_every=5
        )
        trace = simulate(resolved, design.gains, record_state=True)
        e_v, x_t = transform_state_trace(
            trace, design.kernel, design.decoupling.q_tilde,
            design.graph.leader_follower,
        )
        cascade = simulate_target_cascade(
            design.gains, design.graph.leader_follower,
            design.decoupling.q_tilde_at_1, e_v[0], x_t[0], dt, n_steps,
            sample_every=5,
        )
        assert cascade_discrepancy(e_v, x_t, cascade) <= 5.0 * (1.0 / m**2 + dt)

    def test_matches_dense_step_cascade(self):
        m, n, n_steps, dt = 48, 4, 200, 1e-3
        rng = np.random.default_rng(17)
        gains = RegulatorGains(
            k_v=rng.normal(size=3), k_1=0.0,
            k_x=GridFunction.constant(0.0, m), r_x=GridFunction.constant(0.0, m),
            b_y=np.ones(3), S=np.array([[0.0, np.pi, 0.0], [-np.pi, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            mu_c=5.0,
        )
        coupling = rng.normal(size=(n, n))
        q_tilde_at_1 = rng.normal(size=3)
        e_v0 = rng.normal(size=(n, 3))
        x0 = np.stack([random_smooth_profile(rng, m) for _ in range(n)])
        cascade = simulate_target_cascade(
            gains, coupling, q_tilde_at_1, e_v0, x0, dt, n_steps, sample_every=1
        )
        e_v, x_tilde = dense_step_cascade(gains, coupling, q_tilde_at_1, e_v0, x0, dt, n_steps)
        assert_rel_close(cascade.e_v, e_v)
        assert_rel_close(cascade.x_tilde, x_tilde)

    def test_cascade_decay_matches_spectrum(self, leader_design):
        r = leader_design
        rng = np.random.default_rng(13)
        e0 = rng.normal(size=(4, 3))
        cascade = simulate_target_cascade(
            r.gains, r.graph.leader_follower, r.decoupling.q_tilde_at_1,
            e0, np.zeros((4, 201)), dt=1e-3, n_steps=6000, sample_every=10,
        )
        norms = np.linalg.norm(cascade.e_v.reshape(cascade.e_v.shape[0], -1), axis=1)
        sel = (cascade.times >= 2.0) & (norms > 1e-12)
        slope = np.polyfit(cascade.times[sel], np.log(norms[sel]), 1)[0]
        assert -slope == pytest.approx(r.alpha_ev, rel=0.15)


class TestErrorMetrics:
    @staticmethod
    def _trace(times, outputs, reference=None):
        n_s = times.size
        n = outputs.shape[1]
        return SimTrace(
            times=times,
            reference=np.zeros(n_s) if reference is None else reference,
            outputs=outputs,
            inputs=np.zeros((n_s, n)),
        )

    def test_zero_error_settles_immediately(self):
        times = np.linspace(0.0, 10.0, 101)
        trace = self._trace(times, np.zeros((101, 2)))
        metrics = error_metrics(trace, MODE_LEADER)
        assert metrics.settling_time == 0.0
        assert metrics.tail_error == 0.0
        assert metrics.decay_rate == 0.0

    def test_pure_exponential_rate_recovered(self):
        times = np.linspace(0.0, 10.0, 2001)
        outputs = np.exp(-2.0 * times)[:, None]
        metrics = error_metrics(self._trace(times, outputs), MODE_LEADER)
        assert metrics.decay_rate == pytest.approx(2.0, rel=0.05)

    def test_sync_errors_used_in_leaderless_mode(self):
        times = np.linspace(0.0, 1.0, 11)
        outputs = np.stack([np.ones(11), np.ones(11) + 0.5], axis=1)
        metrics = error_metrics(self._trace(times, outputs), MODE_LEADERLESS)
        assert metrics.tail_error == pytest.approx(0.5)

    def test_tail_sync_error_reads_last_fifth_in_leader_mode(self):
        # the spread is 1 up to t = 0.7 and 0.25 from t = 0.8 = the tail start
        times = np.linspace(0.0, 1.0, 11)
        spread = np.where(times < 0.75, 1.0, 0.25)
        outputs = np.stack([np.full(11, 2.0), 2.0 + spread], axis=1)
        metrics = error_metrics(self._trace(times, outputs), MODE_LEADER)
        assert metrics.tail_sync_error == 0.25
        assert metrics.tail_error == 2.25


class TestNominalContraction:
    def test_passing_certificate_implies_contraction(self, leader_scenario, leader_design):
        from _support import combined_state_norms
        from coopreg.cli import certificate_payload

        m = 200
        resolved = nominal_resolved(
            leader_scenario, m=m, dt=1e-3, n_steps=10000,
            x0=np.tile([[1.0], [2.0], [0.5], [3.0]], (1, m + 1)),
            v0=[(1.0, 3.5, 0.5), (0.1, 2.0, 0.8), (1.7, 0.8, 0.3), (0.5, 0.7, 0.9)],
            sample_every=10,
        )
        trace = simulate(resolved, leader_design.gains, record_state=True)
        norms = combined_state_norms(trace)
        sel = (trace.times >= 2.0) & (trace.times <= 8.0) & (norms > 1e-12)
        slope = np.polyfit(trace.times[sel], np.log(norms[sel]), 1)[0]
        alpha = certificate_payload(leader_design)["overall_alpha"]
        assert -slope >= 0.8 * alpha


class TestRefinementStability:
    def test_tail_error_does_not_grow_under_refinement(
        self, leader_scenario, leader_design
    ):
        from coopreg.cli import run_synthesis

        coarse_trace = simulate(leader_scenario.resolve(), leader_design.gains)
        coarse = error_metrics(coarse_trace, MODE_LEADER).tail_error
        fine_design = run_synthesis(leader_scenario, m=400)
        fine_trace = simulate(
            leader_scenario.resolve(m=400, dt=5e-4), fine_design.gains
        )
        fine = error_metrics(fine_trace, MODE_LEADER).tail_error
        # regulation is not a discretization artifact: refining the grid and
        # the step must not degrade the tail error beyond a 20% allowance
        assert fine <= 1.2 * coarse
        assert fine < 0.1 and coarse < 0.1
