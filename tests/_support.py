"""Shared helpers for the test suite."""

import dataclasses

import numpy as np
from scipy.linalg import block_diag, expm

from coopreg.backstepping import OutputOperator, TriangularKernel
from coopreg.comm_graph import CommTopology, laplacian
from coopreg.grid import GridFunction, cumulative_trapezoid, trapezoid_weights
from coopreg.scenario import ResolvedScenario
from coopreg.signal_model import ExoModel
from coopreg.simulator import AgentSpec, NominalPlant, StackedStepper, simulate
from coopreg.synthesis import MODE_LEADER, RegulatorGains


def _dyadic_weight(rng, low=0.25, high=2.0) -> float:
    # multiples of 1/256 are exact in binary floating point, so degree sums
    # and Laplacian row sums cancel exactly in any summation order
    return float(rng.integers(int(low * 256), int(high * 256) + 1)) / 256.0


def random_connected_topology(rng, with_leader: bool) -> CommTopology:
    """Random digraph guaranteed connected, built around a spanning arborescence.

    With a leader, the virtual node 0 is the root: the first attached agent
    hangs off node 0 through a leader link and every other agent hangs off an
    already attached node (possibly node 0).  Without a leader, the first
    attached agent is the root of the follower graph.
    """
    n = int(rng.integers(2, 8))
    adjacency = np.zeros((n, n))
    links = np.zeros(n)
    order = rng.permutation(n)
    attached = []
    for node in order:
        if not attached:
            if with_leader:
                links[node] = _dyadic_weight(rng)
            attached.append(node)
            continue
        if with_leader and rng.random() < 0.3:
            links[node] = _dyadic_weight(rng)
        else:
            parent = attached[int(rng.integers(len(attached)))]
            adjacency[node, parent] = _dyadic_weight(rng)
        attached.append(node)
    if not with_leader:
        links[:] = 0.0
    # sprinkle extra edges
    for _ in range(int(rng.integers(0, 2 * n))):
        i, j = rng.integers(n, size=2)
        if i != j:
            adjacency[i, j] = _dyadic_weight(rng)
    return CommTopology(adjacency=adjacency, leader_links=links)


def random_smooth_profile(rng, m: int, n_modes: int = 5) -> np.ndarray:
    nodes = np.linspace(0.0, 1.0, m + 1)
    coeffs = rng.normal(size=n_modes)
    return sum(c * np.cos(np.pi * k * nodes) for k, c in enumerate(coeffs))


def nominal_agents(m: int, x0_profiles, n_channels: int = 1):
    """Uncertainty-free agents with zero disturbance wiring."""
    return tuple(
        AgentSpec(
            delta_lambda=GridFunction.constant(0.0, m),
            delta_a=GridFunction.constant(0.0, m),
            g1=np.zeros((m + 1, n_channels)),
            g2=np.zeros(n_channels),
            g3=np.zeros(n_channels),
            g4=np.zeros(n_channels),
            initial_profile=GridFunction(np.asarray(profile, dtype=float)),
        )
        for profile in x0_profiles
    )


def nominal_resolved(scenario, m: int, dt: float, n_steps: int, x0, v0, sample_every=5):
    """The scenario's plant and graph with nominal agents and a silent exosystem."""
    exo = scenario.exo_model()
    return ResolvedScenario(
        mode=scenario.mode,
        plant=scenario.plant(m),
        agents=nominal_agents(m, x0),
        topology=scenario.topology(),
        exo=exo,
        m=m,
        dt=dt,
        n_steps=n_steps,
        sample_every=sample_every,
        snapshot_times=(),
        blowup_bound=1e8,
        v0=tuple(tuple(row) for row in np.asarray(v0, dtype=float)),
        w0=(0.0,) * exo.n_w,
    )


def silent_plant(m: int, output: OutputOperator | None = None) -> NominalPlant:
    """Pure heat equation with Neumann ends; the output operator defaults to zero."""
    zero = GridFunction.constant(0.0, m)
    return NominalPlant(a=zero, q0=0.0, q1=0.0, output=output or OutputOperator(zero))


def silent_gains(m: int, n_w: int = 1) -> RegulatorGains:
    """Zero feedback (u = 0) and a frozen internal model."""
    zero = GridFunction.constant(0.0, m)
    return RegulatorGains(
        k_v=np.zeros(n_w), k_1=0.0, k_x=zero, r_x=zero,
        b_y=np.zeros(n_w), S=np.zeros((n_w, n_w)), mu_c=1.0,
    )


def constant_exo(r: float, read_outs) -> ExoModel:
    """One constant signal state: with w0 = (1,) the reference is r and d_i = P_i."""
    return ExoModel(
        S=np.zeros((1, 1)), p=[r], read_outs=tuple(read_outs), b_y=np.ones(1)
    )


def silent_exo(n_agents: int) -> ExoModel:
    """A zero reference and no disturbance channels."""
    return constant_exo(0.0, [np.zeros((0, 1))] * n_agents)


def loop_scenario(plant, agents, topology, exo, w0, v0, mode=MODE_LEADER, dt=1e-3, n_steps=1):
    """A resolved closed loop of the given pieces; every step is sampled."""
    return ResolvedScenario(
        mode=mode,
        plant=plant,
        agents=tuple(agents),
        topology=topology,
        exo=exo,
        m=plant.a.m,
        dt=dt,
        n_steps=n_steps,
        sample_every=1,
        snapshot_times=(),
        blowup_bound=1e8,
        v0=tuple(map(tuple, np.asarray(v0, dtype=float))),
        w0=tuple(np.asarray(w0, dtype=float)),
    )


def first_output(agent: AgentSpec, nominal: OutputOperator, profile, d=()) -> float:
    """Output at sample 0 of a one-agent ``simulate`` run from ``profile``, with disturbance d."""
    m = agent.m
    agent = dataclasses.replace(agent, initial_profile=GridFunction(np.asarray(profile, float)))
    resolved = loop_scenario(
        silent_plant(m, nominal), [agent], CommTopology(np.zeros((1, 1)), np.ones(1)),
        constant_exo(0.0, [np.reshape(d, (-1, 1))]), w0=[1.0], v0=[[0.0]],
    )
    return simulate(resolved, silent_gains(m)).outputs[0, 0]


def combined_state_norms(trace) -> np.ndarray:
    """Euclidean-plus-L2 norm of (v, x) at every recorded sample."""
    m = trace.states_x.shape[2] - 1
    w = trapezoid_weights(m)
    return np.sqrt(
        np.sum(trace.states_v**2, axis=(1, 2)) + np.sum(trace.states_x**2 @ w, axis=1)
    )


def cascade_discrepancy(e_v, x_tilde, cascade) -> float:
    """Relative L2 distance between a transformed trace and a cascade trace."""
    m = x_tilde.shape[2] - 1
    w = trapezoid_weights(m)
    num = np.sum((e_v - cascade.e_v) ** 2) + np.sum((x_tilde - cascade.x_tilde) ** 2 @ w)
    den = np.sum(cascade.e_v**2) + np.sum(cascade.x_tilde**2 @ w)
    return float(np.sqrt(num / den))


def kernel_iteration_map(a, q0: float, mu_c: float, f: np.ndarray) -> np.ndarray:
    """One sweep of the successive-approximation map of the discrete kernel problem.

    ``f`` holds F(xi_p, eta_q) on the (2m+1) x (m+1) characteristic lattice
    xi = p h, eta = q h; the discrete kernel is the fixed point of this map
    (Smyshlyaev & Krstic, IEEE TAC 49(12), 2004).  Entries off the physical
    triangle q <= p <= 2m - q come back zero.
    """
    m = f.shape[1] - 1
    h = 1.0 / m
    p_idx = np.arange(2 * m + 1)
    q_idx = np.arange(m + 1)
    domain = (q_idx[None, :] <= p_idx[:, None]) & (p_idx[:, None] <= 2 * m - q_idx[None, :])
    tau = 0.5 * h * np.arange(2 * m + 1)
    phi_half = mu_c + np.asarray(a(tau), dtype=float) * np.ones_like(tau)
    f0 = q0 - 0.5 * cumulative_trapezoid(phi_half, dx=0.5 * h)
    f0_prime = -0.25 * phi_half
    diff = p_idx[:, None] - q_idx[None, :]
    phi_lattice = np.where(domain, 0.25 * phi_half[np.clip(diff, 0, 2 * m)], 0.0)
    eta = h * q_idx
    diag = np.arange(m + 1)

    c = cumulative_trapezoid(phi_lattice * f, dx=h, axis=1)
    ct = cumulative_trapezoid(c, dx=h, axis=0)
    d = ct - ct[diag, diag][None, :]
    rhs = 2.0 * f0_prime[: m + 1] + 2.0 * c[diag, diag]
    g = np.exp(-q0 * eta) * (q0 + cumulative_trapezoid(np.exp(q0 * eta) * rhs, dx=h))
    return np.where(domain, g[None, :] + f0[:, None] - f0[: m + 1][None, :] + d, 0.0)


def reciprocity_map(k: TriangularKernel, k_inv: TriangularKernel) -> np.ndarray:
    """Right-hand side of the trapezoid reciprocity identity, lower triangle.

    Entry (i, j) is (k(z_i, zeta_j) + h [k(z_i, zeta_j) k_I(zeta_j, zeta_j) / 2
    + sum_{j<s<i} k(z_i, z_s) k_I(z_s, zeta_j)]) / (1 - h k(z_i, z_i)/2), and the
    diagonal is k(z_i, z_i); the discrete inverse kernel equals it.
    """
    h = k.h
    kv, ki = k.lower(), k_inv.lower()
    inner = 0.5 * kv * np.diagonal(ki)[None, :] + np.tril(kv, -1) @ np.tril(ki, -1)
    out = np.tril((kv + h * inner) / (1.0 - 0.5 * h * np.diagonal(kv))[:, None], -1)
    return out + np.diag(np.diagonal(kv))


def dense_stencil(lam, abar, q0b: float, q1b: float) -> np.ndarray:
    """Dense ghost-node operator L of one agent on m + 1 nodes."""
    m = lam.size - 1
    h = 1.0 / m
    op = np.zeros((m + 1, m + 1))
    for j in range(1, m):
        op[j, j - 1] = op[j, j + 1] = lam[j] / h**2
        op[j, j] = -2.0 * lam[j] / h**2 + abar[j]
    op[0, 0] = -2.0 * lam[0] * (1.0 + h * q0b) / h**2 + abar[0]
    op[0, 1] = 2.0 * lam[0] / h**2
    op[m, m] = -2.0 * lam[m] * (1.0 - h * q1b) / h**2 + abar[m]
    op[m, m - 1] = 2.0 * lam[m] / h**2
    return op


def dense_crank_nicolson(generator, forcing, propagator, y0, w0, dt, n_steps, bound=np.inf):
    """Reference Crank-Nicolson of y' = generator y + forcing w, w+ = propagator w exactly.

    (I - dt/2 G) y+ = (I + dt/2 G) y + dt/2 F (w + w+), with the step matrix
    from one dense ``np.linalg.solve``.  Returns the (y, w) of every step run
    and the time of the first step whose max |y| is not finite or exceeds
    ``bound`` (None when every step stays inside it); stepping stops there.
    """
    eye = np.eye(generator.shape[0])
    step = np.linalg.solve(
        eye - 0.5 * dt * generator,
        np.hstack([eye + 0.5 * dt * generator, 0.5 * dt * forcing]),
    )
    ys, ws = [np.asarray(y0, dtype=float)], [np.asarray(w0, dtype=float)]
    for k in range(1, n_steps + 1):
        w = propagator @ ws[-1]
        ys.append(step @ np.concatenate([ys[-1], ws[-1] + w]))
        ws.append(w)
        peak = np.abs(ys[-1]).max()
        if not np.isfinite(peak) or peak > bound:
            return (np.array(ys), np.array(ws)), k * dt
    return (np.array(ys), np.array(ws)), None


def dense_step_loop(resolved, gains):
    """Reference closed loop: its dense generator stepped by ``dense_crank_nicolson``.

    The state is [x, vec v] with x the stacked profiles of the N agents.
    Returns (y, u, v, x) arrays over the steps run and the blow-up time.
    """
    agents, exo, dt = resolved.agents, resolved.exo, resolved.dt
    m, n, n_w = resolved.m, len(agents), gains.n_w
    n_x = n * (m + 1)
    h = 1.0 / m
    plant = resolved.plant
    # output weights, feedthrough and disturbance wiring of each agent
    stepper = StackedStepper(plant, agents, exo.read_outs, dt)
    lam = [1.0 + ag.delta_lambda.values for ag in agents]
    stencil = block_diag(*(
        dense_stencil(lam_i, plant.a.values + ag.delta_a.values,
                      plant.q0 + ag.delta_q0, plant.q1 + ag.delta_q1)
        for lam_i, ag in zip(lam, agents)
    ))
    actuation = np.zeros((n_x, n))        # u_i enters at node m of agent i
    for i, lam_i in enumerate(lam):
        actuation[i * (m + 1) + m, i] = 2.0 * lam_i[m] / h
    graph = laplacian(resolved.topology)
    if resolved.mode == MODE_LEADER:
        coupling, links = graph.leader_follower, resolved.topology.leader_links
    else:
        coupling, links = graph.laplacian, np.zeros(n)
    w_kx = trapezoid_weights(m) * gains.k_x.values
    w_rx = trapezoid_weights(m) * gains.r_x.values

    u_x = np.kron(coupling, w_rx) - np.kron(np.eye(n), w_kx)
    u_x[:, m :: m + 1] -= gains.k_1 * np.eye(n)
    u_map = np.hstack([u_x, np.kron(np.eye(n), gains.k_v)])          # u from [x, v]
    y_map = np.hstack([block_diag(*stepper.weights), np.zeros((n, n * n_w))])
    drive = np.kron(coupling, gains.b_y[:, None])
    generator = np.vstack([
        np.hstack([stencil, np.zeros((n_x, n * n_w))]) + actuation @ u_map,
        drive @ y_map + np.hstack([np.zeros((n * n_w, n_x)), np.kron(np.eye(n), gains.S)]),
    ])
    forcing = np.vstack([
        stepper.wiring.reshape(n_x, -1),
        drive @ stepper.feedthrough - np.outer(np.kron(links, gains.b_y), exo.p),
    ])
    x0 = np.concatenate([ag.initial_profile.values for ag in agents])
    (ys, ws), blowup_time = dense_crank_nicolson(
        generator, forcing, expm(exo.S * dt), np.concatenate([x0, np.ravel(resolved.v0)]),
        resolved.w0, dt, resolved.n_steps, resolved.blowup_bound,
    )
    outputs = ys @ y_map.T + ws @ stepper.feedthrough.T
    inputs = ys @ u_map.T
    states = (ys[:, n_x:].reshape(-1, n, n_w), ys[:, :n_x].reshape(-1, n, m + 1))
    return (outputs, inputs, *states), blowup_time


def dense_step_cascade(gains, coupling, q_tilde_at_1, e_v0, x_tilde0, dt, n_steps):
    """Reference target cascade by ``dense_crank_nicolson``, every step: (e_v, x_tilde)."""
    n, n_w = np.shape(e_v0)
    m = np.shape(x_tilde0)[1] - 1
    n_x = n * (m + 1)
    heat = dense_stencil(np.ones(m + 1), np.full(m + 1, -gains.mu_c), 0.0, 0.0)
    boundary = np.kron(np.eye(n), gains.k_v)       # the input of agent i is k_v . e_v_i
    drive = np.kron(coupling, np.reshape(q_tilde_at_1, (-1, 1)))
    actuation = np.zeros((n_x, n))
    actuation[m :: m + 1] = 2.0 * m * np.eye(n)
    generator = np.block([
        [np.kron(np.eye(n), heat), actuation @ boundary],
        [np.zeros((n * n_w, n_x)), np.kron(np.eye(n), gains.S) - drive @ boundary],
    ])
    y0 = np.concatenate([np.ravel(x_tilde0), np.ravel(e_v0)])
    (ys, _), _ = dense_crank_nicolson(
        generator, np.zeros((n_x + n * n_w, 0)), np.zeros((0, 0)), y0, np.zeros(0), dt, n_steps
    )
    return ys[:, n_x:].reshape(-1, n, n_w), ys[:, :n_x].reshape(-1, n, m + 1)
