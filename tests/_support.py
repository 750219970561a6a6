"""Shared helpers for the test suite."""

import dataclasses

import numpy as np
from scipy.linalg import expm
from scipy.linalg.lapack import dgttrf, dgttrs

from coopreg.backstepping import OutputOperator, TriangularKernel
from coopreg.comm_graph import CommTopology, laplacian
from coopreg.grid import GridFunction, cumulative_trapezoid, trapezoid_weights
from coopreg.scenario import ResolvedScenario
from coopreg.signal_model import ExoModel
from coopreg.simulator import AgentSpec, NominalPlant, StackedStepper, TrapezoidStep, simulate
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
        S=np.zeros((1, 1)), p=[r], read_outs=tuple(read_outs), b_y=np.ones(1), n_reference=1
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


def split_crank_nicolson(plant: NominalPlant, agents, dt: float):
    """Crank-Nicolson step of stacked agents with the explicit three-diagonal right-hand side.

    (I - dt/2 L) x+ = (I + dt/2 L) x + dt f, with L the ghost-node stencil of
    each agent and the N systems chained into one with zero coupling.
    """
    m = plant.a.m
    h = 1.0 / m
    lam = 1.0 + np.stack([ag.delta_lambda.values for ag in agents])
    abar = plant.a.values + np.stack([ag.delta_a.values for ag in agents])
    q0b = plant.q0 + np.array([ag.delta_q0 for ag in agents])
    q1b = plant.q1 + np.array([ag.delta_q1 for ag in agents])
    lower = np.zeros_like(lam)
    diag = np.zeros_like(lam)
    upper = np.zeros_like(lam)
    diag[:, 1:m] = -2.0 * lam[:, 1:m] / h**2 + abar[:, 1:m]
    lower[:, 1:m] = upper[:, 1:m] = lam[:, 1:m] / h**2
    diag[:, 0] = -2.0 * lam[:, 0] * (1.0 + h * q0b) / h**2 + abar[:, 0]
    upper[:, 0] = 2.0 * lam[:, 0] / h**2
    diag[:, m] = -2.0 * lam[:, m] * (1.0 - h * q1b) / h**2 + abar[:, m]
    lower[:, m] = 2.0 * lam[:, m] / h**2

    half = 0.5 * dt
    *lu, info = dgttrf(
        -half * lower.ravel()[1:], 1.0 - half * diag.ravel(), -half * upper.ravel()[:-1]
    )
    assert info == 0
    rhs_upper = half * upper[:, :-1]
    rhs_diag = 1.0 + half * diag
    rhs_lower = half * lower[:, 1:]

    def step(x, f):
        rhs = rhs_diag * x
        rhs[:, :-1] += rhs_upper * x[:, 1:]
        rhs[:, 1:] += rhs_lower * x[:, :-1]
        rhs += dt * f
        out, _ = dgttrs(*lu, rhs.ravel())
        return out.reshape(x.shape)

    return step


def split_step_loop(resolved, gains):
    """Reference first-order split-step closed loop, every step recorded.

    Per step: outputs, controller, internal model, then the split
    Crank-Nicolson step, and the signal state by its matrix exponential.
    Returns (y, u, v, x) arrays over the steps run and the time of the first
    step whose max(|x|, |v|) is not finite or exceeds the blow-up bound
    (None when every step stays inside it); the loop stops there.
    """
    agents, exo, dt = resolved.agents, resolved.exo, resolved.dt
    m, n = resolved.m, len(agents)
    # output weights, feedthrough and wiring; its own step is not used
    stepper = StackedStepper(resolved.plant, agents, exo.read_outs, dt)
    cn_step = split_crank_nicolson(resolved.plant, agents, dt)
    graph = laplacian(resolved.topology)
    if resolved.mode == MODE_LEADER:
        coupling, links = graph.leader_follower, resolved.topology.leader_links
    else:
        coupling, links = graph.laplacian, np.zeros(n)
    w_kx = trapezoid_weights(m) * gains.k_x.values
    w_rx = trapezoid_weights(m) * gains.r_x.values
    internal_model = TrapezoidStep(gains.S, gains.b_y, dt)
    propagator = expm(exo.S * dt)

    x = np.stack([ag.initial_profile.values.copy() for ag in agents])
    v = np.array(resolved.v0, dtype=float).reshape(n, gains.n_w)
    w = np.array(resolved.w0, dtype=float)
    ys, us, vs, xs = [], [], [], []
    blowup_time = None
    for k in range(resolved.n_steps + 1):
        t = k * dt
        y = np.einsum("ij,ij->i", stepper.weights, x) + stepper.feedthrough @ w
        r = float(exo.p @ w)
        u = v @ gains.k_v - gains.k_1 * x[:, -1] - x @ w_kx + coupling @ (x @ w_rx)
        ys.append(y)
        us.append(u)
        vs.append(v)
        xs.append(x)
        if k == resolved.n_steps:
            break
        v = internal_model(v, coupling @ y - links * r)
        f = stepper.wiring @ w
        f[:, -1] += stepper.bc1_gain * u
        x = cn_step(x, f)
        w = propagator @ w
        peak = max(np.abs(x).max(), np.abs(v).max())
        if not np.isfinite(peak) or peak > resolved.blowup_bound:
            blowup_time = t + dt
            break
    return (np.array(ys), np.array(us), np.array(vs), np.array(xs)), blowup_time


def split_step_cascade(gains, coupling, q_tilde_at_1, e_v0, x_tilde0, dt, n_steps):
    """Reference split-step target cascade, every step recorded: (e_v, x_tilde)."""
    e_v = np.array(e_v0, dtype=float)
    x_t = np.array(x_tilde0, dtype=float)
    m = x_t.shape[1] - 1
    zero = GridFunction.constant(0.0, m)
    heat = NominalPlant(
        a=GridFunction.constant(-gains.mu_c, m), q0=0.0, q1=0.0, output=OutputOperator(zero)
    )
    agents = [AgentSpec(delta_lambda=zero, delta_a=zero)] * len(e_v)
    cn_step = split_crank_nicolson(heat, agents, dt)
    target_model = TrapezoidStep(gains.S, q_tilde_at_1, dt)
    e_trace, x_trace = [e_v], [x_t]
    for _ in range(n_steps):
        boundary = e_v @ gains.k_v
        e_v = target_model(e_v, -(coupling @ boundary))
        f = np.zeros_like(x_t)
        f[:, -1] = 2.0 * m * boundary
        x_t = cn_step(x_t, f)
        e_trace.append(e_v)
        x_trace.append(x_t)
    return np.array(e_trace), np.array(x_trace)
