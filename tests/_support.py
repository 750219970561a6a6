"""Shared helpers for the test suite."""

import dataclasses
from unittest import mock

import numpy as np
from scipy.linalg import block_diag, expm, solve_triangular

from coopreg.backstepping import OutputOperator, TriangularKernel, _kernel_levels
from coopreg.comm_graph import CommTopology, laplacian
from coopreg.grid import GridFunction, cumulative_trapezoid, trapezoid_weights
from coopreg.scenario import ResolvedScenario
from coopreg.signal_model import ExoModel
from coopreg import linalg, simulator
from coopreg.errors import NumericalBlowup, SingularStep
from coopreg.simulator import (
    AgentSpec,
    CascadeTrace,
    NominalPlant,
    SimTrace,
    _closed_loop,
    _not_definite,
    _stencil,
    simulate,
)
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


def random_digraph(rng) -> CommTopology:
    """Random weighted digraph on 2..7 agents, connected or not, with arbitrary
    (not dyadic) weights and random leader links."""
    n = int(rng.integers(2, 8))
    edges = rng.random((n, n)) < rng.random()
    adjacency = np.where(edges, rng.uniform(0.1, 3.0, (n, n)), 0.0)
    np.fill_diagonal(adjacency, 0.0)
    links = np.where(rng.random(n) < 0.5, rng.uniform(0.1, 3.0, n), 0.0)
    return CommTopology(adjacency=adjacency, leader_links=links)


def theta_pair(n: int):
    """The coordinate change to (agent 1, differences to agent 1) and its inverse."""
    theta = np.eye(n)
    theta[1:, 0] = -1.0
    theta_inv = np.eye(n)
    theta_inv[1:, 0] = 1.0
    return theta, theta_inv


def theta_oracle(lap: np.ndarray):
    """Blocks l12, l22 of Theta L Theta^-1 and the leaderless rank matrix
    Theta^-1 [l12; l22], all formed by explicit matrix products."""
    theta, theta_inv = theta_pair(lap.shape[0])
    transformed = theta @ lap @ theta_inv
    l12, l22 = transformed[0, 1:], transformed[1:, 1:]
    return l12, l22, theta_inv @ np.vstack([l12[None, :], l22])


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


def pack(table) -> np.ndarray:
    """The lower triangle of a square table in ``TriangularKernel``'s packed
    order, column by column; the entries above the diagonal are dropped."""
    table = np.asarray(table, dtype=float)
    j, i = np.triu_indices(table.shape[0])  # column j, then row i >= j
    return table[i, j]


def unpack(k: TriangularKernel) -> np.ndarray:
    """The kernel as a square table, zero above the diagonal."""
    table = np.zeros((k.m + 1, k.m + 1))
    j, i = np.triu_indices(k.m + 1)
    table[i, j] = k.packed
    return table


def dense_kernel_table(a, q0: float, mu_c: float, m: int) -> np.ndarray:
    """The kernel march written into a NaN-padded (m + 1)^2 square, one
    strided slice per level, as ``solve_kernel`` stored it before the
    packed triangle: the oracle for the packed writer."""
    table = np.full((m + 1, m + 1), np.nan)
    flat = table.reshape(-1)
    for q, level in enumerate(_kernel_levels(a, float(q0), float(mu_c), m)):
        # the node (z_{q+j}, zeta_j) has flat index q (m + 1) + j (m + 2)
        flat[q * (m + 1) :: m + 2] = level[::2]
    return table


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


def kernel_residual(k: TriangularKernel, a, mu_c: float) -> float:
    """Sup-norm interior residual of the hyperbolic kernel equation.

    Second-order centered differences on the strict interior of the triangle,
    2 <= i <= m - 2 and 1 <= j <= i - 2, whose stencils read only the lower
    triangle; the independent convergence oracle for solved kernels.
    """
    m, h = k.m, k.h
    if m < 5:  # no node of the strict interior
        return 0.0
    v = unpack(k)
    a_vals = np.asarray(a(k.nodes), dtype=float) * np.ones(m + 1)
    # rows i = 2..m-2 by columns j = 1..m-4; the mask keeps j <= i - 2
    mid = v[2 : m - 1, 1 : m - 3]
    kzz = (v[3:m, 1 : m - 3] - 2.0 * mid + v[1 : m - 2, 1 : m - 3]) / h**2
    kss = (v[2 : m - 1, 2 : m - 2] - 2.0 * mid + v[2 : m - 1, : m - 4]) / h**2
    res = kzz - kss - (mu_c + a_vals[1 : m - 3]) * mid
    return float(np.max(np.abs(res), where=np.tri(m - 3, m - 4, -1, dtype=bool), initial=0.0))


def kernel_residual_rows(k: TriangularKernel, a, mu_c: float) -> float:
    """``kernel_residual`` as a loop over the rows 2 <= i <= m - 2 of the
    triangle, each row's centered differences over 1 <= j <= i - 2: the
    reference for the sliced residual."""
    m, h = k.m, k.h
    v = unpack(k)
    worst = 0.0
    a_vals = np.asarray(a(k.nodes), dtype=float) * np.ones(m + 1)
    for i in range(2, m - 1):
        j = np.arange(1, i - 1)
        if j.size == 0:
            continue
        kzz = (v[i + 1, j] - 2.0 * v[i, j] + v[i - 1, j]) / h**2
        kss = (v[i, j + 1] - 2.0 * v[i, j] + v[i, j - 1]) / h**2
        res = kzz - kss - (mu_c + a_vals[j]) * v[i, j]
        worst = max(worst, float(np.abs(res).max()))
    return worst


def reciprocity_map(k: TriangularKernel, k_inv: TriangularKernel) -> np.ndarray:
    """Right-hand side of the trapezoid reciprocity identity, lower triangle.

    Entry (i, j) is (k(z_i, zeta_j) + h [k(z_i, zeta_j) k_I(zeta_j, zeta_j) / 2
    + sum_{j<s<i} k(z_i, z_s) k_I(z_s, zeta_j)]) / (1 - h k(z_i, z_i)/2), and the
    diagonal is k(z_i, z_i); the discrete inverse kernel equals it.
    """
    h = k.h
    kv, ki = unpack(k), unpack(k_inv)
    inner = 0.5 * kv * np.diagonal(ki)[None, :] + np.tril(kv, -1) @ np.tril(ki, -1)
    out = np.tril((kv + h * inner) / (1.0 - 0.5 * h * np.diagonal(kv))[:, None], -1)
    return out + np.diag(np.diagonal(kv))


def triangular_inverse_kernel(k: TriangularKernel) -> np.ndarray:
    """The inverse-kernel table as LAPACK's triangular solve gives it, lower triangle.

    The same reciprocity system as ``invert_kernel``,
    (I - T) K_I = K diag(1 - h k(z, z)/2), solved by scipy's
    ``solve_triangular``; the entries may be non-finite when it overflows.
    """
    h, kv = k.h, unpack(k)
    denom = 1.0 - 0.5 * h * np.diagonal(kv)
    system = np.eye(k.m + 1) - h * kv
    np.fill_diagonal(system, denom)
    with np.errstate(all="ignore"):
        return solve_triangular(system, kv * denom[None, :], lower=True, check_finite=False)


def column_operator(k: TriangularKernel) -> np.ndarray:
    """Matrix W with (f @ W)_j ~ int_{zeta_j}^1 f(s) k(s, zeta_j) ds by the
    trapezoid rule, every weight written out: the reference for the pullback
    in ``solve_decoupling``."""
    m = k.m
    w = unpack(k) * k.h
    idx = np.arange(m + 1)
    w[idx, idx] *= 0.5
    w[m, :] *= 0.5
    w[m, m] = 0.0
    return w


def composed_output_weight(c: OutputOperator, k: TriangularKernel) -> np.ndarray:
    """Transformed smooth weight composed from the whole inverse-kernel table.

    The reference for ``transform_output_weight``: c0 + c_b1 k_I(1, .) plus the
    column trapezoid of c0 k_I and one truncated interpolated row of k_I per
    point weight, all read from ``triangular_inverse_kernel``.
    """
    k_inv = TriangularKernel(pack(triangular_inverse_kernel(k)))
    m, h = k_inv.m, k_inv.h
    ki = unpack(k_inv)
    c0 = c.smooth_weight.values
    smooth = c.boundary_weights[1] * ki[m, :] + c0 + c0 @ column_operator(k_inv)
    for coeff, z_k in c.point_weights:
        i0 = min(int(z_k / h), m - 1)
        theta = z_k / h - i0
        row = (1.0 - theta) * ki[i0, :] + theta * ki[i0 + 1, :]
        smooth = smooth + coeff * row * (k_inv.nodes < z_k)
    return smooth


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
    from one dense ``np.linalg.solve``.  Each row is first divided by its
    largest entry: partial pivoting on the unscaled rows of a stiff agent
    lets the reference's rounding swing fivefold with a one-ulp change of
    the gains.  Returns the (y, w) of every step run and the time of the
    first step whose max |y| is not finite or exceeds ``bound`` (None when
    every step stays inside it); stepping stops there.
    """
    eye = np.eye(generator.shape[0])
    lhs = eye - 0.5 * dt * generator
    scale = 1.0 / np.abs(lhs).max(axis=1, keepdims=True)
    step = np.linalg.solve(
        lhs * scale, np.hstack([eye + 0.5 * dt * generator, 0.5 * dt * forcing]) * scale
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


def dense_output_row(out: OutputOperator, agent: AgentSpec, m: int) -> np.ndarray:
    """Output row of an agent, each point sample the ``np.interp`` of the nodal
    values: the reference for ``OutputOperator.row()`` and the simulator."""
    nodes, hats = np.linspace(0.0, 1.0, m + 1), np.eye(m + 1)
    delta_c0 = 0.0 if agent.delta_c0 is None else agent.delta_c0.values
    row = trapezoid_weights(m) * (out.smooth_weight.values + delta_c0)
    row[0] += out.boundary_weights[0] + agent.delta_cb0
    row[m] += out.boundary_weights[1] + agent.delta_cb1
    for k, (c_k, z_k) in enumerate(out.point_weights):
        c_k += agent.delta_points[k] if k < len(agent.delta_points) else 0.0
        row += c_k * np.array([np.interp(z_k, nodes, hat) for hat in hats])
    return row


def dense_step_loop(resolved, gains):
    """Reference closed loop: its dense generator stepped by ``dense_crank_nicolson``.

    The state is [x, vec v] with x the stacked profiles of the N agents.
    Returns (y, u, v, x) arrays over the steps run and the blow-up time.
    """
    agents, exo, dt = resolved.agents, resolved.exo, resolved.dt
    m, n, n_w = resolved.m, len(agents), gains.n_w
    n_x = n * (m + 1)
    h = 1.0 / m
    plant, out = resolved.plant, resolved.plant.output
    lam = [1.0 + ag.delta_lambda.values for ag in agents]
    stencil = block_diag(*(
        dense_stencil(lam_i, plant.a.values + ag.delta_a.values,
                      plant.q0 + ag.delta_q0, plant.q1 + ag.delta_q1)
        for lam_i, ag in zip(lam, agents)
    ))
    # output row, disturbance wiring and feedthrough of each agent
    rows, wiring, feedthrough = [], [], []
    for ag, p_i, lam_i in zip(agents, exo.read_outs, lam):
        rows.append(dense_output_row(out, ag, m))
        d_map = ag.g1 @ p_i                  # in-domain g1 d, then the ghost-node closures
        d_map[0] -= 2.0 * lam_i[0] / h * (ag.g2 @ p_i)
        d_map[m] += 2.0 * lam_i[m] / h * (ag.g3 @ p_i)
        wiring.append(d_map)
        feedthrough.append(ag.g4 @ p_i)
    feedthrough = np.array(feedthrough)
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
    y_map = np.hstack([block_diag(*rows), np.zeros((n, n * n_w))])
    drive = np.kron(coupling, gains.b_y[:, None])
    generator = np.vstack([
        np.hstack([stencil, np.zeros((n_x, n * n_w))]) + actuation @ u_map,
        drive @ y_map + np.hstack([np.zeros((n * n_w, n_x)), np.kron(np.eye(n), gains.S)]),
    ])
    forcing = np.vstack([
        np.vstack(wiring),
        drive @ feedthrough - np.outer(np.kron(links, gains.b_y), exo.p),
    ])
    x0 = np.concatenate([ag.initial_profile.values for ag in agents])
    (ys, ws), blowup_time = dense_crank_nicolson(
        generator, forcing, expm(exo.S * dt), np.concatenate([x0, np.ravel(resolved.v0)]),
        resolved.w0, dt, resolved.n_steps, resolved.blowup_bound,
    )
    outputs = ys @ y_map.T + ws @ feedthrough.T
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


class ScaledStep:
    """``ClosedLoopStep`` as it was when it ran on D^-1 y, the oracle of the
    step that carries its read-out and signal state as rows of the solve.

    With D diagonal, d_j / d_j-1 = sqrt(L[j, j-1] / L[j-1, j]) inside an
    agent and 1 elsewhere, D^-1 A D is a symmetric tridiagonal B for A = I -
    (dt/2) L, and B / 2 is inverted once as a ``PartitionedSolve``.  The
    doubled midpoint is a rank-k update of u = 2 B^-1 D^-1 y: 2 y_h = u + P
    [u read, w], P = (dt/2) W (I - (dt/2) R W)^-1 F with W = B^-1 D^-1 E, R
    the read of z through D G and F = diag(I, I + propagator); then y+ = D
    (2 y_h - D^-1 y).  ``stepwise_run`` steps it.
    """

    def __init__(self, bands, e, read_out, s_w, dt: float):
        lower, diag, upper = bands
        self.n_x = diag.size
        n_v = e.shape[0] - self.n_x
        n_read = read_out.shape[1] + n_v
        half = 0.5 * dt
        ratio = np.divide(np.sqrt(lower), np.sqrt(upper), out=np.ones_like(lower), where=lower > 0)
        off = lower / ratio
        pieces = np.split(np.append(1.0, ratio), np.flatnonzero(lower == 0) + 1)
        self.scale = np.concatenate([*map(np.cumprod, pieces), np.ones(n_v)])
        b_diag = 1.0 - half * np.append(diag, np.zeros(n_v))
        b_off = -half * np.append(off, np.zeros(n_v))
        if not linalg.positive_pivots(b_diag, b_off):
            raise _not_definite(diag, off, dt)
        self._solver = linalg.PartitionedSolve(0.5 * b_diag, 0.5 * b_off, 0.5 * b_off)
        self.read_out, self.propagator = read_out, linalg.expm(s_w * dt)
        self.read_hat = read_out * self.scale[: self.n_x, None]
        w_hat = self._solver.solve(e / (2.0 * self.scale[:, None]))
        coupled = np.eye(e.shape[1])
        read_w = self.read_hat.T @ w_hat[: self.n_x]
        coupled[:n_read] -= half * np.vstack([read_w, w_hat[self.n_x :]])
        if not (np.isfinite(w_hat).all() and np.isfinite(coupled).all()):
            raise NumericalBlowup("closed-loop step overflows: an assembled matrix is not finite")
        fold = np.eye(e.shape[1])
        fold[n_read:, n_read:] += self.propagator
        try:
            mix = np.linalg.solve(coupled, half * fold)
        except np.linalg.LinAlgError as exc:
            raise SingularStep(f"Crank-Nicolson coupling matrix is singular: {exc}") from exc
        p, s = self._solver.shape
        self.p = np.zeros((p * s, e.shape[1]), order="F")
        np.matmul(w_hat, mix, out=self.p[: e.shape[0]])

    def read(self, y: np.ndarray, w: np.ndarray) -> np.ndarray:
        """z = [x G, v, w] from y = [x, vec v]."""
        return np.concatenate([y[: self.n_x] @ self.read_out, y[self.n_x :], w])


def stepwise_run(step: ScaledStep, y, w, n_steps: int):
    """The ``ScaledStep`` loop one step at a time: (k, y, w) after k = 0 ..
    n_steps steps, each step a solve of the unpadded state."""
    solve, p = step._solver.solve, step.p[: y.size]
    yield 0, y, w
    y_hat = y / step.scale
    for k in range(1, n_steps + 1):
        twice = solve(y_hat)
        read = twice[: step.n_x] @ step.read_hat
        twice += p @ np.concatenate([read, twice[step.n_x :], w])
        twice -= y_hat
        y_hat, w = twice, step.propagator @ w
        yield k, step.scale * y_hat, w


def sample_row(k: int, n_steps: int, every: int):
    """Trace row of step ``k``, or None: every ``every``-th step and the last are recorded."""
    return -(-k // every) if k % every == 0 or k == n_steps else None


def stepwise_simulate(resolved, gains, record_state: bool = False) -> SimTrace:
    """``simulate`` as it was before it checked blocks of steps: each step is
    checked, sampled and snapshot in turn, on ``stepwise_run`` of the loop's
    ``ScaledStep``."""
    with mock.patch.object(simulator, "ClosedLoopStep", ScaledStep):
        step, signals, y, w = _closed_loop(resolved, gains)
    dt, m, n_steps, stride = resolved.dt, resolved.m, resolved.n_steps, resolved.sample_every
    blowup = resolved.blowup_bound
    n, n_w = len(resolved.agents), gains.n_w
    n_x = n * (m + 1)
    n_rows = sample_row(n_steps, n_steps, stride) + 1
    times = np.empty(n_rows)
    sampled = np.empty((n_rows, 2 * n + 1))
    v_tr = np.empty((n_rows, n, n_w)) if record_state else None
    x_tr = np.empty((n_rows, n, m + 1)) if record_state else None
    snapshots = {}
    snap_steps = {int(round(t_s / dt)): t_s for t_s in resolved.snapshot_times}
    peak_state, peak_time = np.abs(y).max(), 0.0
    for k, y, w in stepwise_run(step, y, w, n_steps):
        if k:
            peak, t = np.abs(y).max(), (k - 1) * dt + dt
            if not np.isfinite(peak) or peak > blowup:
                raise NumericalBlowup(
                    f"state norm {peak:.3e} exceeded {blowup:.1e} at t = {t:.6g}", time=t
                )
            if peak > peak_state:
                peak_state, peak_time = peak, t
        row = sample_row(k, n_steps, stride)
        if row is not None:
            times[row] = k * dt
            sampled[row] = signals @ step.read(y, w)
            if record_state:
                v_tr[row] = y[n_x:].reshape(n, n_w)
                x_tr[row] = y[:n_x].reshape(n, m + 1)
        if k in snap_steps:
            snapshots[snap_steps[k]] = y[:n_x].reshape(n, m + 1).copy()
    return SimTrace(
        times=times, reference=sampled[:, -1], outputs=sampled[:, :n],
        inputs=sampled[:, n:-1], snapshots=snapshots, states_v=v_tr, states_x=x_tr,
        metadata={"peak_state": float(peak_state), "peak_time": peak_time},
    )


def _cascade_step(gains: RegulatorGains, coupling, q_tilde_at_1, n: int, m: int, dt: float):
    """The step of the target cascade of n agents on m intervals, as
    ``simulate_target_cascade`` built it before it stepped in cosine modes."""
    n_x, n_w = n * (m + 1), gains.n_w
    bands, bc1_gain = _stencil(np.ones((n, m + 1)), np.full((n, m + 1), -gains.mu_c), 0.0, 0.0)
    # the profiles enter nothing but their own step: an empty read-out and no w
    boundary = np.kron(np.eye(n), gains.k_v)
    forcing = np.zeros((n, m + 1, n * n_w))
    forcing[:, m] += bc1_gain[:, None] * boundary
    internal = np.kron(np.eye(n), gains.S)
    internal -= np.kron(coupling @ boundary, np.reshape(q_tilde_at_1, (-1, 1)))
    return ScaledStep(
        bands, np.vstack([forcing.reshape(n_x, -1), internal]), np.zeros((n_x, 0)),
        np.zeros((0, 0)), dt,
    )


def stepwise_cascade(gains, coupling, q_tilde_at_1, e_v0, x_tilde0, dt, n_steps, sample_every=1):
    """The target cascade stepped by ``ScaledStep`` one step at a time, on
    ``stepwise_run``: the oracle of the cosine-mode ``simulate_target_cascade``."""
    n, n_w = np.shape(e_v0)
    m = np.shape(x_tilde0)[1] - 1
    n_x = n * (m + 1)
    step = _cascade_step(gains, coupling, q_tilde_at_1, n, m, dt)
    y = np.concatenate([np.ravel(x_tilde0), np.ravel(e_v0)], dtype=float)
    n_rows = sample_row(n_steps, n_steps, sample_every) + 1
    times = np.empty(n_rows)
    e_trace = np.empty((n_rows, n, n_w))
    x_trace = np.empty((n_rows, n, m + 1))
    for k, y, _ in stepwise_run(step, y, np.zeros(0), n_steps):
        row = sample_row(k, n_steps, sample_every)
        if row is not None:
            times[row] = k * dt
            e_trace[row] = y[n_x:].reshape(n, n_w)
            x_trace[row] = y[:n_x].reshape(n, m + 1)
    return CascadeTrace(times=times, e_v=e_trace, x_tilde=x_trace)


def bfs_is_connected(topology: CommTopology, with_root_zero: bool) -> bool:
    """Reachability by breadth-first search over the directed edges, the oracle
    for ``comm_graph.is_connected``: adjacency[i, j] > 0 is an edge j -> i."""
    adj = topology.adjacency
    n = topology.n_agents

    def reach(seeds) -> set:
        seen = set(seeds)
        queue = list(seeds)
        while queue:
            j = queue.pop()
            for i in np.nonzero(adj[:, j] > 0)[0]:
                if i not in seen:
                    seen.add(int(i))
                    queue.append(int(i))
        return seen

    if with_root_zero:
        return len(reach([int(i) for i in np.nonzero(topology.leader_links > 0)[0]])) == n
    return any(len(reach([r])) == n for r in range(n))


def dense_neumann_bvp(a_mat, rhs, gamma0, gamma1, deltas=()):
    """Ghost-node reference for ``synthesis._neumann_bvp``: the dense Kronecker
    system of u'' - A u = r, u'(0) = gamma0, u'(1) = gamma1, point jumps of u'."""
    n = a_mat.shape[0]
    m = rhs.shape[1] - 1
    h = 1.0 / m
    load = rhs.T.copy()
    load[0] += 2.0 * gamma0 / h
    load[m] -= 2.0 * gamma1 / h
    for z_k, jump in deltas:
        j = min(int(z_k / h), m - 1)
        theta = z_k / h - j
        load[j] += jump * (1.0 - theta) / h
        load[j + 1] += jump * theta / h
    d2 = (np.diag(np.full(m, 1.0), -1) - 2.0 * np.eye(m + 1) + np.diag(np.full(m, 1.0), 1)) / h**2
    d2[0, 1] = d2[m, m - 1] = 2.0 / h**2
    system = np.kron(d2, np.eye(n)) - np.kron(np.eye(m + 1), a_mat)
    return np.linalg.solve(system, load.reshape(-1)).reshape(m + 1, n).T


def krylov_ratio(s: np.ndarray, decoupling) -> float:
    """Rank oracle for the decoupled pair (S, q~(1)): the smallest singular value of
    its Krylov matrix over an absolute scale.

    The scale has to be absolute, not the matrix itself: blocking a conjugate
    frequency pair shrinks q~(1) uniformly, leaving the matrix tiny but well
    conditioned.  It is max(sv_max, max(1, ||S||_2)^(n - 1) sup |q~|).
    """
    s = np.asarray(s, dtype=float)
    g = decoupling.q_tilde_at_1.reshape(-1, 1)
    n = s.shape[0]
    cols = [g]
    for _ in range(n - 1):
        cols.append(s @ cols[-1])
    sv = np.linalg.svd(np.hstack(cols), compute_uv=False)
    spread = max(1.0, float(np.linalg.norm(s, 2))) ** (n - 1)
    denom = max(sv[0], spread * float(np.abs(decoupling.q_tilde).max()))
    return sv[-1] / denom if denom > 0 else 0.0
