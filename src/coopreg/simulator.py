"""Closed-loop method-of-lines simulation of the networked parabolic agents.

Each agent is a 1-D reaction-diffusion system with Robin boundary conditions,
actuated at z = 1 and disturbed in-domain and at the boundaries.  The N agents
share one stacked (N, m + 1) state.  Diffusion and reaction advance by
Crank-Nicolson with ghost-node boundary closure, as one tridiagonal system
factored once per run and solved in midpoint form: A x_half = x + (dt/2) f,
then x+ = 2 x_half - x.  The internal models advance by a trapezoidal map
inverted once per run, and the exogenous signal state by its exact matrix
exponential.  The controller and internal-model coupling are held over each
step (first-order splitting).

The whole loop is linear, so ``ClosedLoopStep`` assembles it once per run.
The loop reads three scalars per agent from the profiles (output quadrature,
k_x . x + k_1 x(1) and the lumped xi = int r_x x) through one block-diagonal
read-out G; with z = [x G, v, w], one small matrix maps z to the next (v, w)
and one matrix F maps z to the half-step forcing (dt/2) f.  ``simulate`` and
the target cascade run on this step.
"""

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from scipy.linalg import expm
from scipy.linalg.lapack import dgttrf, dgttrs

from .backstepping import OutputOperator, TriangularKernel
from .comm_graph import CommTopology, laplacian
from .errors import GridMismatch, NumericalBlowup, SingularStep
from .grid import GridFunction, trapezoid_weights
from .signal_model import ExoModel
from .synthesis import MODE_LEADER, MODE_LEADERLESS, RegulatorGains


@dataclass(frozen=True)
class NominalPlant:
    """Known design model shared by all agents."""

    a: GridFunction
    q0: float
    q1: float
    output: OutputOperator


@dataclass(frozen=True)
class AgentSpec:
    """Truth-model data of one agent: uncertainties, disturbance wiring, IC.

    Uncertainty profiles perturb the nominal plant; the diffusion profile
    1 + delta_lambda must stay positive.  ``g1`` holds one in-domain input
    profile per disturbance channel, sampled as a (m + 1, m_i) table.
    """

    delta_lambda: GridFunction
    delta_a: GridFunction
    delta_q0: float = 0.0
    delta_q1: float = 0.0
    delta_c0: GridFunction | None = None
    delta_points: tuple = ()
    delta_cb0: float = 0.0
    delta_cb1: float = 0.0
    g1: np.ndarray | None = None
    g2: np.ndarray | None = None
    g3: np.ndarray | None = None
    g4: np.ndarray | None = None
    initial_profile: GridFunction | None = None

    def __post_init__(self):
        if np.any(1.0 + self.delta_lambda.values <= 0.0):
            raise ValueError("1 + delta_lambda must stay positive (parabolicity)")
        m_plus_1 = self.delta_lambda.values.size
        n_ch = 0 if self.g2 is None else np.asarray(self.g2).size
        g1 = np.zeros((m_plus_1, n_ch)) if self.g1 is None else np.asarray(self.g1, dtype=float)
        g1 = g1.reshape(m_plus_1, -1)
        object.__setattr__(self, "g1", g1)
        for name in ("g2", "g3", "g4"):
            vec = getattr(self, name)
            vec = np.zeros(g1.shape[1]) if vec is None else np.asarray(vec, dtype=float).reshape(-1)
            if vec.size != g1.shape[1]:
                raise ValueError(f"{name} must have one entry per disturbance channel")
            object.__setattr__(self, name, vec)

    @property
    def m(self) -> int:
        return self.delta_lambda.m

    @property
    def n_channels(self) -> int:
        return self.g1.shape[1]


@dataclass
class SimTrace:
    """Sampled closed-loop signals, columns aligned to ``times``."""

    times: np.ndarray
    reference: np.ndarray          # (n_s,)
    outputs: np.ndarray            # (n_s, N)
    inputs: np.ndarray             # (n_s, N)
    snapshots: dict = field(default_factory=dict)
    states_v: np.ndarray | None = None
    states_x: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def n_agents(self) -> int:
        return self.outputs.shape[1]

    @property
    def tracking_errors(self) -> np.ndarray:
        return self.outputs - self.reference[:, None]

    def pairwise_sync_errors(self) -> np.ndarray:
        """max_{i,j} |y_i - y_j| per sample."""
        return self.outputs.max(axis=1) - self.outputs.min(axis=1)


@dataclass(frozen=True)
class ErrorMetrics:
    settling_time: float
    tail_error: float
    decay_rate: float


class StackedStepper:
    """Crank-Nicolson step and output map of N agents on stacked (N, m + 1) state.

    The spatial operator uses the true coefficients 1 + delta_lambda and
    a + delta_a directly in the stencil; boundary actuation and boundary
    disturbances enter through the second-order ghost-node closure.  The N
    tridiagonal systems are chained into one of size N (m + 1) with zero
    coupling between agents, factored once.  Each agent's disturbance wiring
    is composed with its read-out P_i (an (m_i, n_w) matrix), so forcing and
    output feedthrough are fixed maps of the signal state w.  Point samples
    of the output are folded into the weight matrix.
    """

    def __init__(self, plant: NominalPlant, agents, read_outs, dt: float):
        m = plant.a.m
        for i, (ag, p_i) in enumerate(zip(agents, read_outs, strict=True)):
            if ag.m != m:
                raise GridMismatch("plant and agent grids differ")
            if ag.n_channels != p_i.shape[0]:
                raise ValueError(
                    f"agent {i + 1} wires {ag.n_channels} disturbance channels but the "
                    f"signal model produces {p_i.shape[0]}"
                )
        h = 1.0 / m
        lam = 1.0 + np.stack([ag.delta_lambda.values for ag in agents])
        abar = plant.a.values + np.stack([ag.delta_a.values for ag in agents])
        q0b = plant.q0 + np.array([ag.delta_q0 for ag in agents])
        q1b = plant.q1 + np.array([ag.delta_q1 for ag in agents])

        # upper[:, m] and lower[:, 0] stay zero: no coupling between agents
        lower = np.zeros_like(lam)
        diag = np.zeros_like(lam)
        upper = np.zeros_like(lam)
        diag[:, 1:m] = -2.0 * lam[:, 1:m] / h**2 + abar[:, 1:m]
        lower[:, 1:m] = upper[:, 1:m] = lam[:, 1:m] / h**2
        diag[:, 0] = -2.0 * lam[:, 0] * (1.0 + h * q0b) / h**2 + abar[:, 0]
        upper[:, 0] = 2.0 * lam[:, 0] / h**2
        diag[:, m] = -2.0 * lam[:, m] * (1.0 - h * q1b) / h**2 + abar[:, m]
        lower[:, m] = 2.0 * lam[:, m] / h**2

        self.dt = dt
        half = 0.5 * dt
        *self.lu, info = dgttrf(
            -half * lower.ravel()[1:], 1.0 - half * diag.ravel(), -half * upper.ravel()[:-1]
        )
        if info != 0:
            raise SingularStep(f"Crank-Nicolson matrix is singular (pivot {info})")

        # forcing: interior disturbance profile plus boundary injections
        self.bc1_gain = 2.0 * lam[:, m] / h
        self.wiring = np.stack([ag.g1 @ p_i for ag, p_i in zip(agents, read_outs)])
        for i, (ag, p_i) in enumerate(zip(agents, read_outs)):
            self.wiring[i, 0] += -2.0 * lam[i, 0] / h * (ag.g2 @ p_i)
            self.wiring[i, -1] += self.bc1_gain[i] * (ag.g3 @ p_i)
        self.feedthrough = np.stack([ag.g4 @ p_i for ag, p_i in zip(agents, read_outs)])

        nominal = plant.output
        cb0, cb1 = nominal.boundary_weights
        self.weights = np.empty_like(lam)
        for i, ag in enumerate(agents):
            smooth = nominal.smooth_weight.values
            if ag.delta_c0 is not None:
                if ag.delta_c0.m != m:
                    raise GridMismatch("delta_c0 grid does not match the simulation grid")
                smooth = smooth + ag.delta_c0.values
            row = trapezoid_weights(m) * smooth
            row[0] += cb0 + ag.delta_cb0
            row[-1] += cb1 + ag.delta_cb1
            for k, (c_k, z_k) in enumerate(nominal.point_weights):
                c_k += ag.delta_points[k] if k < len(ag.delta_points) else 0.0
                j = min(int(z_k * m), m - 1)
                theta = z_k * m - j
                row[j] += c_k * (1.0 - theta)
                row[j + 1] += c_k * theta
            self.weights[i] = row

    def midpoint(self, x: np.ndarray, half_forcing: np.ndarray) -> np.ndarray:
        """Crank-Nicolson on flat state: A x_half = x + (dt/2) f, then x+ = 2 x_half - x."""
        out, _ = dgttrs(*self.lu, x + half_forcing, overwrite_b=1)
        out *= 2.0
        out -= x
        return out


class TrapezoidStep:
    """Trapezoidal step of v' = S v + column * drive with the drive held over the step.

    The implicit half is inverted up front, so a step is one fixed n_w x n_w
    map plus a multiple of one fixed column.
    """

    def __init__(self, s: np.ndarray, column: np.ndarray, dt: float):
        n_w = s.shape[0]
        lhs = np.eye(n_w) - 0.5 * dt * s
        try:
            self.map = np.linalg.solve(lhs, np.eye(n_w) + 0.5 * dt * s)
            self.column = np.linalg.solve(lhs, dt * np.asarray(column, dtype=float))
        except np.linalg.LinAlgError as exc:
            raise SingularStep(f"trapezoidal step matrix is singular: {exc}") from exc

    def __call__(self, v: np.ndarray, drive: np.ndarray) -> np.ndarray:
        return v @ self.map.T + np.outer(drive, self.column)


class NetworkFeedback:
    """The three matrices of the networked state feedback and the internal-model drive.

    u_i = k_v . v_i - k_1 x_i(1) - int k_x x_i + sum_j a_ij (xi_i - xi_j)
          + a_i0 xi_i  with the lumped quantity xi_i = int r_x x_i, so only
    one scalar per agent crosses the network.  The internal models are driven
    by sum_j a_ij (y_i - y_j) + a_i0 (y_i - r); in leaderless mode the
    reference never enters.  ``read_out`` (m + 1, 2) takes
    c_i = k_x . x_i + k_1 x_i(1) and xi_i from a profile, ``law`` maps
    [c, xi, vec v] to u, and ``drive_map`` maps [y, r] to the drive.
    """

    def __init__(self, gains: RegulatorGains, topology: CommTopology, mode: str):
        graph = laplacian(topology)
        if mode == MODE_LEADER:
            coupling, leader_links = graph.leader_follower, topology.leader_links
        elif mode == MODE_LEADERLESS:
            coupling, leader_links = graph.laplacian, np.zeros(topology.n_agents)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        n = coupling.shape[0]
        weights = trapezoid_weights(gains.m)
        self.read_out = np.stack([weights * gains.k_x.values, weights * gains.r_x.values], axis=1)
        self.read_out[-1, 0] += gains.k_1
        self.law = np.hstack([-np.eye(n), coupling, np.kron(np.eye(n), gains.k_v)])
        self.drive_map = np.column_stack([coupling, -leader_links])


class ClosedLoopStep:
    """One step of a linear closed loop on flat profiles x and small state s = [vec v, w].

    z = [x G, s] holds all a step reads: the read-out G takes a few scalars
    per agent from the profiles.  The boundary inputs are u = U z and the
    internal-model drive is D z; from them one small matrix gives the next
    s (trapezoidal internal model, exact propagator of w) and one matrix F
    the half-step forcing (dt/2) f of the midpoint Crank-Nicolson solve.
    """

    def __init__(self, stepper: StackedStepper, read_out, inputs, internal_model: TrapezoidStep,
                 drive, propagator):
        n, n_nodes = stepper.weights.shape
        n_v = n * internal_model.column.size
        v_cols = slice(read_out.shape[1], read_out.shape[1] + n_v)
        self.stepper, self.read_out = stepper, read_out
        self.small_map = np.zeros((n_v + propagator.shape[0], v_cols.stop + propagator.shape[0]))
        self.small_map[:n_v, v_cols] = np.kron(np.eye(n), internal_model.map)
        self.small_map[:n_v] += np.kron(drive, internal_model.column[:, None])
        self.small_map[n_v:, v_cols.stop :] = propagator
        half = 0.5 * stepper.dt
        forcing = np.zeros((n, n_nodes, self.small_map.shape[1]))
        forcing[:, :, v_cols.stop :] = half * stepper.wiring
        forcing[:, -1] += half * stepper.bc1_gain[:, None] * inputs
        self.forcing = forcing.reshape(n * n_nodes, -1)

    def read(self, x: np.ndarray, s: np.ndarray) -> np.ndarray:
        return np.concatenate([x @ self.read_out, s])

    def __call__(self, x: np.ndarray, z: np.ndarray):
        """(x+, s+) from the flat profiles x and their read z = read(x, s)."""
        return self.stepper.midpoint(x, self.forcing @ z), self.small_map @ z


@dataclass
class CascadeTrace:
    """Trace of the decoupled target dynamics, for cross-validation."""

    times: np.ndarray
    e_v: np.ndarray        # (n_s, N, n_w)
    x_tilde: np.ndarray    # (n_s, N, m + 1)


def simulate(
    scenario_objects,
    gains: RegulatorGains,
    *,
    record_state: bool = False,
    certified: bool | None = None,
) -> SimTrace:
    """Run the networked closed loop and record the requested signals.

    ``scenario_objects`` bundles the resolved plant, agents, topology, signal
    model, numerics and sampling (see ``Scenario.resolve``); passing gains
    whose certificate failed is allowed but recorded in the trace metadata.
    """
    agents = scenario_objects.agents
    exo: ExoModel = scenario_objects.exo
    mode = scenario_objects.mode
    dt = scenario_objects.dt
    m = scenario_objects.m
    n_steps = scenario_objects.n_steps
    stride = scenario_objects.sample_every
    blowup = scenario_objects.blowup_bound

    if gains.m != m:
        raise GridMismatch(f"gain grid {gains.m} vs scenario grid {m}")
    n = len(agents)
    n_w = gains.n_w
    n_v = n * n_w
    stepper = StackedStepper(scenario_objects.plant, agents, exo.read_outs, dt)
    feedback = NetworkFeedback(gains, scenario_objects.topology, mode)
    # z = [q, c, xi, vec v, w]: q_i the output quadrature of agent i, c_i and
    # xi_i the read-outs of the feedback law
    basis = np.eye(3 * n + n_v + exo.n_w)
    w_part = basis[3 * n + n_v :]
    y_map = basis[:n] + stepper.feedthrough @ w_part
    r_map = exo.p @ w_part
    u_map = feedback.law @ basis[n : 3 * n + n_v]
    read_out = np.zeros((n, m + 1, 3, n))
    for i in range(n):
        read_out[i, :, 0, i] = stepper.weights[i]
        read_out[i, :, 1:, i] = feedback.read_out
    step = ClosedLoopStep(
        stepper,
        read_out.reshape(n * (m + 1), 3 * n),
        u_map,
        TrapezoidStep(gains.S, gains.b_y, dt),
        feedback.drive_map @ np.vstack([y_map, r_map]),
        expm(exo.S * dt),
    )
    signals = np.vstack([y_map, u_map, r_map])

    x = np.concatenate([
        np.zeros(m + 1) if ag.initial_profile is None else ag.initial_profile.values
        for ag in agents
    ])
    s = np.concatenate([np.reshape(scenario_objects.v0, n_v), scenario_objects.w0], dtype=float)

    sample_idx = [k for k in range(n_steps + 1) if k % stride == 0 or k == n_steps]
    n_s = len(sample_idx)
    times = np.empty(n_s)
    sampled = np.empty((n_s, 2 * n + 1))   # y, u, r
    v_tr = np.empty((n_s, n, n_w)) if record_state else None
    x_tr = np.empty((n_s, n, m + 1)) if record_state else None
    snapshots = {}
    snap_steps = {
        int(round(t_s / dt)): t_s for t_s in scenario_objects.snapshot_times
    }

    peak_state, peak_time = max(np.abs(x).max(), np.abs(s[:n_v]).max()), 0.0
    pos = 0
    started = perf_counter()
    for k in range(n_steps + 1):
        t = k * dt
        z = step.read(x, s)
        if k == sample_idx[pos]:
            times[pos] = t
            sampled[pos] = signals @ z
            if record_state:
                v_tr[pos] = s[:n_v].reshape(n, n_w)
                x_tr[pos] = x.reshape(n, m + 1)
            pos += 1
        if k in snap_steps:
            snapshots[snap_steps[k]] = x.reshape(n, m + 1).copy()
        if k == n_steps:
            break

        x, s = step(x, z)

        peak = max(np.abs(x).max(), np.abs(s[:n_v]).max())
        if not np.isfinite(peak) or peak > blowup:
            raise NumericalBlowup(
                f"state norm {peak:.3e} exceeded {blowup:.1e} at t = {t + dt:.6g}",
                time=t + dt,
            )
        if peak > peak_state:
            peak_state, peak_time = peak, t + dt
    elapsed = perf_counter() - started

    return SimTrace(
        times=times,
        reference=sampled[:, -1],
        outputs=sampled[:, :n],
        inputs=sampled[:, n:-1],
        snapshots=snapshots,
        states_v=v_tr,
        states_x=x_tr,
        metadata={
            "mode": mode,
            "dt": dt,
            "grid_points": m,
            "certified": bool(certified) if certified is not None else None,
            "steps_per_s": n_steps / elapsed,
            "peak_state": float(peak_state),
            "peak_ratio": float(peak_state) / blowup,
            "peak_time": peak_time,
        },
    )


def simulate_target_cascade(
    gains: RegulatorGains,
    coupling: np.ndarray,
    q_tilde_at_1: np.ndarray,
    e_v0: np.ndarray,
    x_tilde0: np.ndarray,
    dt: float,
    n_steps: int,
    sample_every: int = 1,
) -> CascadeTrace:
    """Simulate the decoupled target dynamics directly.

    The agents become independent heat equations with decay mu_c, driven at
    z = 1 by the internal-model deviations, whose block dynamics mirror the
    closed-loop matrix.  Stepping mirrors the full simulator: trapezoidal on
    the linear parts, coupling held per step, so both traces are comparable
    at matching resolution.
    """
    e_v = np.array(e_v0, dtype=float)
    x_t = np.array(x_tilde0, dtype=float)
    n, n_w = e_v.shape
    m = x_t.shape[1] - 1

    zero = GridFunction.constant(0.0, m)
    heat = NominalPlant(
        a=GridFunction.constant(-gains.mu_c, m), q0=0.0, q1=0.0, output=OutputOperator(zero)
    )
    agent = AgentSpec(delta_lambda=zero, delta_a=zero)
    stepper = StackedStepper(heat, [agent] * n, [np.zeros((0, 0))] * n, dt)
    # the profiles enter nothing but their own step: an empty read-out
    boundary = np.kron(np.eye(n), gains.k_v)
    step = ClosedLoopStep(
        stepper,
        np.zeros((n * (m + 1), 0)),
        boundary,
        TrapezoidStep(gains.S, q_tilde_at_1, dt),
        -(coupling @ boundary),
        np.zeros((0, 0)),
    )
    x, s = x_t.ravel(), e_v.ravel()

    sample_idx = [k for k in range(n_steps + 1) if k % sample_every == 0 or k == n_steps]
    times = np.empty(len(sample_idx))
    e_trace = np.empty((len(sample_idx), n, n_w))
    x_trace = np.empty((len(sample_idx), n, m + 1))

    pos = 0
    for k in range(n_steps + 1):
        if k == sample_idx[pos]:
            times[pos] = k * dt
            e_trace[pos] = s.reshape(n, n_w)
            x_trace[pos] = x.reshape(n, m + 1)
            pos += 1
        if k == n_steps:
            break
        x, s = step(x, step.read(x, s))
    return CascadeTrace(times=times, e_v=e_trace, x_tilde=x_trace)


def transform_state_trace(
    trace: SimTrace,
    kernel: TriangularKernel,
    q_tilde: np.ndarray,
    coupling: np.ndarray,
):
    """Push a recorded original-coordinates trace through the two transforms.

    Returns (e_v, x_tilde) sample arrays shaped like a CascadeTrace, using
    the forward kernel transform and the decoupling quadrature.
    """
    if trace.states_x is None or trace.states_v is None:
        raise ValueError("trace was recorded without full states")
    m = kernel.m
    op = np.eye(m + 1) - kernel.integral_operator()
    w_q = q_tilde * trapezoid_weights(m)[None, :]   # (n_w, m+1) quadrature rows
    x_tilde = np.einsum("ab,snb->sna", op, trace.states_x)
    proj = np.einsum("wb,snb->snw", w_q, x_tilde)
    e_v = trace.states_v - np.einsum("ij,sjw->siw", coupling, proj)
    return e_v, x_tilde


def error_metrics(trace: SimTrace, mode: str, settle_fraction: float = 0.05) -> ErrorMetrics:
    """Settling time, tail error and fitted decay rate of a trace.

    The error signal is the worst tracking error in leader-follower mode and
    the worst pairwise output difference otherwise.  The tail error is the
    sup over the last fifth of the horizon; the decay rate is a least-squares
    fit to the log of the error envelope above its terminal floor.
    """
    if trace.times.size == 0:
        raise ValueError("empty trace")
    if mode == MODE_LEADER:
        err = np.abs(trace.tracking_errors).max(axis=1)
    elif mode == MODE_LEADERLESS:
        err = trace.pairwise_sync_errors()
    else:
        raise ValueError(f"unknown mode {mode!r}")

    times = trace.times
    tail_start = times[0] + 0.8 * (times[-1] - times[0])
    tail = float(err[times >= tail_start].max())

    peak = float(err.max())
    if peak == 0.0:
        return ErrorMetrics(settling_time=0.0, tail_error=0.0, decay_rate=0.0)

    threshold = settle_fraction * peak
    suffix_max = np.maximum.accumulate(err[::-1])[::-1]
    below = np.nonzero(suffix_max <= threshold)[0]
    settling = float(times[below[0]]) if below.size else float(times[-1])

    envelope = suffix_max
    floor = max(envelope[-1], 1e-300)
    sel = envelope > 3.0 * floor
    if np.count_nonzero(sel) >= 3:
        slope = np.polyfit(times[sel], np.log(envelope[sel]), 1)[0]
        rate = -float(slope)
    else:
        rate = 0.0
    return ErrorMetrics(settling_time=settling, tail_error=tail, decay_rate=rate)
