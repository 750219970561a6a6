"""Closed-loop method-of-lines simulation of the networked parabolic agents.

Each agent is a 1-D reaction-diffusion system with Robin boundary conditions,
actuated at z = 1 and disturbed in-domain and at the boundaries.  The N agents
share one stacked (N, m + 1) state.  Diffusion and reaction advance by
Crank-Nicolson with ghost-node boundary closure, as one tridiagonal system
factored once per run; the internal models advance by a trapezoidal map
inverted once per run.  The controller and internal-model coupling are
evaluated once per step (first order splitting), and the exogenous signal
state advances by its exact matrix exponential.  Per step the order is:
outputs, controller, then the internal-model and PDE advances.  ``simulate``,
the target cascade and the one-step helpers all run on these same pieces.
"""

from dataclasses import dataclass, field

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
        self.rhs_upper = half * upper[:, :-1]
        self.rhs_diag = 1.0 + half * diag
        self.rhs_lower = half * lower[:, 1:]

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

    def outputs(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """True outputs of all agents: quadrature + point samples + boundary + feedthrough."""
        return np.einsum("ij,ij->i", self.weights, x) + self.feedthrough @ w

    def forcing(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        f = self.wiring @ w
        f[:, -1] += self.bc1_gain * u
        return f

    def step(self, x: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Advance every profile one step with the forcing held over the step."""
        rhs = self.rhs_diag * x
        rhs[:, :-1] += self.rhs_upper * x[:, 1:]
        rhs[:, 1:] += self.rhs_lower * x[:, :-1]
        rhs += self.dt * self.forcing(u, w)
        out, _ = dgttrs(*self.lu, rhs.ravel(), overwrite_b=1)
        return out.reshape(x.shape)


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
    """Boundary inputs under the networked state feedback, and the internal-model drive.

    u_i = k_v . v_i - k_1 x_i(1) - int k_x x_i + sum_j a_ij (xi_i - xi_j)
          + a_i0 xi_i  with the lumped quantity xi_i = int r_x x_i, so only
    one scalar per agent crosses the network.  The internal models are driven
    by sum_j a_ij (y_i - y_j) + a_i0 (y_i - r); in leaderless mode the
    reference never enters.
    """

    def __init__(self, gains: RegulatorGains, topology: CommTopology, mode: str):
        graph = laplacian(topology)
        if mode == MODE_LEADER:
            self.coupling, self.leader_links = graph.leader_follower, topology.leader_links
        elif mode == MODE_LEADERLESS:
            self.coupling, self.leader_links = graph.laplacian, np.zeros(topology.n_agents)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        self.k_v, self.k_1 = gains.k_v, gains.k_1
        self.w_kx = trapezoid_weights(gains.m) * gains.k_x.values
        self.w_rx = trapezoid_weights(gains.m) * gains.r_x.values

    def inputs(self, v: np.ndarray, x: np.ndarray) -> np.ndarray:
        xi = x @ self.w_rx
        return v @ self.k_v - self.k_1 * x[:, -1] - x @ self.w_kx + self.coupling @ xi

    def drive(self, y: np.ndarray, r: float) -> np.ndarray:
        return self.coupling @ y - self.leader_links * r


def _one_agent(agent: AgentSpec, profile, d):
    """Stacked (1, m + 1) state, and a signal state that is the disturbance d itself."""
    values = profile.values if isinstance(profile, GridFunction) else np.asarray(profile, dtype=float)
    d = np.zeros(agent.n_channels) if d is None else np.asarray(d, dtype=float)
    return values[None], d, [np.eye(agent.n_channels)]


def evaluate_output(
    agent: AgentSpec, nominal: OutputOperator, profile, d=None
) -> float:
    """True output of one agent: quadrature + point samples + boundary + g4 . d."""
    x, d, read_outs = _one_agent(agent, profile, d)
    # the output map does not depend on the reaction, the Robin data or the step
    zero = GridFunction.constant(0.0, x.shape[1] - 1)
    plant = NominalPlant(a=zero, q0=0.0, q1=0.0, output=nominal)
    return float(StackedStepper(plant, [agent], read_outs, 0.0).outputs(x, d)[0])


def pde_step(plant: NominalPlant, agent: AgentSpec, profile, u: float, d=None, dt: float = 1e-3):
    """One Crank-Nicolson step of a single agent; forcing held over the step."""
    x, d, read_outs = _one_agent(agent, profile, d)
    out = StackedStepper(plant, [agent], read_outs, dt).step(x, np.array([float(u)]), d)[0]
    return GridFunction(out) if isinstance(profile, GridFunction) else out


def controller_input(
    gains: RegulatorGains,
    topology: CommTopology,
    v: np.ndarray,
    x: np.ndarray,
    mode: str = MODE_LEADER,
) -> np.ndarray:
    """Boundary inputs of all agents under the networked state feedback."""
    x = np.asarray(x, dtype=float)
    if gains.m != x.shape[1] - 1:
        raise GridMismatch(f"gain grid {gains.m} vs state grid {x.shape[1] - 1}")
    return NetworkFeedback(gains, topology, mode).inputs(np.asarray(v, dtype=float), x)


def internal_model_step(
    gains: RegulatorGains,
    topology: CommTopology,
    v: np.ndarray,
    y: np.ndarray,
    r: float,
    dt: float,
    mode: str = MODE_LEADER,
) -> np.ndarray:
    """Advance every internal-model copy one step.

    The linear part v' = S v is trapezoidal (same family as the PDE stepper);
    the diffusive output coupling is held over the step.
    """
    drive = NetworkFeedback(gains, topology, mode).drive(np.asarray(y, dtype=float), r)
    return TrapezoidStep(gains.S, gains.b_y, dt)(np.asarray(v, dtype=float), drive)


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

    n = len(agents)
    n_w = gains.n_w
    stepper = StackedStepper(scenario_objects.plant, agents, exo.read_outs, dt)
    feedback = NetworkFeedback(gains, scenario_objects.topology, mode)
    internal_model = TrapezoidStep(gains.S, gains.b_y, dt)
    propagator = expm(exo.S * dt)

    x = np.stack(
        [
            np.zeros(m + 1) if ag.initial_profile is None else ag.initial_profile.values.copy()
            for ag in agents
        ]
    )
    v = np.array(scenario_objects.v0, dtype=float).reshape(n, n_w)
    w = np.array(scenario_objects.w0, dtype=float)

    sample_idx = [k for k in range(n_steps + 1) if k % stride == 0 or k == n_steps]
    n_s = len(sample_idx)
    times = np.empty(n_s)
    ref_tr = np.empty(n_s)
    y_tr = np.empty((n_s, n))
    u_tr = np.empty((n_s, n))
    v_tr = np.empty((n_s, n, n_w)) if record_state else None
    x_tr = np.empty((n_s, n, m + 1)) if record_state else None
    snapshots = {}
    snap_steps = {
        int(round(t_s / dt)): t_s for t_s in scenario_objects.snapshot_times
    }

    pos = 0
    for k in range(n_steps + 1):
        t = k * dt
        y = stepper.outputs(x, w)
        r = float(exo.p @ w)
        u = feedback.inputs(v, x)

        if k == sample_idx[pos]:
            times[pos] = t
            ref_tr[pos] = r
            y_tr[pos] = y
            u_tr[pos] = u
            if record_state:
                v_tr[pos] = v
                x_tr[pos] = x
            pos += 1
        if k in snap_steps:
            snapshots[snap_steps[k]] = x.copy()
        if k == n_steps:
            break

        v = internal_model(v, feedback.drive(y, r))
        x = stepper.step(x, u, w)
        w = propagator @ w

        peak = max(np.abs(x).max(), np.abs(v).max())
        if not np.isfinite(peak) or peak > blowup:
            raise NumericalBlowup(
                f"state norm {peak:.3e} exceeded {blowup:.1e} at t = {t + dt:.6g}",
                time=t + dt,
            )

    return SimTrace(
        times=times,
        reference=ref_tr,
        outputs=y_tr,
        inputs=u_tr,
        snapshots=snapshots,
        states_v=v_tr,
        states_x=x_tr,
        metadata={
            "mode": mode,
            "dt": dt,
            "grid_points": m,
            "certified": bool(certified) if certified is not None else None,
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
    target_model = TrapezoidStep(gains.S, q_tilde_at_1, dt)
    no_w = np.zeros(0)

    sample_idx = [k for k in range(n_steps + 1) if k % sample_every == 0 or k == n_steps]
    times = np.empty(len(sample_idx))
    e_trace = np.empty((len(sample_idx), n, n_w))
    x_trace = np.empty((len(sample_idx), n, m + 1))

    pos = 0
    for k in range(n_steps + 1):
        if k == sample_idx[pos]:
            times[pos] = k * dt
            e_trace[pos] = e_v
            x_trace[pos] = x_t
            pos += 1
        if k == n_steps:
            break
        boundary = e_v @ gains.k_v
        e_v = target_model(e_v, -(coupling @ boundary))
        x_t = stepper.step(x_t, boundary, no_w)
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
