"""Closed-loop method-of-lines simulation of the networked parabolic agents.

Each agent is a 1-D reaction-diffusion system with Robin boundary conditions,
actuated at z = 1 and disturbed in-domain and at the boundaries.  The N agents
share one stacked (N, m + 1) state, discretised by a ghost-node stencil.

The whole loop is linear, so ``ClosedLoopStep`` assembles it once per run and
advances profiles and internal models together by one Crank-Nicolson step,
second order in dt; the signal state advances by its exact matrix exponential.
The loop reads three scalars per agent from the profiles: the output, by the
row ``OutputOperator.row()`` of the agent's perturbed operator, k_x . x +
k_1 x(1) and the lumped xi = int r_x x.  Both callers describe their loop
in continuous time: ``simulate`` the true agents' stencil, wiring, networked
feedback and signal matrix; the target cascade a heat equation with decay
mu_c and no signal.  The step alone forms the matrices that depend on dt.
Diagonally scaled, the step's tridiagonal matrix is symmetric positive
definite for every dt below 2 / lambda_max(L).  It is solved by chunk inverses
and an interface correction, ``linalg.PartitionedSolve``, and the propagator
is ``linalg.expm``, so simulation runs on numpy alone.
"""

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .backstepping import OutputOperator, TriangularKernel
from .comm_graph import laplacian
from .errors import GridMismatch, NumericalBlowup, SchemaError, SingularStep, ToolkitError
from .grid import GridFunction, trapezoid_weights
from .linalg import PartitionedSolve, expm, largest_eigenvalue, positive_pivots
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
    tail_sync_error: float


def _stencil(lam, abar, q0, q1):
    """Diagonals of L and the gain 2 lam(1)/h of an input at z = 1.

    L is the ghost-node stencil of N agents chained with zero coupling, with
    the (N, m + 1) coefficients ``lam`` and ``abar`` and Robin data q0, q1.
    """
    m = lam.shape[1] - 1
    h = 1.0 / m
    # upper[:, m] and lower[:, 0] stay zero: no coupling between agents
    lower, diag, upper = np.zeros((3, *lam.shape))
    diag[:, 1:m] = -2.0 * lam[:, 1:m] / h**2 + abar[:, 1:m]
    lower[:, 1:m] = upper[:, 1:m] = lam[:, 1:m] / h**2
    diag[:, 0] = -2.0 * lam[:, 0] * (1.0 + h * q0) / h**2 + abar[:, 0]
    upper[:, 0] = 2.0 * lam[:, 0] / h**2
    diag[:, m] = -2.0 * lam[:, m] * (1.0 - h * q1) / h**2 + abar[:, m]
    lower[:, m] = 2.0 * lam[:, m] / h**2
    return (lower.ravel()[1:], diag.ravel(), upper.ravel()[:-1]), 2.0 * lam[:, m] / h


def _output_row(output: OutputOperator, agent: AgentSpec, m: int) -> np.ndarray:
    """Quadrature row of one agent's output: the nominal operator plus the agent's uncertainties."""
    delta_c0 = agent.delta_c0 or GridFunction.constant(0.0, m)
    if delta_c0.m != m:
        raise GridMismatch("delta_c0 grid does not match the simulation grid")
    deltas = (*agent.delta_points, *[0.0] * len(output.point_weights))
    (cb0, cb1), points = output.boundary_weights, output.point_weights
    try:  # a weight plus its uncertainty may overflow
        perturbed = OutputOperator(
            GridFunction(output.smooth_weight.values + delta_c0.values),
            tuple((c_k + d_k, z_k) for (c_k, z_k), d_k in zip(points, deltas)),
            (cb0 + agent.delta_cb0, cb1 + agent.delta_cb1),
        )
    except ValueError as exc:
        raise NumericalBlowup(f"agent output weight overflows: {exc}") from exc
    return perturbed.row()


def _not_definite(diag, off, dt: float) -> ToolkitError:
    """Why I - (dt/2) L has a pivot that is not positive, for the symmetric L
    of diagonals ``diag`` and ``off``: dt against 2 / lambda_max(L), or overflow."""
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        return NumericalBlowup("closed-loop step overflows: an assembled matrix is not finite")
    top = largest_eigenvalue(diag, off)
    if 0.5 * dt * top < 1.0:    # positive definite in exact arithmetic
        return SingularStep(
            f"Crank-Nicolson matrix lost definiteness to rounding at dt = {dt:g}: "
            "the stencil spans too many decades"
        )
    return SingularStep(
        f"Crank-Nicolson matrix is not positive definite: dt = {dt:g} must stay below "
        f"2 / lambda_max(L) = {2.0 / top:.6g}"
    )


class ClosedLoopStep:
    """One Crank-Nicolson step of a linear closed loop y' = L y + E z, w' = S_w w.

    y = [x, vec v] stacks the flat profiles and the internal models; z =
    [x G, v, w] is all the loop reads, G a read-out of a few scalars per agent.
    The caller describes the loop in continuous time: the three diagonals of
    L over x (``bands``; the v rows of L are zero), all rows of E, G and S_w.
    The step forms everything that depends on dt.  w advances by its exact
    propagator expm(S_w dt), by scaling and squaring, and enters at its
    midpoint (w + w+)/2.

    The off-diagonal pairs L[j, j-1], L[j-1, j] are positive inside an agent
    (parabolicity) and zero between agents.  So with D diagonal, d_j / d_j-1
    = sqrt(L[j, j-1] / L[j-1, j]) inside an agent and 1 elsewhere, D^-1 A D
    is a symmetric tridiagonal B for A = I - (dt/2) L (identity rows for v).
    B is positive definite exactly when dt < 2 / lambda_max(L); its LDL^T
    pivots decide, and SingularStep names that limit otherwise.  B / 2 is
    then inverted once as a ``PartitionedSolve``.  The step runs on D^-1 y,
    where the doubled midpoint is a rank-k update of u = 2 B^-1 D^-1 y (one
    solve): 2 y_h = u + P [u read, w], P = (dt/2) W (I - (dt/2) R W)^-1 F
    with W = B^-1 D^-1 E, R the read of z through D G and F = diag(I, I +
    propagator), as w enters as w + w+; then y+ = D (2 y_h - D^-1 y).  A W
    or I - (dt/2) R W that is not finite raises NumericalBlowup.
    """

    def __init__(self, bands, e, read_out, s_w, dt: float):
        lower, diag, upper = bands
        if ((lower > 0) != (upper > 0)).any() or (np.minimum(lower, upper) < 0).any():
            raise ValueError("L[j, j-1] and L[j-1, j] must be both positive or both zero")
        self.n_x = diag.size
        n_v = e.shape[0] - self.n_x
        n_read = read_out.shape[1] + n_v
        half = 0.5 * dt
        # d_j / d_j-1 from two roots, never sqrt(lower * upper), which overflows for
        # a stiff agent; the symmetric off-diagonal lower / ratio = sqrt(lower upper)
        # is then exactly lower wherever the ratio is 1
        ratio = np.divide(np.sqrt(lower), np.sqrt(upper), out=np.ones_like(lower), where=lower > 0)
        off = lower / ratio
        # d restarts at 1 in each agent, so stiff agents in a row cannot overflow it
        pieces = np.split(np.append(1.0, ratio), np.flatnonzero(lower == 0) + 1)
        self.scale = np.concatenate([*map(np.cumprod, pieces), np.ones(n_v)])
        b_diag = 1.0 - half * np.append(diag, np.zeros(n_v))
        b_off = -half * np.append(off, np.zeros(n_v))
        if not positive_pivots(b_diag, b_off):
            raise _not_definite(diag, off, dt)
        # the solve with B / 2 returns 2 B^-1 y, so y+ needs no doubling
        self._solve = PartitionedSolve(0.5 * b_diag, 0.5 * b_off).solve
        self.read_out, self.propagator = read_out, expm(s_w * dt)
        self.read_hat = read_out * self.scale[: self.n_x, None]
        w_hat = self._solve(e / (2.0 * self.scale[:, None]))
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
        # P column-major: P z per step is then a sum of contiguous columns
        self.p = np.matmul(w_hat, mix, out=np.empty(w_hat.shape, order="F"))

    def read(self, y: np.ndarray, w: np.ndarray) -> np.ndarray:
        """z = [x G, v, w] from y = [x, vec v]."""
        return np.concatenate([y[: self.n_x] @ self.read_out, y[self.n_x :], w])

    def run(self, y: np.ndarray, w: np.ndarray, n_steps: int):
        """Yield (k, y, w) after k = 0 .. n_steps steps from (y, w)."""
        yield 0, y, w
        y_hat = y / self.scale
        for k in range(1, n_steps + 1):
            twice = self._solve(y_hat)
            read = twice[: self.n_x] @ self.read_hat
            twice += self.p @ np.concatenate([read, twice[self.n_x :], w])
            twice -= y_hat
            y_hat, w = twice, self.propagator @ w
            yield k, self.scale * y_hat, w


def _sample_row(k: int, n_steps: int, every: int):
    """Trace row of step ``k``, or None: every ``every``-th step and the last are recorded."""
    return -(-k // every) if k % every == 0 or k == n_steps else None


@dataclass
class CascadeTrace:
    """Trace of the decoupled target dynamics, for cross-validation."""

    times: np.ndarray
    e_v: np.ndarray        # (n_s, N, n_w)
    x_tilde: np.ndarray    # (n_s, N, m + 1)


def simulate(scenario_objects, gains: RegulatorGains, *, record_state: bool = False) -> SimTrace:
    """Run the networked closed loop and record the requested signals.

    ``scenario_objects`` bundles the resolved plant, agents, topology, signal
    model, numerics and sampling (see ``Scenario.resolve``); gains that record
    another mode than the scenario's, or whose internal models do not fit v0,
    raise, and so do leader links in a leaderless scenario.  Without them
    H = L, so one assembly serves both modes.
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
    if gains.mode not in (None, mode):
        raise ToolkitError(f"gains designed for {gains.mode} mode run a {mode} scenario")
    if (v0_shape := np.shape(scenario_objects.v0)) != (len(agents), gains.n_w):
        raise ToolkitError(f"gains designed for {gains.n_w} signal states run a v0 of {v0_shape}")
    if mode not in (MODE_LEADER, MODE_LEADERLESS):
        raise ValueError(f"unknown mode {mode!r}")
    leader_links = scenario_objects.topology.leader_links
    if mode == MODE_LEADERLESS and leader_links.any():
        links = " ".join(f"{v:g}" for v in leader_links)
        raise SchemaError([f"[graph] leader_links = {links} must be zero if leaderless"])
    plant = scenario_objects.plant
    for i, (ag, p_i) in enumerate(zip(agents, exo.read_outs, strict=True)):
        if ag.m != plant.a.m:
            raise GridMismatch("plant and agent grids differ")
        if ag.n_channels != p_i.shape[0]:
            raise ValueError(
                f"agent {i + 1} wires {ag.n_channels} disturbance channels but the "
                f"signal model produces {p_i.shape[0]}"
            )
    n = len(agents)
    n_w = gains.n_w
    n_v = n * n_w
    h = 1.0 / m
    # the loop is assembled once; an overflowing entry is rejected when the step is built
    with np.errstate(all="ignore"):
        lam = 1.0 + np.stack([ag.delta_lambda.values for ag in agents])
        bands, bc1_gain = _stencil(
            lam, plant.a.values + np.stack([ag.delta_a.values for ag in agents]),
            plant.q0 + np.array([ag.delta_q0 for ag in agents]),
            plant.q1 + np.array([ag.delta_q1 for ag in agents]),
        )
        # u_i = k_v . v_i - k_1 x_i(1) - int k_x x_i + sum_j a_ij (xi_i - xi_j) + a_i0 xi_i
        # with xi_i = int r_x x_i, so one scalar per agent crosses the network; the
        # internal models are driven by sum_j a_ij (y_i - y_j) + a_i0 (y_i - r)
        coupling = laplacian(scenario_objects.topology).leader_follower
        weights = trapezoid_weights(m)
        law_read = np.stack([weights * gains.k_x.values, weights * gains.r_x.values], axis=1)
        law_read[-1, 0] += gains.k_1

        # z = [q, c, xi, vec v, w]: q_i the output quadrature of agent i, c_i =
        # k_x . x_i + k_1 x_i(1) and xi_i the read-outs of the feedback law
        basis = np.eye(3 * n + n_v + exo.n_w)
        w_part = basis[3 * n + n_v :]
        # each agent's disturbance wiring composed with its read-out P_i, so the
        # forcing and the output feedthrough are fixed maps of the signal state w
        feedthrough = np.stack([ag.g4 @ p_i for ag, p_i in zip(agents, exo.read_outs)])
        y_map = basis[:n] + feedthrough @ w_part
        r_map = exo.p @ w_part
        law = np.hstack([-np.eye(n), coupling, np.kron(np.eye(n), gains.k_v)])
        u_map = law @ basis[n : 3 * n + n_v]
        read_out = np.zeros((n, m + 1, 3, n))
        # E is filled in place: its x rows, agent by agent, then its v rows
        e = np.zeros((n * (m + 1) + n_v, basis.shape[0]))
        forcing, internal = e[: n * (m + 1)].reshape(n, m + 1, -1), e[n * (m + 1) :]
        for i, (ag, p_i) in enumerate(zip(agents, exo.read_outs)):
            read_out[i, :, 0, i] = _output_row(plant.output, ag, m)
            read_out[i, :, 1:, i] = law_read
            forcing[i, :, 3 * n + n_v :] = ag.g1 @ p_i
            forcing[i, 0, 3 * n + n_v :] -= 2.0 * lam[i, 0] / h * (ag.g2 @ p_i)
            forcing[i, m, 3 * n + n_v :] += bc1_gain[i] * (ag.g3 @ p_i)
        forcing[:, m] += bc1_gain[:, None] * u_map
        # the v rows of E: v_i' = S v_i + b_y times agent i's drive
        drive = np.column_stack([coupling, -leader_links]) @ np.vstack([y_map, r_map])
        internal[:] = np.kron(np.eye(n), gains.S) @ basis[3 * n : 3 * n + n_v]
        internal += np.kron(drive, gains.b_y[:, None])
        step = ClosedLoopStep(bands, e, read_out.reshape(n * (m + 1), 3 * n), exo.S, dt)
        del e, forcing, internal    # E and its views: the step keeps E only as W
        signals = np.vstack([y_map, u_map, r_map])

    x0 = [
        np.zeros(m + 1) if ag.initial_profile is None else ag.initial_profile.values
        for ag in agents
    ]
    y = np.concatenate([*x0, np.reshape(scenario_objects.v0, n_v)], dtype=float)
    w = np.array(scenario_objects.w0, dtype=float)

    n_rows = _sample_row(n_steps, n_steps, stride) + 1
    times = np.empty(n_rows)
    sampled = np.empty((n_rows, 2 * n + 1))   # y, u, r
    v_tr = np.empty((n_rows, n, n_w)) if record_state else None
    x_tr = np.empty((n_rows, n, m + 1)) if record_state else None
    snapshots = {}
    snap_steps = {int(round(t_s / dt)): t_s for t_s in scenario_objects.snapshot_times}

    n_x = n * (m + 1)
    peak_state, peak_time = np.abs(y).max(), 0.0
    started = perf_counter()
    for k, y, w in step.run(y, w, n_steps):
        if k:   # the initial state is not checked
            peak, t = np.abs(y).max(), (k - 1) * dt + dt
            if not np.isfinite(peak) or peak > blowup:
                raise NumericalBlowup(
                    f"state norm {peak:.3e} exceeded {blowup:.1e} at t = {t:.6g}", time=t
                )
            if peak > peak_state:
                peak_state, peak_time = peak, t
        row = _sample_row(k, n_steps, stride)
        if row is not None:
            times[row] = k * dt
            sampled[row] = signals @ step.read(y, w)
            if record_state:
                v_tr[row] = y[n_x:].reshape(n, n_w)
                x_tr[row] = y[:n_x].reshape(n, m + 1)
        if k in snap_steps:
            snapshots[snap_steps[k]] = y[:n_x].reshape(n, m + 1).copy()
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
    closed-loop matrix.  The cascade is stepped by the same Crank-Nicolson
    ``ClosedLoopStep`` as the full simulator, so both traces are comparable
    at matching resolution.
    """
    n, n_w = np.shape(e_v0)
    m = np.shape(x_tilde0)[1] - 1
    n_x = n * (m + 1)

    bands, bc1_gain = _stencil(np.ones((n, m + 1)), np.full((n, m + 1), -gains.mu_c), 0.0, 0.0)
    # the profiles enter nothing but their own step: an empty read-out and no w
    boundary = np.kron(np.eye(n), gains.k_v)
    forcing = np.zeros((n, m + 1, n * n_w))
    forcing[:, m] += bc1_gain[:, None] * boundary
    internal = np.kron(np.eye(n), gains.S)
    internal -= np.kron(coupling @ boundary, np.reshape(q_tilde_at_1, (-1, 1)))
    step = ClosedLoopStep(
        bands, np.vstack([forcing.reshape(n_x, -1), internal]), np.zeros((n_x, 0)),
        np.zeros((0, 0)), dt,
    )
    y = np.concatenate([np.ravel(x_tilde0), np.ravel(e_v0)], dtype=float)

    n_rows = _sample_row(n_steps, n_steps, sample_every) + 1
    times = np.empty(n_rows)
    e_trace = np.empty((n_rows, n, n_w))
    x_trace = np.empty((n_rows, n, m + 1))
    for k, y, _ in step.run(y, np.zeros(0), n_steps):
        row = _sample_row(k, n_steps, sample_every)
        if row is not None:
            times[row] = k * dt
            e_trace[row] = y[n_x:].reshape(n, n_w)
            x_trace[row] = y[:n_x].reshape(n, m + 1)
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
    x_tilde = trace.states_x @ op.T
    e_v = trace.states_v - coupling @ (x_tilde @ w_q.T)
    return e_v, x_tilde


def error_metrics(trace: SimTrace, mode: str) -> ErrorMetrics:
    """Settling time, tail error and fitted decay rate of a trace.

    The error signal is the worst tracking error in leader-follower mode and
    the worst pairwise output difference otherwise.  The settling time is the
    first time after which the error stays within 5% of its peak; the tail
    error, and the tail sync error of the pairwise difference in either mode,
    are sups over the last fifth of the horizon.  The decay rate is a
    least-squares fit to the log of the error envelope above its terminal floor.
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
    in_tail = times >= times[0] + 0.8 * (times[-1] - times[0])
    tail = float(err[in_tail].max())
    tail_sync = float(trace.pairwise_sync_errors()[in_tail].max())

    peak = float(err.max())
    if peak == 0.0:
        return ErrorMetrics(0.0, 0.0, 0.0, tail_sync)

    threshold = 0.05 * peak
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
    return ErrorMetrics(settling, tail, rate, tail_sync)
