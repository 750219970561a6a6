"""Closed-loop method-of-lines simulation of the networked parabolic agents.

Each agent is a 1-D reaction-diffusion system with Robin boundary conditions,
actuated at z = 1 and disturbed in-domain and at the boundaries.  The N agents
share one stacked (N, m + 1) state, discretised by a ghost-node stencil.

The whole loop is linear, so ``ClosedLoopStep`` assembles it once per run and
advances profiles and internal models together by one Crank-Nicolson step,
second order in dt; the signal state advances by its exact matrix exponential.
The loop reads three scalars per agent from the profiles: the output, by the
row ``OutputOperator.row()`` of the agent's perturbed operator, k_x . x +
k_1 x(1) and the lumped xi = int r_x x.  ``simulate`` describes the loop in
continuous time, and the step alone forms the matrices that depend on dt.
The step's tridiagonal matrix is similar, by a diagonal scaling, to one that
is symmetric positive definite for every dt below 2 / lambda_max(L).  It is
solved unscaled by chunk inverses and an interface correction,
``linalg.PartitionedSolve``, and the propagator is ``linalg.expm``, so
simulation runs on numpy alone.

The step keeps each state as one row of the solve's padded chunk layout for
a whole run, the read-out and the signal state in identity rows after the
profiles and internal models, so a step is nine numpy calls that allocate
nothing.  It hands its states over in blocks of at most ``BLOCK_BYTES`` (128
KiB, K + 1 padded states: K = 18 at m = 200 and 4 at m = 800); ``simulate``
checks, samples and snapshots a block at once, and the blow-up check still
names the first step past the bound.  The target cascade has constant
coefficients and is advanced apart, in cosine modes.
"""

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .backstepping import OutputOperator, TriangularKernel
from .comm_graph import laplacian
from .errors import (GridMismatch, NumericalBlowup, SchemaError, SingularStep, ToolkitError,
                     violations)
from .grid import GridFunction, trapezoid_weights
from .linalg import PartitionedSolve, expm, largest_eigenvalue, positive_pivots
from .signal_model import ExoModel
from .synthesis import MODE_LEADER, MODE_LEADERLESS, RegulatorGains

# bytes of a run's block buffer, K stepped states and the one entering the block:
# a larger block gains no speed and moves the process's peak resident memory
BLOCK_BYTES = 128 * 1024


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


def _not_definite(diag, off, dt: float, top: float | None = None) -> ToolkitError:
    """Why I - (dt/2) L has a pivot that is not positive, for the symmetric L of diagonals
    ``diag``, ``off`` and largest eigenvalue ``top`` (else bisected): dt against 2 / top, or overflow."""
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        return NumericalBlowup("closed-loop step overflows: an assembled matrix is not finite")
    top = largest_eigenvalue(diag, off) if top is None else top
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
    (parabolicity) and zero between agents, so A = I - (dt/2) L (identity
    rows for v) is similar, by a diagonal scaling, to a symmetric tridiagonal
    B.  B is positive definite exactly when dt < 2 / lambda_max(L); its LDL^T
    pivots decide, and SingularStep names that limit otherwise.  A / 2 is then
    inverted once as a ``PartitionedSolve``.  The doubled midpoint is a rank-k
    update of u = 2 A^-1 y (one solve): 2 y_h = u + P [u read, w], P = (dt/2)
    W (I - (dt/2) R W)^-1 F with W = A^-1 E, R the read of z and F = diag(I,
    I + propagator), as w enters as w + w+; then y+ = 2 y_h - y.  A W, R~ (below)
    or I - (dt/2) R W that is not finite raises NumericalBlowup.

    ``run`` keeps each state as a row [x, v, r, w] of the solve's padded (p, s)
    chunk layout, r one slot per read scalar.  Every row past x is an identity
    row of A, so the solve returns it doubled.  Before the solve, r takes the
    read of u, R~^T x with R~ = 2 A^-T G; after it, one product with P' (P on
    the rows of x and v, its columns in the row order [v, r, w] with those of r
    and w halved; (propagator - I) / 2 on the rows of w; zero elsewhere), an
    addition and a subtraction of the entering row leave [x+, v+, the read,
    propagator w].  It steps K = ``block_steps`` states into one buffer of
    K + 1 rows, the state entering the block first, at most ``BLOCK_BYTES``;
    each step is nine numpy calls that write into arrays allocated once per run.
    """

    def __init__(self, bands, e, read_out, s_w, dt: float):
        lower, diag, upper = bands
        if ((lower > 0) != (upper > 0)).any() or (np.minimum(lower, upper) < 0).any():
            raise ValueError("L[j, j-1] and L[j-1, j] must be both positive or both zero")
        self.n_x = n_x = diag.size
        (n, n_z), n_r, n_w = e.shape, read_out.shape[1], s_w.shape[0]
        n_v = n - n_x
        half = 0.5 * dt
        # B's off-diagonal sqrt(lower upper) as lower / sqrt(lower / upper), from two
        # roots: never the root of lower * upper, which overflows for a stiff agent,
        # and exactly lower wherever the two are equal
        ratio = np.divide(np.sqrt(lower), np.sqrt(upper), out=np.ones_like(lower), where=lower > 0)
        off = lower / ratio
        if not positive_pivots(1.0 - half * diag, -half * off):
            raise _not_definite(diag, off, dt)
        # the solve with A / 2 returns 2 A^-1 y on the rows [x, v, r, w], so y+ needs no doubling
        self._solver = PartitionedSolve(
            np.append(0.5 * (1.0 - half * diag), np.full(n_z, 0.5)),
            -0.5 * half * lower, -0.5 * half * upper,
        )
        self.read_out, propagator = read_out, expm(s_w * dt)
        self.read_u = np.ascontiguousarray(self._solver.solve(read_out, transpose=True)[:n_x].T)
        twice_w = self._solver.solve(e)     # 2 W, zero past the rows of y
        coupled = np.eye(n_z)
        coupled[: n_r + n_v] -= 0.5 * half * np.vstack([read_out.T @ twice_w[:n_x], twice_w[n_x:n]])
        if not all(np.isfinite(a).all() for a in (twice_w, self.read_u, coupled)):
            raise NumericalBlowup("closed-loop step overflows: an assembled matrix is not finite")
        # F with its columns in the row order [v, r, w], those of r and w halved
        fold = np.eye(n_z)
        fold[n_r + n_v :, n_r + n_v :] += propagator
        order = np.r_[n_r : n_r + n_v, :n_r, n_r + n_v : n_z]
        fold = fold[:, order] * np.repeat([0.5 * half, 0.25 * half], [n_v, n_r + n_w])
        try:
            mix = np.linalg.solve(coupled, fold)
        except np.linalg.LinAlgError as exc:
            raise SingularStep(f"Crank-Nicolson coupling matrix is singular: {exc}") from exc
        # P' in the padded rows of the solve, column-major: P' times the rows
        # [v, r, w] per step is then a sum of contiguous columns
        p, s = self._solver.shape
        rows = p * s
        self.p = np.zeros((rows, n_z), order="F")
        np.matmul(twice_w[:n], mix, out=self.p[:n])
        self.p[n_x + n_z - n_w : n_x + n_z, n_z - n_w :] = 0.5 * (propagator - np.eye(n_w))
        self.block_steps = max(1, BLOCK_BYTES // (8 * rows) - 1)

    def read(self, y: np.ndarray, w: np.ndarray) -> np.ndarray:
        """z = [x G, v, w] from y = [x, vec v]."""
        return np.concatenate([y[: self.n_x] @ self.read_out, y[self.n_x :], w])

    def run(self, y: np.ndarray, w: np.ndarray, n_steps: int):
        """Yield blocks (k0, ys, ws) of the n_steps steps from (y, w): y and w
        after steps k0 + 1 .. k0 + len(ys), one row per step.  They are views
        of the run's buffer, valid until the next block is stepped."""
        (rows, n_z), n_x, n = self.p.shape, self.n_x, y.size
        end = n_x + n_z
        count = min(self.block_steps, max(n_steps, 1))
        states = np.zeros((count + 1, rows))
        chunked = states.reshape(count + 1, *self._solver.shape, 1)
        pz, work = np.empty(rows), np.empty(chunked.shape[1:])
        solve, p, read_u = self._solver.solver(), self.p, self.read_u
        steps = [
            (states[j, :n_x], states[j, n : end - w.size], chunked[j], chunked[j + 1],
             states[j + 1, n_x:end], states[j + 1], states[j])
            for j in range(count)
        ]
        states[0, :n], states[0, end - w.size : end] = y, w
        for k0 in range(0, n_steps, count):
            block = steps[: n_steps - k0]
            for x, read, y_now, twice, twice_z, twice_flat, y_flat in block:
                np.dot(read_u, x, out=read)
                solve(y_now, twice, work)
                np.dot(p, twice_z, out=pz)
                np.add(twice_flat, pz, out=twice_flat)     # the doubled midpoint 2 y_h
                np.subtract(twice_flat, y_flat, out=twice_flat)
            k = len(block)
            states[0] = states[k]
            yield k0, states[1 : k + 1, :n], states[1 : k + 1, end - w.size : end]


def _sample_rows(k0: int, count: int, n_steps: int, every: int):
    """(i, row) of the steps k0 + 1 + i of a block of ``count`` that the trace
    records in ``row``: every ``every``-th step and the last."""
    first = -(-(k0 + 1) // every) * every
    rows = [(k - k0 - 1, k // every) for k in range(first, k0 + count + 1, every)]
    if k0 + count == n_steps and n_steps % every:
        rows.append((count - 1, n_steps // every + 1))
    return rows


@dataclass
class CascadeTrace:
    """Trace of the decoupled target dynamics, for cross-validation."""

    times: np.ndarray
    e_v: np.ndarray        # (n_s, N, n_w)
    x_tilde: np.ndarray    # (n_s, N, m + 1)


def _closed_loop(scenario_objects, gains: RegulatorGains):
    """The step of the networked closed loop, the map from its read-out z to
    the sampled signals [y, u, r], and the initial (y, w)."""
    agents = scenario_objects.agents
    exo: ExoModel = scenario_objects.exo
    mode = scenario_objects.mode
    dt = scenario_objects.dt
    m = scenario_objects.m

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
    return step, signals, y, np.array(scenario_objects.w0, dtype=float)


def simulate(scenario_objects, gains: RegulatorGains, *, record_state: bool = False) -> SimTrace:
    """Run the networked closed loop and record the requested signals.

    ``scenario_objects`` bundles the resolved plant, agents, topology, signal
    model, numerics and sampling (see ``Scenario.resolve``); gains that record
    another mode than the scenario's, or whose internal models do not fit v0,
    raise, and so do leader links in a leaderless scenario.  Without them
    H = L, so one assembly serves both modes.  Each block of steps is checked
    against the blow-up bound at once; the first step past it raises.
    """
    step, signals, y, w = _closed_loop(scenario_objects, gains)
    dt, m = scenario_objects.dt, scenario_objects.m
    n_steps, stride = scenario_objects.n_steps, scenario_objects.sample_every
    blowup = scenario_objects.blowup_bound
    n, n_w = len(scenario_objects.agents), gains.n_w
    n_x = n * (m + 1)

    n_rows = -(-n_steps // stride) + 1
    times = np.empty(n_rows)
    sampled = np.empty((n_rows, 2 * n + 1))   # y, u, r
    v_tr = np.empty((n_rows, n, n_w)) if record_state else None
    x_tr = np.empty((n_rows, n, m + 1)) if record_state else None
    snapshots = {}
    snap_steps = sorted({int(round(t_s / dt)): t_s for t_s in scenario_objects.snapshot_times}.items())

    def record(k, row, y, w):
        times[row] = k * dt
        sampled[row] = signals @ step.read(y, w)
        if record_state:
            v_tr[row] = y[n_x:].reshape(n, n_w)
            x_tr[row] = y[:n_x].reshape(n, m + 1)

    def snap(k0, ys):
        for k, t_s in snap_steps:
            if k0 <= k < k0 + len(ys):
                snapshots[t_s] = ys[k - k0, :n_x].reshape(n, m + 1).copy()

    record(0, 0, y, w)
    snap(0, y[None])
    peak_state, peak_time = np.abs(y).max(), 0.0    # the initial state is not checked
    started = perf_counter()
    # a block may step past a blow-up into overflow; those steps are never read
    with np.errstate(all="ignore"):
        for k0, ys, ws in step.run(y, w, n_steps):
            peaks = np.abs(ys).max(axis=1)
            failed = np.flatnonzero(~np.isfinite(peaks) | (peaks > blowup))
            if failed.size:
                first = int(failed[0])
                peak, t = peaks[first], (k0 + first) * dt + dt
                raise NumericalBlowup(
                    f"state norm {peak:.3e} exceeded {blowup:.1e} at t = {t:.6g}", time=t
                )
            top = int(peaks.argmax())
            if peaks[top] > peak_state:
                peak_state, peak_time = peaks[top], (k0 + top) * dt + dt
            for i, row in _sample_rows(k0, len(ys), n_steps, stride):
                record(k0 + i + 1, row, ys[i], ws[i])
            snap(k0 + 1, ys)
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
    gains: RegulatorGains, coupling: np.ndarray, q_tilde_at_1: np.ndarray, e_v0: np.ndarray,
    x_tilde0: np.ndarray, dt: float, n_steps: int, sample_every: int = 1,
) -> CascadeTrace:
    """Simulate the decoupled target dynamics directly.

    The agents become independent heat equations with decay mu_c, driven at
    z = 1 by k_v . e_v of their internal-model deviations, which evolve alone:
    e_v' = A_e e_v, A_e = I (x) S - (coupling (I (x) k_v)) (x) q~(1).  The trace
    is the Crank-Nicolson trajectory of the cascade on the ghost-node stencil,
    advanced exactly in the cosine modes (the DCT-I of ``synthesis._neumann_bvp``)
    that diagonalise the stencil: mode k has eigenvalue lambda_k = -(2m sin(k pi
    / 2m))^2 - mu_c, step factor r_k and boundary gain g_k.  Over s steps e_v <-
    Phi^s e_v and X <- r^s X + M_s e_v, with Phi the step of A_e and M_s = sum_i
    r^(s-1-i) g (x) (I (x) k_v)(I + Phi) Phi^i; x~ is formed at sampled rows alone.
    """
    n, n_w, m = len(np.atleast_1d(e_v0)), gains.n_w, max(np.shape(x_tilde0)[-1:] + (2,)) - 1
    bad = violations([("dt", dt)], [("n_steps", n_steps), ("sample_every", sample_every)])
    bad += [f"{key} has shape {np.shape(value)}, not {shape}" for key, value, shape in (
        ("coupling", coupling, (n, n)), ("q_tilde_at_1", q_tilde_at_1, (n_w,)),
        ("e_v0", e_v0, (n, n_w)), ("x_tilde0", x_tilde0, (n, m + 1))) if np.shape(value) != shape]
    if bad:
        raise SchemaError(bad)
    half, eye, boundary = 0.5 * dt, np.eye(n * n_w), np.kron(np.eye(n), gains.k_v)
    with np.errstate(all="ignore"):     # an overflowing entry is rejected below
        lam = -(2.0 * m * np.sin(np.arange(m + 1) * np.pi / (2 * m))) ** 2 - gains.mu_c
        if not 1.0 - half * lam[0] > 0.0:     # lambda_0 = -mu_c is the largest
            raise _not_definite(lam, np.zeros(m), dt, top=lam[0])
        implicit = 1.0 - half * lam
        r, g = (1.0 + half * lam) / implicit, dt * m * (-1.0) ** np.arange(m + 1) / implicit
        a_e = np.kron(np.eye(n), gains.S) - np.kron(coupling @ boundary, np.reshape(q_tilde_at_1, (-1, 1)))
        try:
            phi = np.linalg.solve(eye - half * a_e, eye + half * a_e)
        except np.linalg.LinAlgError as exc:
            raise SingularStep(f"Crank-Nicolson coupling matrix is singular: {exc}") from exc
        if not (np.isfinite(phi).all() and np.isfinite(r * g).all()):    # |r| <= 1
            raise NumericalBlowup("closed-loop step overflows: an assembled matrix is not finite")

    # the rows are every sample_every-th step and the last, so whole intervals of s
    # steps: (Phi^s, r^s, M_s) for each s, M_s by Horner's rule as (n (m + 1), n n_w)
    full, rest = divmod(n_steps, sample_every)
    lengths = [sample_every] * full + ([rest] if rest else [])
    power, m_s, maps, drive = eye, np.zeros((n, m + 1, n * n_w)), {}, boundary @ (eye + phi)
    for s in range(1, max(lengths) + 1):
        m_s = r[:, None] * m_s + g[:, None] * (drive @ power)[:, None]
        power = phi @ power
        if s in (sample_every, rest):
            maps[s] = power, r**s, m_s.reshape(n * (m + 1), -1)
    e_trace, x_trace = np.empty((len(lengths) + 1, n, n_w)), np.empty((len(lengths) + 1, n, m + 1))
    e_trace[0], x_trace[0] = e_v0, x_tilde0
    e, x = e_trace[0].ravel(), np.fft.rfft(np.concatenate([x_trace[0], x_trace[0, :, -2:0:-1]], 1)).real
    for row, (phi_s, r_s, m_s) in enumerate((maps[s] for s in lengths), 1):
        x, e = r_s * x + (m_s @ e).reshape(n, m + 1), phi_s @ e
        e_trace[row], x_trace[row] = e.reshape(n, n_w), x
    chunk = max(1, BLOCK_BYTES // (2 * x_trace[0].nbytes))  # irfft's input and output: 2x the rows
    for first in range(1, len(x_trace), chunk):
        x_trace[first : first + chunk] = np.fft.irfft(x_trace[first : first + chunk], 2 * m)[..., : m + 1]
    return CascadeTrace(times=np.cumsum([0, *lengths]) * dt, e_v=e_trace, x_tilde=x_trace)


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

    envelope = np.maximum.accumulate(err[::-1])[::-1]     # the suffix max
    below = np.nonzero(envelope <= 0.05 * peak)[0]
    settling = float(times[below[0]]) if below.size else float(times[-1])

    sel = envelope > 3.0 * max(envelope[-1], 1e-300)      # above the terminal floor
    if np.count_nonzero(sel) < 3:
        return ErrorMetrics(settling, tail, 0.0, tail_sync)
    slope = np.polyfit(times[sel], np.log(envelope[sel]), 1)[0]
    return ErrorMetrics(settling, tail, -float(slope), tail_sync)
