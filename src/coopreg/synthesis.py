"""Feedback-gain synthesis and closed-loop eigenvalues.

Pipeline:  solved kernel -> decoupling boundary-value problem -> nonblocking
test on the transfer numerator of its boundary value q~(1) -> algebraic
Riccati solve -> gain assembly -> closed-loop eigenvalues.  The leaderless
variant swaps the leader-follower matrix for the synchronization block of the
Laplacian and adds the steady-state profile and output map that every agent
settles on.
"""

from dataclasses import dataclass

import numpy as np

from .backstepping import OutputOperator, TriangularKernel
from .comm_graph import GraphMatrices
from .errors import (
    GridMismatch,
    NewtonDivergence,
    NotControllable,
    NumericalBlowup,
    ParseError,
    ResonantSpectrum,
    SingularSystem,
    read_text,
)
from .grid import GridFunction, hat_row, uniform_nodes
from .signal_model import check_controllable

MODE_LEADER = "leader-follower"
MODE_LEADERLESS = "leaderless"

#: |n_h(lambda)| above this counts as a nonblocked frequency
NONBLOCKING_TOL = 1e-6
#: spectra closer than this count as meeting
RESONANCE_TOL = 1e-8
_NEWTON_STEPS = 60  # Newton steps the Riccati solve may take


@dataclass(frozen=True)
class DecouplingSolution:
    """Profiles separating the internal-model states from the agent states.

    ``q_tilde`` solves the two-point boundary-value problem in target
    coordinates; ``q`` is its pullback to original coordinates through the
    kernel.  Both are (n_w, m + 1) sample tables.
    """

    q_tilde: np.ndarray
    q: np.ndarray

    @property
    def q_tilde_at_1(self) -> np.ndarray:
        return self.q_tilde[:, -1].copy()

    @property
    def m(self) -> int:
        return self.q_tilde.shape[1] - 1


@dataclass(frozen=True)
class RegulatorGains:
    """Everything the networked controller needs at run time."""

    k_v: np.ndarray
    k_1: float
    k_x: GridFunction
    r_x: GridFunction
    b_y: np.ndarray
    S: np.ndarray
    mu_c: float
    mode: str | None = None     # the design's mode, when a gains file records it

    @property
    def n_w(self) -> int:
        return self.S.shape[0]

    @property
    def m(self) -> int:
        return self.k_x.m


@dataclass(frozen=True)
class SyncSteadyState:
    """Steady state of the leaderless closed loop, one for all agents.

    ``sigma1`` maps the persistent internal-model mode to the asymptotic
    profile, and ``y_map`` reads the asymptotic output off that mode.
    """

    sigma1: np.ndarray      # (n_w, m + 1)
    y_map: np.ndarray       # (n_w,)


def _target_distance(eigs: np.ndarray, mu_c: float) -> float:
    """Distance from the eigenvalues to the target spectrum {-mu_c - (k pi)^2 : k >= 0}.

    The nearest (k pi)^2 to -Re(lambda) - mu_c has k = floor(x) or floor(x) + 1,
    with x = sqrt(max(0, -Re(lambda) - mu_c)) / pi.
    """
    with np.errstate(all="ignore"):  # an overflowing candidate is never the nearest
        k = np.floor(np.sqrt(np.maximum(0.0, -eigs.real - mu_c)) / np.pi)
        return min(np.abs(eigs + mu_c + ((k + i) * np.pi) ** 2).min() for i in (0, 1))


def check_resonance(s: np.ndarray, mu_c: float):
    """Raise ResonantSpectrum when sigma(S) meets the target spectrum."""
    dist = _target_distance(np.linalg.eigvals(np.asarray(s, dtype=float)), mu_c)
    if dist < RESONANCE_TOL:
        raise ResonantSpectrum(
            "signal-model spectrum meets the target dynamics spectrum "
            f"(distance {dist:.3e}); the separation sigma_c and sigma(S) disjoint fails"
        )


@np.errstate(all="ignore")  # out-of-range data leave a solution that the last check rejects
def _neumann_bvp(
    a_mat: np.ndarray,
    rhs: np.ndarray,
    gamma0: np.ndarray,
    gamma1: np.ndarray,
    deltas=(),
) -> np.ndarray:
    """Solve u'' - A u = r on [0, 1] with u'(0) = gamma0, u'(1) = gamma1.

    Vector-valued unknown of dimension n on m + 1 nodes, second-order central
    differences with ghost-node closure of the Neumann data.  ``deltas`` is a
    sequence of (location, jump-vector) pairs adding Dirac terms to the right
    hand side, realized as hat-function loads so that u' jumps by the stated
    vector across the location.  A solution whose squares overflow raises
    SingularSystem, since the Riccati solve and the gains square q~(1).
    """
    a_mat = np.asarray(a_mat)
    n = a_mat.shape[0]
    rhs = np.asarray(rhs, dtype=float).reshape(n, -1)
    m = rhs.shape[1] - 1
    h = 1.0 / m

    load = rhs.T.copy()  # (m + 1, n)
    load[0] += 2.0 * np.asarray(gamma0, dtype=float) / h
    load[m] -= 2.0 * np.asarray(gamma1, dtype=float) / h
    for z_k, jump in deltas:
        load += np.outer(hat_row(z_k, m), jump) / h

    # The ghost-node stencil is the second difference of the even 2m-periodic
    # extension, a circulant, so the FFT of that extension (a DCT-I) diagonalises
    # it exactly: cosine mode k leaves (eig_k I - A) u_k = load_k, one n x n solve.
    modes = np.fft.rfft(np.concatenate([load, load[-2:0:-1]]), axis=0).real
    eig = -(2.0 / h * np.sin(np.arange(m + 1) * np.pi / (2 * m))) ** 2
    try:
        sol = np.linalg.solve(eig[:, None, None] * np.eye(n) - a_mat, modes[:, :, None])
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"boundary-value system is singular: {exc}") from exc
    sol = np.fft.irfft(sol[:, :, 0], n=2 * m, axis=0)[: m + 1]
    if not np.isfinite(np.sum(sol**2)):
        raise SingularSystem("boundary-value solution overflows: data out of range or system singular")
    return sol.T


def solve_decoupling(
    s: np.ndarray,
    b_y: np.ndarray,
    output_transformed: OutputOperator,
    mu_c: float,
    kernel: TriangularKernel,
) -> DecouplingSolution:
    """Solve the decoupling equations and pull the solution back through the kernel.

    The vector profile q~ satisfies q~'' - (mu_c I + S) q~ = b_y c~(z) with
    Neumann data q~'(0) = b_y c_b0 and q~'(1) = -b_y c_b1; point weights in
    the transformed output enter as jumps of q~' of height b_y c_k.  Requires
    the separation sigma_c and sigma(S) disjoint, else ResonantSpectrum.
    """
    s = np.asarray(s, dtype=float)
    b_y = np.asarray(b_y, dtype=float)
    if output_transformed.m != kernel.m:
        raise GridMismatch(
            f"output grid {output_transformed.m} vs kernel grid {kernel.m}"
        )
    check_resonance(s, mu_c)
    n_w = s.shape[0]
    a_mat = mu_c * np.eye(n_w) + s
    cb0, cb1 = output_transformed.boundary_weights
    rhs = np.outer(b_y, output_transformed.smooth_weight.values)
    deltas = [(z_k, b_y * c_k) for c_k, z_k in output_transformed.point_weights]
    q_tilde = _neumann_bvp(a_mat, rhs, b_y * cb0, -b_y * cb1, deltas)

    # pullback q(zeta) = q~(zeta) - int_zeta^1 q~(s) k(s, zeta) ds: the trapezoid rule
    # is the sum over s >= zeta with the end s = 1 halved, less half the end s = zeta;
    # column j of the kernel is k(s, zeta_j), s >= zeta_j
    weighted = q_tilde * np.append(np.ones(kernel.m), 0.5)
    pulled = np.array([weighted[:, j:] @ kernel.column(j) for j in range(kernel.m + 1)]).T
    q = q_tilde - kernel.h * (pulled - 0.5 * q_tilde * kernel.diagonal())
    return DecouplingSolution(q_tilde=q_tilde, q=q)


def check_controllable_pair(
    s: np.ndarray, b_y: np.ndarray, q_tilde_at_1: np.ndarray, mu_c: float
) -> tuple[bool, list]:
    """Controllability of the decoupled pair (S, q~(1)), with the (lambda, |n_h|) evidence.

    S acts blockwise in the discrete decoupling problem, so a left eigenvector
    w of S projects it exactly onto the scalar problem u'' - (mu_c + lambda) u
    = c~ with the output's Neumann data and point loads, whose boundary value
    is u(1) = w^T q~(1) / w^T b_y.  Its transfer numerator n_h(lambda) =
    -beta sinh(beta) u(1), beta = sqrt(mu_c + lambda), is the grid's O(h^2)
    image of the numerator n(lambda) of arXiv:2010.11103.  With (S, b_y)
    controllable this is the PBH test of the pair the Riccati solve receives:
    the verdict is |n_h(lambda)| > NONBLOCKING_TOL at every eigenvalue lambda
    of S.  A w with w^T b_y = 0, where (S, b_y) is uncontrollable, reads |n_h| = 0.
    """
    lam, w = np.linalg.eig(np.asarray(s, dtype=float).T)
    along_b = w.T @ np.asarray(b_y, dtype=float)
    u1 = np.divide(w.T @ q_tilde_at_1, along_b, out=np.zeros_like(along_b), where=along_b != 0)
    beta = np.sqrt(mu_c + lam.astype(complex))
    numerator = np.abs(beta * np.sinh(beta) * u1)
    return bool(numerator.min() > NONBLOCKING_TOL), list(zip(lam, numerator))


def _lyap_kron(a_mat: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Solve A^T X + X A = -W by Kronecker vectorization; sizes here are tiny."""
    n = a_mat.shape[0]
    eye = np.eye(n)
    coeff = np.kron(eye, a_mat.T) + np.kron(a_mat.T, eye)
    x = np.linalg.solve(coeff, -w.reshape(-1, order="F"))
    x = x.reshape(n, n, order="F")
    return 0.5 * (x + x.T)


def solve_are(s: np.ndarray, g: np.ndarray, nu: float, a: float) -> np.ndarray:
    """Stabilizing solution of  S^T Q + Q S - 2 nu Q g g^T Q + a I = 0.

    Newton iteration on the Riccati residual: each step solves a Lyapunov
    equation by Kronecker vectorization, starting from a stabilizing gain
    produced by the Bass trick (a shifted Lyapunov solve).  Quadratically
    convergent for (S, g) controllable; converged at residual 1e-8 a n.
    """
    s = np.asarray(s, dtype=float)
    g = np.asarray(g, dtype=float).reshape(-1)
    n = s.shape[0]
    if nu <= 0 or a <= 0:
        raise ValueError("nu and a must be positive")
    if not check_controllable(s, g):
        raise NotControllable("(S, g) must be controllable for the Riccati solve")
    tol = 1e-8 * a * n

    # Bass initialization: (S + beta I) Z + Z (S + beta I)^T = 2 g g^T
    beta = 1.0 + float(np.linalg.norm(s, 2))
    shifted = s + beta * np.eye(n)
    z = _lyap_kron(-shifted.T, 2.0 * np.outer(g, g))
    try:
        k_gain = np.linalg.solve(z, g)  # row vector of the stabilizing start
    except np.linalg.LinAlgError as exc:  # g g^T underflows for a tiny g
        raise NewtonDivergence(f"Bass start is singular for |g| = {np.abs(g).max():.3e}") from exc

    gcol = g.reshape(-1, 1)
    with np.errstate(all="ignore"):  # an iterate that overflows is rejected below
        for _ in range(_NEWTON_STEPS):
            a_cl = s - gcol @ k_gain.reshape(1, -1)
            if not np.isfinite(a_cl).all():
                raise NewtonDivergence("iterate left the floating-point range")
            if np.linalg.eigvals(a_cl).real.max() >= 0:
                raise NewtonDivergence("iterate lost the stabilizing property")
            w = a * np.eye(n) + np.outer(k_gain, k_gain) / (2.0 * nu)
            if not np.isfinite(w).all():
                raise NewtonDivergence("iterate left the floating-point range")
            try:
                q = _lyap_kron(a_cl, w)
            except np.linalg.LinAlgError as exc:
                raise NewtonDivergence(f"Lyapunov step is singular: {exc}") from exc
            if riccati_residual(s, q, g, nu, a) <= tol:
                if np.linalg.eigvalsh(q).min() <= 0:
                    raise NewtonDivergence("converged matrix is not positive definite")
                return q
            k_gain = 2.0 * nu * (q @ g)
    raise NewtonDivergence(
        f"Riccati residual above tolerance {tol:.3e} after {_NEWTON_STEPS} Newton steps"
    )


def riccati_residual(s: np.ndarray, q: np.ndarray, g: np.ndarray, nu: float, a: float) -> float:
    """Frobenius norm of S^T Q + Q S - 2 nu Q g g^T Q + a I."""
    gcol = np.reshape(g, (-1, 1))
    with np.errstate(all="ignore"):  # an overflowing residual reads inf or nan, never converged
        residual = s.T @ q + q @ s - 2.0 * nu * (q @ gcol) @ (gcol.T @ q) + a * np.eye(s.shape[0])
        return float(np.linalg.norm(residual, "fro"))


def assemble_gains(
    kernel: TriangularKernel,
    decoupling: DecouplingSolution,
    q1: float,
    k_v: np.ndarray,
    b_y: np.ndarray,
    s: np.ndarray,
    mu_c: float,
    mode: str,
) -> RegulatorGains:
    """Collect the common feedback gains of a ``mode`` design in original coordinates.

    k_1 = q1 - k(1, 1);  k_x = -d/dz k(z, .) at z = 1;  r_x = -k_v . q.
    """
    if kernel.m != decoupling.m:
        raise GridMismatch(f"kernel grid {kernel.m} vs decoupling grid {decoupling.m}")
    k_v = np.asarray(k_v, dtype=float)
    k_1 = float(q1) - float(kernel.diagonal()[-1])
    k_x = GridFunction(-kernel.z_derivative_top_row())
    r_x = GridFunction(-(k_v @ decoupling.q))
    return RegulatorGains(
        k_v=k_v.copy(),
        k_1=k_1,
        k_x=k_x,
        r_x=r_x,
        b_y=np.asarray(b_y, dtype=float).copy(),
        S=np.asarray(s, dtype=float).copy(),
        mu_c=float(mu_c),
        mode=mode,
    )


def closed_loop_matrix(
    s: np.ndarray, q_tilde_at_1: np.ndarray, k_v: np.ndarray, coupling: np.ndarray
) -> np.ndarray:
    """I (x) S - coupling (x) q~(1) k_v^T for any coupling matrix."""
    coupling = np.atleast_2d(np.asarray(coupling, dtype=float))
    r = coupling.shape[0]
    return np.kron(np.eye(r), s) - np.kron(coupling, np.outer(q_tilde_at_1, k_v))


def certify_stability(
    s: np.ndarray, q_tilde_at_1: np.ndarray, k_v: np.ndarray, coupling: np.ndarray
) -> np.ndarray:
    """Eigenvalues of the aggregated closed-loop ODE block F.

    ``coupling`` is the leader-follower matrix in leader-follower mode and
    the synchronization block in leaderless mode.  The caller judges the
    spectrum; only a closed-loop matrix that overflows raises, NumericalBlowup.
    """
    with np.errstate(all="ignore"):  # an overflowing product is rejected below
        f_mat = closed_loop_matrix(s, q_tilde_at_1, k_v, coupling)
    if not np.isfinite(f_mat).all():
        raise NumericalBlowup("closed-loop matrix overflows: coupling or gains out of range")
    return np.linalg.eigvals(f_mat)


def internal_model_rank_check(mode: str, graph: GraphMatrices) -> tuple[bool, str]:
    """Structural condition for regulation: det H nonzero, or full column rank
    N - 1 of the leaderless read-out matrix H~ = L[:, 1:]; with the singular
    values the verdict judges as its evidence."""
    if mode == MODE_LEADER:
        sv = np.linalg.svd(graph.leader_follower, compute_uv=False)
        scale = max(1.0, sv[0])
        return bool(sv[-1] > 1e-9 * scale), f"min sv = {sv[-1]:.3g} over scale {scale:.3g}"
    if mode == MODE_LEADERLESS:
        h_tilde = graph.laplacian[:, 1:]
        sv = np.linalg.svd(h_tilde, compute_uv=False)
        rank = np.count_nonzero(sv > 1e-9 * max(1.0, np.abs(h_tilde).max()))
        return bool(rank == h_tilde.shape[1]), f"rank = {rank}, min sv = {sv[-1]:.3g}"
    raise ValueError(f"unknown mode {mode!r}")


def sync_steady_state(
    s: np.ndarray, k_v: np.ndarray, mu_c: float, output_transformed: OutputOperator
) -> SyncSteadyState:
    """Steady-state profile and output map of the leaderless closed loop.

    Every agent's Neumann datum is k_v, so one boundary-value problem, solved
    with the machinery of the decoupling equations, gives the sigma1 all
    agents share.  Requires sigma(S) apart from the target spectrum.
    """
    s = np.asarray(s, dtype=float)
    check_resonance(s, mu_c)
    n_w, m = s.shape[0], output_transformed.m
    sigma1 = _neumann_bvp(mu_c * np.eye(n_w) + s.T, np.zeros((n_w, m + 1)), np.zeros(n_w), k_v)
    return SyncSteadyState(sigma1=sigma1, y_map=sigma1 @ output_transformed.row())


def write_gains_file(gains: RegulatorGains, path):
    """Serialize gains as decimal text with 17 significant digits.

    The format round-trips bit exactly through ``read_gains_file``.
    """
    fmt = "{:.17g}".format
    lines = [
        "# regulator gains",
        *([f"mode = {gains.mode}"] if gains.mode is not None else []),
        f"k_1 = {fmt(gains.k_1)}",
        f"mu_c = {fmt(gains.mu_c)}",
        "k_v = " + " ".join(fmt(v) for v in gains.k_v),
        "b_y = " + " ".join(fmt(v) for v in gains.b_y),
        "S = " + " ; ".join(" ".join(fmt(v) for v in row) for row in gains.S),
        f"grid_points = {gains.m}",
        "[k_x]",
    ]
    nodes = gains.k_x.nodes
    lines += [f"{fmt(z)} {fmt(v)}" for z, v in zip(nodes, gains.k_x.values)]
    lines.append("[r_x]")
    lines += [f"{fmt(z)} {fmt(v)}" for z, v in zip(nodes, gains.r_x.values)]
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def _gain_value(token: str, line: int) -> float:
    try:
        value = float(token)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise ParseError(f"{token!r} is not a finite number", line=line)
    return value


def read_gains_file(path) -> RegulatorGains:
    """Parse a file written by ``write_gains_file``.  ParseError names the line of
    a missing key or section (the last line), of a duplicate or unknown one, of a
    value that is not a finite number, of a grid_points below 1 or not whole, of
    an unknown mode, of a profile or matrix whose size disagrees with the others,
    of a profile row whose z is not its grid node, and of a byte that is not
    ASCII.  A file without a mode line has mode None."""
    known = ("mode", "k_1", "mu_c", "k_v", "b_y", "S", "grid_points", "[k_x]", "[r_x]")
    fields = {}     # key -> (text, line); [section] -> ([(z, value, line)], header line)
    section = None
    lineno = 0
    for lineno, raw in enumerate(read_text(path, "ascii").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line
            kind, name, entry = "section", line, ([], lineno)
        elif section is None:
            key, _, value = line.partition("=")
            kind, name, entry = "key", key.strip(), (value.strip(), lineno)
        else:
            tokens = line.split()
            if len(tokens) != 2:
                raise ParseError(f"expected 'z value', got {line!r}", line=lineno)
            z, value = (_gain_value(token, lineno) for token in tokens)
            fields[section][0].append((z, value, lineno))
            continue
        if name not in known:
            raise ParseError(f"unknown {kind} {name}", line=lineno)
        if name in fields:
            raise ParseError(f"duplicate {kind} {name}", line=lineno)
        fields[name] = entry

    def field(key):
        if key not in fields:
            raise ParseError(f"missing {key}", line=lineno)
        return fields[key]

    def matrix(key):
        value, at = field(key)
        return [[_gain_value(v, at) for v in row.split()] for row in value.split(";")]

    m = _gain_value(*field("grid_points"))
    if m < 1 or m != int(m):
        raise ParseError(f"grid_points = {m:g} is not a whole number >= 1", line=field("grid_points")[1])
    profiles = []
    for name in ("[k_x]", "[r_x]"):
        rows, at = field(name)
        if len(rows) != m + 1:
            raise ParseError(f"{name} has {len(rows)} rows for grid_points = {m:g}", line=at)
        for (z, _, row_at), node in zip(rows, uniform_nodes(int(m))):
            if abs(z - node) > 1e-12:
                raise ParseError(f"{name} z = {z:.17g} is not grid node {node:.17g}", line=row_at)
        profiles.append(GridFunction(np.array([value for _, value, _ in rows])))
    s, k_v, b_y = matrix("S"), matrix("k_v")[0], matrix("b_y")[0]
    if {len(s), len(b_y), *(len(row) for row in s)} != {len(k_v)}:
        raise ParseError("k_v, b_y and S disagree in size", line=field("S")[1])
    mode, at = fields.get("mode", (None, None))
    if mode not in (None, MODE_LEADER, MODE_LEADERLESS):
        raise ParseError(f"unknown mode {mode!r}", line=at)
    return RegulatorGains(
        k_v=np.array(k_v),
        k_1=_gain_value(*field("k_1")),
        k_x=profiles[0],
        r_x=profiles[1],
        b_y=np.array(b_y),
        S=np.array(s),
        mu_c=_gain_value(*field("mu_c")),
        mode=mode,
    )
