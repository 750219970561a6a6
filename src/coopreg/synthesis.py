"""Feedback-gain synthesis and closed-loop certificates.

Pipeline:  solved kernel -> decoupling boundary-value problem -> nonblocking
test on the transfer numerator -> algebraic Riccati solve -> gain assembly ->
Hurwitz certificate.  The leaderless variant swaps the leader-follower matrix
for the stable block of the transformed Laplacian and adds the steady-state
synchronization maps.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .backstepping import OutputOperator, TriangularKernel
from .comm_graph import GraphMatrices, ThetaDecomposition, leaderless_rank_matrix
from .errors import (
    GridMismatch,
    InconsistentCertificates,
    NewtonDivergence,
    NotControllable,
    ParseError,
    ResonantSpectrum,
    SingularSystem,
)
from .grid import GridFunction, trapezoid_weights, uniform_nodes
from .signal_model import check_controllable

MODE_LEADER = "leader-follower"
MODE_LEADERLESS = "leaderless"

#: |n(lambda)| above this counts as a nonblocked frequency
NONBLOCKING_TOL = 1e-6


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
class StabilityCertificate:
    """Eigenvalue evidence for the closed-loop ODE block and the target dynamics."""

    mode: str
    closed_loop_eigs: np.ndarray
    alpha_ev: float
    target_pde_top_eig: float
    overall_alpha: float

    @property
    def passed(self) -> bool:
        return self.alpha_ev > 0.0 and self.target_pde_top_eig < 0.0


@dataclass(frozen=True)
class SyncSteadyState:
    """Steady-state maps of the leaderless closed loop.

    ``sigma1`` maps the persistent internal-model mode to the asymptotic
    profile; the rows of ``y_map`` are the asymptotic output read-outs,
    which coincide exactly when the outputs synchronize.
    """

    pi: np.ndarray
    sigma1: np.ndarray      # (N, n_w, m + 1)
    sigma2: np.ndarray      # (N, (N-1) n_w, m + 1)
    y_map: np.ndarray       # (N, n_w)
    f_eps: np.ndarray


def target_spectrum(mu_c: float, count: int) -> np.ndarray:
    """Leading eigenvalues -mu_c - (k pi)^2 of the Neumann target dynamics."""
    k = np.arange(count)
    return -mu_c - (k * np.pi) ** 2


def check_resonance(s: np.ndarray, mu_c: float, tol: float = 1e-8):
    """Raise ResonantSpectrum when sigma(S) meets the target spectrum."""
    eigs = np.linalg.eigvals(np.asarray(s, dtype=float))
    radius = np.abs(eigs).max(initial=0.0) + abs(mu_c) + 1.0
    count = int(np.sqrt(radius) / np.pi) + 2
    sigma_c = target_spectrum(mu_c, count)
    dist = np.abs(eigs[:, None] - sigma_c[None, :]).min()
    if dist < tol:
        raise ResonantSpectrum(
            "signal-model spectrum meets the target dynamics spectrum "
            f"(distance {dist:.3e}); the separation sigma_c and sigma(S) disjoint fails"
        )


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
    vector across the location.
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
        j = min(int(z_k / h), m - 1)
        theta = z_k / h - j
        jump = np.asarray(jump, dtype=float)
        load[j] += jump * (1.0 - theta) / h
        load[j + 1] += jump * theta / h

    eye = scipy.sparse.identity(m + 1, format="csr")
    d2 = scipy.sparse.diags(
        [np.full(m, 1.0 / h**2), np.full(m + 1, -2.0 / h**2), np.full(m, 1.0 / h**2)],
        offsets=(-1, 0, 1),
        format="lil",
    )
    d2[0, 1] = 2.0 / h**2
    d2[m, m - 1] = 2.0 / h**2
    system = scipy.sparse.kron(d2.tocsr(), scipy.sparse.identity(n)) - scipy.sparse.kron(
        eye, scipy.sparse.csr_matrix(a_mat)
    )
    try:
        sol = scipy.sparse.linalg.spsolve(system.tocsr(), load.reshape(-1))
    except RuntimeError as exc:  # umfpack/superlu signal singularity this way
        raise SingularSystem(str(exc)) from exc
    if not np.all(np.isfinite(sol)):
        raise SingularSystem("boundary-value system is numerically singular")
    return sol.reshape(m + 1, n).T


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

    # pullback q(zeta) = q~(zeta) - int_zeta^1 q~(s) k(s, zeta) ds
    q = q_tilde - q_tilde @ kernel.column_operator()
    return DecouplingSolution(q_tilde=q_tilde, q=q)


def numerator_at(s_point: complex, output_transformed: OutputOperator, mu_c: float) -> complex:
    """Scalar numerator n(s) of the boundary-input to output transfer behaviour.

    All blocks of the matrix numerator are this scalar times the identity, so
    it is evaluated in closed form through cosh(sqrt(s + mu_c) zeta), which is
    even in the square root and therefore entire in s.
    """
    beta = np.sqrt(np.complex128(s_point + mu_c))
    cb0, cb1 = output_transformed.boundary_weights
    nodes = output_transformed.smooth_weight.nodes
    val = cb0 + cb1 * np.cosh(beta)
    val += np.trapezoid(
        output_transformed.smooth_weight.values * np.cosh(beta * nodes),
        dx=output_transformed.smooth_weight.h,
    )
    for c_k, z_k in output_transformed.point_weights:
        val += c_k * np.cosh(beta * z_k)
    return complex(val)


def nonblocking_test(
    s: np.ndarray, output_transformed: OutputOperator, mu_c: float, tol: float = NONBLOCKING_TOL
) -> tuple[bool, list]:
    """Whether |n(lambda)| > tol on sigma(S), with the (lambda, |n(lambda)|) evidence."""
    values = [(lam, abs(numerator_at(lam, output_transformed, mu_c))) for lam in np.linalg.eigvals(s)]
    return min(v for _, v in values) > tol, values


def check_controllable_pair(
    s: np.ndarray,
    b_y: np.ndarray,
    q_tilde_at_1: np.ndarray,
    output_transformed: OutputOperator,
    mu_c: float,
    tol: float = NONBLOCKING_TOL,
    reference_scale: float | None = None,
) -> bool:
    """Controllability of (S, q~(1)) via the nonblocking characterization.

    The pair is controllable iff (S, b_y) is controllable and the numerator
    n(lambda) is nonzero on the spectrum of S.  A singular-value test on the
    controllability matrix of (S, q~(1)) cross-checks the verdict.  The
    smallest singular value has to be judged against an absolute scale, not
    against the matrix itself: blocking a conjugate frequency pair shrinks
    q~(1) uniformly, leaving the matrix tiny but well conditioned.
    ``reference_scale`` supplies that scale (typically sup |q~| over the
    interval); it defaults to |q~(1)|.  Verdicts that disagree decisively
    raise InconsistentCertificates, which signals numerical trouble in q~.
    """
    s = np.asarray(s, dtype=float)
    verdict = check_controllable(s, b_y) and nonblocking_test(s, output_transformed, mu_c, tol)[0]

    g = np.asarray(q_tilde_at_1, dtype=float).reshape(-1, 1)
    n = s.shape[0]
    cols = [g]
    for _ in range(n - 1):
        cols.append(s @ cols[-1])
    sv = np.linalg.svd(np.hstack(cols), compute_uv=False)
    if reference_scale is None:
        reference_scale = float(np.abs(g).max())
    spread = max(1.0, float(np.linalg.norm(s, 2))) ** (n - 1)
    denom = max(sv[0], spread * reference_scale)
    ratio = sv[-1] / denom if denom > 0 else 0.0
    if verdict and ratio < 1e-9:
        raise InconsistentCertificates(
            f"numerator test passes but the rank test is singular (ratio {ratio:.2e})"
        )
    if not verdict and ratio > 1e-2:
        raise InconsistentCertificates(
            f"numerator test fails but the rank test is well conditioned (ratio {ratio:.2e})"
        )
    return bool(verdict)


def _lyap_kron(a_mat: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Solve A^T X + X A = -W by Kronecker vectorization; sizes here are tiny."""
    n = a_mat.shape[0]
    eye = np.eye(n)
    coeff = np.kron(eye, a_mat.T) + np.kron(a_mat.T, eye)
    x = np.linalg.solve(coeff, -w.reshape(-1, order="F"))
    x = x.reshape(n, n, order="F")
    return 0.5 * (x + x.T)


def solve_are(
    s: np.ndarray,
    g: np.ndarray,
    nu: float,
    a: float,
    tol: float | None = None,
    max_iter: int = 60,
) -> np.ndarray:
    """Stabilizing solution of  S^T Q + Q S - 2 nu Q g g^T Q + a I = 0.

    Newton iteration on the Riccati residual: each step solves a Lyapunov
    equation by Kronecker vectorization, starting from a stabilizing gain
    produced by the Bass trick (a shifted Lyapunov solve).  Quadratically
    convergent for (S, g) controllable.
    """
    s = np.asarray(s, dtype=float)
    g = np.asarray(g, dtype=float).reshape(-1)
    n = s.shape[0]
    if nu <= 0 or a <= 0:
        raise ValueError("nu and a must be positive")
    if not check_controllable(s, g):
        raise NotControllable("(S, g) must be controllable for the Riccati solve")
    if tol is None:
        tol = 1e-8 * a * n

    # Bass initialization: (S + beta I) Z + Z (S + beta I)^T = 2 g g^T
    beta = 1.0 + float(np.linalg.norm(s, 2))
    shifted = s + beta * np.eye(n)
    z = _lyap_kron(-shifted.T, 2.0 * np.outer(g, g))
    k_gain = np.linalg.solve(z, g)  # row vector of the stabilizing start

    gcol = g.reshape(-1, 1)
    for _ in range(max_iter):
        a_cl = s - gcol @ k_gain.reshape(1, -1)
        if np.linalg.eigvals(a_cl).real.max() >= 0:
            raise NewtonDivergence("iterate lost the stabilizing property")
        w = a * np.eye(n) + np.outer(k_gain, k_gain) / (2.0 * nu)
        q = _lyap_kron(a_cl, w)
        if riccati_residual(s, q, g, nu, a) <= tol:
            if np.linalg.eigvalsh(q).min() <= 0:
                raise NewtonDivergence("converged matrix is not positive definite")
            return q
        k_gain = 2.0 * nu * (q @ g)
    raise NewtonDivergence(
        f"Riccati residual above tolerance {tol:.3e} after {max_iter} Newton steps"
    )


def riccati_residual(s: np.ndarray, q: np.ndarray, g: np.ndarray, nu: float, a: float) -> float:
    """Frobenius norm of S^T Q + Q S - 2 nu Q g g^T Q + a I."""
    gcol = np.reshape(g, (-1, 1))
    residual = s.T @ q + q @ s - 2.0 * nu * (q @ gcol) @ (gcol.T @ q) + a * np.eye(s.shape[0])
    return float(np.linalg.norm(residual, "fro"))


def feedback_gain(q: np.ndarray, q_tilde_at_1: np.ndarray) -> np.ndarray:
    """Internal-model feedback vector k_v = Q q~(1)."""
    return np.asarray(q) @ np.asarray(q_tilde_at_1)


def assemble_gains(
    kernel: TriangularKernel,
    decoupling: DecouplingSolution,
    q1: float,
    k_v: np.ndarray,
    b_y: np.ndarray,
    s: np.ndarray,
    mu_c: float,
) -> RegulatorGains:
    """Collect the common feedback gains in original coordinates.

    k_1 = q1 - k(1, 1);  k_x = -d/dz k(z, .) at z = 1;  r_x = -k_v . q.
    """
    if kernel.m != decoupling.m:
        raise GridMismatch(f"kernel grid {kernel.m} vs decoupling grid {decoupling.m}")
    k_v = np.asarray(k_v, dtype=float)
    k_1 = float(q1) - kernel.value(kernel.m, kernel.m)
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
    )


def closed_loop_matrix(
    s: np.ndarray, q_tilde_at_1: np.ndarray, k_v: np.ndarray, coupling: np.ndarray
) -> np.ndarray:
    """I (x) S - coupling (x) q~(1) k_v^T for any coupling matrix."""
    coupling = np.atleast_2d(np.asarray(coupling, dtype=float))
    r = coupling.shape[0]
    return np.kron(np.eye(r), s) - np.kron(coupling, np.outer(q_tilde_at_1, k_v))


def certify_stability(
    mode: str,
    s: np.ndarray,
    q_tilde_at_1: np.ndarray,
    k_v: np.ndarray,
    coupling: np.ndarray,
    mu_c: float,
) -> StabilityCertificate:
    """Eigenvalue certificate of the aggregated closed-loop ODE block.

    ``coupling`` is the leader-follower matrix in leader-follower mode and
    the stable Laplacian block in leaderless mode.  The certificate never
    raises; a failing design is reported through the sign pattern.
    """
    if mode not in (MODE_LEADER, MODE_LEADERLESS):
        raise ValueError(f"unknown mode {mode!r}")
    f_mat = closed_loop_matrix(s, q_tilde_at_1, k_v, coupling)
    eigs = np.linalg.eigvals(f_mat)
    alpha_ev = -float(eigs.real.max())
    return StabilityCertificate(
        mode=mode,
        closed_loop_eigs=eigs,
        alpha_ev=alpha_ev,
        target_pde_top_eig=-float(mu_c),
        overall_alpha=min(alpha_ev, float(mu_c)),
    )


def internal_model_rank_check(
    mode: str,
    graph: GraphMatrices,
    theta_dec: ThetaDecomposition | None = None,
) -> bool:
    """Structural condition for regulation: det H nonzero, or rank N-1 of the
    leaderless read-out matrix."""
    if mode == MODE_LEADER:
        h = graph.leader_follower
        sv = np.linalg.svd(h, compute_uv=False)
        return bool(sv[-1] > 1e-9 * max(1.0, sv[0]))
    if mode == MODE_LEADERLESS:
        if theta_dec is None:
            raise ValueError("leaderless rank check needs the Theta decomposition")
        h_tilde = leaderless_rank_matrix(theta_dec)
        rank = np.linalg.matrix_rank(h_tilde, tol=1e-9 * max(1.0, np.abs(h_tilde).max()))
        return bool(rank == h_tilde.shape[1])
    raise ValueError(f"unknown mode {mode!r}")


def sync_steady_state(
    s: np.ndarray,
    k_v: np.ndarray,
    q_tilde_at_1: np.ndarray,
    theta_dec: ThetaDecomposition,
    mu_c: float,
    output_transformed: OutputOperator,
    tol: float = 1e-8,
) -> SyncSteadyState:
    """Steady-state synchronization maps of the leaderless closed loop.

    Solves the coupling Sylvester equation by Kronecker vectorization and the
    two matrix boundary-value problems row by row with the same machinery as
    the decoupling equations.  Requires pairwise disjoint spectra of the
    signal model, the synchronization block and the target dynamics.
    """
    s = np.asarray(s, dtype=float)
    k_v = np.asarray(k_v, dtype=float)
    q1v = np.asarray(q_tilde_at_1, dtype=float)
    n_w = s.shape[0]
    n_minus_1 = theta_dec.l22.shape[0]
    n_agents = n_minus_1 + 1

    f_eps = closed_loop_matrix(s, q1v, k_v, theta_dec.l22)

    eig_s = np.linalg.eigvals(s)
    eig_f = np.linalg.eigvals(f_eps)
    if np.abs(eig_s[:, None] - eig_f[None, :]).min() < tol:
        raise ResonantSpectrum(
            "synchronization block shares an eigenvalue with the signal model"
        )
    check_resonance(s, mu_c, tol)
    radius = np.abs(eig_f).max() + abs(mu_c) + 1.0
    sigma_c = target_spectrum(mu_c, int(np.sqrt(radius) / np.pi) + 2)
    if np.abs(eig_f[:, None] - sigma_c[None, :]).min() < tol:
        raise ResonantSpectrum(
            "synchronization block meets the target dynamics spectrum"
        )

    # Pi F_eps - S Pi = -(l12 (x) q~(1) k_v^T)
    rhs = -np.kron(theta_dec.l12.reshape(1, -1), np.outer(q1v, k_v))
    dim = n_minus_1 * n_w
    coeff = np.kron(f_eps.T, np.eye(n_w)) - np.kron(np.eye(dim), s)
    pi = np.linalg.solve(coeff, rhs.reshape(-1, order="F")).reshape(n_w, dim, order="F")

    m = output_transformed.m
    ones_kv = np.tile(k_v, (n_agents, 1))

    sigma1 = np.empty((n_agents, n_w, m + 1))
    a1 = mu_c * np.eye(n_w) + s.T
    for i in range(n_agents):
        sigma1[i] = _neumann_bvp(
            a1, np.zeros((n_w, m + 1)), np.zeros(n_w), ones_kv[i]
        )

    b_mat = np.zeros((n_agents, dim))
    b_mat[1:, :] = np.kron(np.eye(n_minus_1), k_v.reshape(1, -1))
    gamma1_rows = ones_kv @ pi + b_mat
    sigma2 = np.empty((n_agents, dim, m + 1))
    a2 = mu_c * np.eye(dim) + f_eps.T
    for i in range(n_agents):
        sigma2[i] = _neumann_bvp(
            a2, np.zeros((dim, m + 1)), np.zeros(dim), gamma1_rows[i]
        )

    w_q = trapezoid_weights(m) * output_transformed.smooth_weight.values
    cb0, cb1 = output_transformed.boundary_weights
    y_map = np.empty((n_agents, n_w))
    for i in range(n_agents):
        row = sigma1[i] @ w_q
        for c_k, z_k in output_transformed.point_weights:
            nodes = uniform_nodes(m)
            row = row + c_k * np.array(
                [np.interp(z_k, nodes, sigma1[i, c]) for c in range(n_w)]
            )
        row = row + cb0 * sigma1[i, :, 0] + cb1 * sigma1[i, :, -1]
        y_map[i] = row
    return SyncSteadyState(pi=pi, sigma1=sigma1, sigma2=sigma2, y_map=y_map, f_eps=f_eps)


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
    a missing key or section (the last line), of a value that is not a finite
    number, of an unknown mode, and of a profile or matrix whose size
    disagrees with the others.  A file without a mode line has mode None."""
    fields = {}     # key -> (text, line); [section] -> (values, header line)
    section = None
    lineno = 0
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line
                fields[section] = ([], lineno)
            elif section is None:
                key, _, value = line.partition("=")
                fields[key.strip()] = (value.strip(), lineno)
            else:
                tokens = line.split()
                if len(tokens) != 2:
                    raise ParseError(f"expected 'z value', got {line!r}", line=lineno)
                fields[section][0].append(_gain_value(tokens[1], lineno))

    def field(key):
        if key not in fields:
            raise ParseError(f"missing {key}", line=lineno)
        return fields[key]

    def matrix(key):
        value, at = field(key)
        return [[_gain_value(v, at) for v in row.split()] for row in value.split(";")]

    m = _gain_value(*field("grid_points"))
    profiles = []
    for name in ("[k_x]", "[r_x]"):
        values, at = field(name)
        if len(values) != m + 1:
            raise ParseError(f"{name} has {len(values)} rows for grid_points = {m:g}", line=at)
        profiles.append(GridFunction(np.array(values)))
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
