"""Backstepping kernel equations on the unit triangle and their transforms.

The stabilizing part of the boundary feedback comes from a Volterra
transformation x~(z) = x(z) - int_0^z k(z, zeta) x(zeta) dzeta whose kernel
solves a Goursat-type hyperbolic problem on the triangle
0 <= zeta <= z <= 1:

    k_zz - k_zetazeta = (mu_c + a(zeta)) k
    k_zeta(z, 0)      = q0 k(z, 0)
    k(z, z)           = q0 - (1/2) int_0^z (mu_c + a(s)) ds

In characteristic coordinates xi = z + zeta, eta = z - zeta this becomes
F_xi_eta = Phi F with Goursat data on eta = 0 (the diagonal) and a Robin-type
relation on xi = eta (the zeta = 0 edge).  Integrating twice gives the
Volterra-type fixed point

    F(xi, eta) = g(eta) + f0(xi) - f0(eta)
                 + int_eta^xi int_0^eta Phi(s, t) F(s, t) dt ds

where f0 is the diagonal data and g(eta) = F(eta, eta) solves the scalar ODE

    g' = -q0 g + 2 f0'(eta) + 2 int_0^eta Phi(eta, t) F(eta, t) dt,
    g(0) = q0,

obtained from the edge relation.  Successive approximation of this pair with
composite trapezoid quadrature converges geometrically for continuous a.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, NoConvergence
from .grid import GridFunction, cumulative_trapezoid, require_same_grid, uniform_nodes

#: fewest grid intervals the kernel quadrature resolves
MIN_GRID_POINTS = 32


@dataclass(frozen=True)
class TriangularKernel:
    """Kernel table k[i, j] ~ k(z_i, zeta_j) on the lower triangle j <= i.

    Entries above the diagonal are NaN on purpose: reading them is a
    programming error, not an implicit zero, and NaN propagation makes such
    a bug visible immediately.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise ValueError("kernel table must be square")
        iu = np.triu_indices(vals.shape[0], k=1)
        vals[iu] = np.nan
        if not np.all(np.isfinite(vals[np.tril_indices(vals.shape[0])])):
            raise ValueError("kernel values on the triangle must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def m(self) -> int:
        return self.values.shape[0] - 1

    @property
    def h(self) -> float:
        return 1.0 / self.m

    @property
    def nodes(self) -> np.ndarray:
        return uniform_nodes(self.m)

    @property
    def diagonal_trace(self) -> np.ndarray:
        return np.diagonal(self.values).copy()

    def value(self, i: int, j: int) -> float:
        if j > i:
            raise IndexError(f"({i}, {j}) lies above the diagonal")
        return float(self.values[i, j])

    def lower(self) -> np.ndarray:
        """Dense copy with zeros above the diagonal, for vectorized algebra."""
        out = np.array(self.values)
        out[np.triu_indices(out.shape[0], k=1)] = 0.0
        return out

    def integral_operator(self) -> np.ndarray:
        """Matrix Q with (Q x)_i ~ int_0^{z_i} k(z_i, zeta) x(zeta) dzeta."""
        w = self.lower() * self.h
        w[:, 0] *= 0.5
        idx = np.arange(self.m + 1)
        w[idx, idx] *= 0.5
        w[0, 0] = 0.0
        return w

    def z_derivative_top_row(self) -> np.ndarray:
        """d/dz k(z, zeta) at z = 1, one-sided second-order in z.

        The three-point stencil needs rows m, m-1, m-2 of one column, which
        exist only for j <= m-2; the last two nodes are filled by linear
        extrapolation, an O(h^2) completion for a C^2 kernel.
        """
        m, h = self.m, self.h
        if m < 4:
            raise ValueError("grid too coarse for the boundary derivative")
        v = self.values
        out = np.empty(m + 1)
        j = np.arange(m - 1)
        out[: m - 1] = (3.0 * v[m, j] - 4.0 * v[m - 1, j] + v[m - 2, j]) / (2.0 * h)
        out[m - 1] = 2.0 * out[m - 2] - out[m - 3]
        out[m] = 2.0 * out[m - 1] - out[m - 2]
        return out


@dataclass(frozen=True)
class OutputOperator:
    """Formal output map: smooth in-domain weight, point evaluations, boundary samples.

    Point weights stay symbolic as (coefficient, location) pairs and are never
    smeared onto the grid; locations must be strictly interior.
    """

    smooth_weight: GridFunction
    point_weights: tuple = ()
    boundary_weights: tuple = (0.0, 0.0)

    def __post_init__(self):
        pts = tuple((float(c), float(z)) for c, z in self.point_weights)
        for _, z in pts:
            if not 0.0 < z < 1.0:
                raise ValueError(f"point weight location {z} must lie in (0, 1)")
        b = tuple(float(v) for v in self.boundary_weights)
        if len(b) != 2 or not all(np.isfinite(b)):
            raise ValueError("boundary_weights must be two finite numbers")
        object.__setattr__(self, "point_weights", pts)
        object.__setattr__(self, "boundary_weights", b)

    @property
    def m(self) -> int:
        return self.smooth_weight.m

    def apply(self, profile: GridFunction) -> float:
        require_same_grid(self.smooth_weight, profile)
        val = float(
            np.trapezoid(self.smooth_weight.values * profile.values, dx=profile.h)
        )
        for c, z in self.point_weights:
            val += c * float(profile(z))
        cb0, cb1 = self.boundary_weights
        return val + cb0 * float(profile.values[0]) + cb1 * float(profile.values[-1])


def solve_kernel(
    a,
    q0: float,
    mu_c: float,
    m: int = 200,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> TriangularKernel:
    """Solve the kernel equations by successive approximation.

    Parameters
    ----------
    a : callable or GridFunction
        Reaction profile of the nominal agents on [0, 1].
    q0 : float
        Robin coefficient of the uncontrolled boundary.
    mu_c : float
        Shift defining the target dynamics; the solver treats it as an
        opaque parameter and leaves stability questions to the certificate.
    m : int
        Intervals of the uniform grid (at least ``MIN_GRID_POINTS``).
    tol : float
        Sup-norm change between successive iterates that counts as converged.
    max_iter : int
        Iteration budget; exceeding it raises NoConvergence, which usually
        means tol is too tight for the grid resolution.
    """
    if m < MIN_GRID_POINTS:
        raise ValueError(f"kernel grid needs at least {MIN_GRID_POINTS} intervals")
    if tol <= 0:
        raise ValueError("tol must be positive")
    h = 1.0 / m
    q0 = float(q0)

    # characteristic lattice: xi = p*h (p = 0..2m), eta = q*h (q = 0..m);
    # the physical triangle is q <= p <= 2m - q
    p_idx = np.arange(2 * m + 1)
    q_idx = np.arange(m + 1)
    domain = (q_idx[None, :] <= p_idx[:, None]) & (
        p_idx[:, None] <= 2 * m - q_idx[None, :]
    )

    # reaction profile on the half-step grid tau = (xi - eta)/2
    tau = 0.5 * h * np.arange(2 * m + 1)
    phi_half = mu_c + np.asarray(a(tau), dtype=float) * np.ones_like(tau)

    # diagonal data f0(xi) = q0 - (1/2) int_0^{xi/2} phi and its derivative
    f0 = q0 - 0.5 * cumulative_trapezoid(phi_half, dx=0.5 * h)
    f0_prime = -0.25 * phi_half

    diff = p_idx[:, None] - q_idx[None, :]
    phi_lattice = np.where(domain, 0.25 * phi_half[np.clip(diff, 0, 2 * m)], 0.0)

    eta = h * q_idx
    growth = np.exp(q0 * eta)
    decay = np.exp(-q0 * eta)
    diag_idx = np.arange(m + 1)

    f = np.zeros((2 * m + 1, m + 1))
    delta = np.inf
    for iteration in range(1, max_iter + 1):
        w = phi_lattice * f
        # inner integral over eta, then cumulative over xi
        c = cumulative_trapezoid(w, dx=h, axis=1)
        ct = cumulative_trapezoid(c, dx=h, axis=0)
        d = ct - ct[diag_idx, diag_idx][None, :]
        # edge ODE for the zeta = 0 trace, by integrating factor
        rhs = 2.0 * f0_prime[: m + 1] + 2.0 * c[diag_idx, diag_idx]
        g = decay * (q0 + cumulative_trapezoid(growth * rhs, dx=h))
        f_next = np.where(domain, g[None, :] + f0[:, None] - f0[: m + 1][None, :] + d, 0.0)
        delta = float(np.abs(np.where(domain, f_next - f, 0.0)).max())
        f = f_next
        if delta < tol:
            break
    else:
        raise NoConvergence(
            f"kernel iteration stalled at sup-change {delta:.3e} after {max_iter} steps",
            iterations=max_iter,
            delta=delta,
        )

    ii, jj = np.tril_indices(m + 1)
    table = np.full((m + 1, m + 1), np.nan)
    table[ii, jj] = f[ii + jj, ii - jj]
    return TriangularKernel(table)


def invert_kernel(k: TriangularKernel, tol: float = 1e-8) -> TriangularKernel:
    """Kernel of the inverse transformation via the reciprocity identity.

    k_I(z, zeta) = k(z, zeta) + int_zeta^z k(z, s) k_I(s, zeta) ds is a
    Volterra equation in the band variable z - zeta and is marched directly,
    one diagonal layer at a time; no outer iteration is needed.  ``tol``
    guards the division by the trapezoid closure factor 1 - h k(z, z)/2,
    which degenerates only for kernels far outside this problem class.
    """
    m, h = k.m, k.h
    kv = k.lower()
    ki = np.zeros((m + 1, m + 1))
    idx = np.arange(m + 1)
    ki[idx, idx] = kv[idx, idx]
    denom = 1.0 - 0.5 * h * kv[idx, idx]
    if np.abs(denom).min() < tol:
        raise NoConvergence(
            "reciprocity march is singular: diagonal closure factor vanishes",
            delta=float(np.abs(denom).min()),
        )
    for d in range(1, m + 1):
        for i in range(d, m + 1):
            j = i - d
            inner = 0.5 * kv[i, j] * ki[j, j]
            if i - j > 1:
                inner += kv[i, j + 1 : i] @ ki[j + 1 : i, j]
            ki[i, j] = (kv[i, j] + h * inner) / denom[i]
    table = np.full((m + 1, m + 1), np.nan)
    ii, jj = np.tril_indices(m + 1)
    table[ii, jj] = ki[ii, jj]
    return TriangularKernel(table)


def apply_transform(k: TriangularKernel, x: GridFunction) -> GridFunction:
    """Forward transform x~ = x - int_0^z k(z, .) x."""
    if k.m != x.m:
        raise GridMismatch(f"kernel grid {k.m} vs profile grid {x.m}")
    return GridFunction(x.values - k.integral_operator() @ x.values)


def apply_inverse_transform(k_inv: TriangularKernel, x_tilde: GridFunction) -> GridFunction:
    """Inverse transform x = x~ + int_0^z k_I(z, .) x~."""
    if k_inv.m != x_tilde.m:
        raise GridMismatch(f"kernel grid {k_inv.m} vs profile grid {x_tilde.m}")
    return GridFunction(x_tilde.values + k_inv.integral_operator() @ x_tilde.values)


def transform_output_weight(c: OutputOperator, k_inv: TriangularKernel) -> OutputOperator:
    """Push the output operator through the inverse transformation.

    The smooth weight gains the boundary term c_b1 k_I(1, .), the composition
    integral of the smooth weight with k_I, and one truncated-row term per
    point weight; the point and boundary weights themselves carry over
    unchanged.
    """
    if c.m != k_inv.m:
        raise GridMismatch(f"operator grid {c.m} vs kernel grid {k_inv.m}")
    m, h = k_inv.m, k_inv.h
    ki = k_inv.lower()
    c0 = c.smooth_weight.values
    cb0, cb1 = c.boundary_weights

    # column-wise trapezoid of c0(s) k_I(s, zeta) over s in [zeta, 1]
    w = ki * h
    idx = np.arange(m + 1)
    w[idx, idx] *= 0.5
    w[m, :] *= 0.5
    w[m, m] = 0.0
    comp = c0 @ w

    smooth = cb1 * ki[m, :] + c0 + comp
    nodes = uniform_nodes(m)
    for coeff, z_k in c.point_weights:
        i0 = min(int(z_k / h), m - 1)
        theta = z_k / h - i0
        row = (1.0 - theta) * ki[i0, :] + theta * ki[i0 + 1, :]
        smooth = smooth + coeff * row * (nodes < z_k)

    return OutputOperator(
        smooth_weight=GridFunction(smooth),
        point_weights=c.point_weights,
        boundary_weights=c.boundary_weights,
    )


def kernel_residual(k: TriangularKernel, a, mu_c: float) -> float:
    """Sup-norm interior residual of the hyperbolic kernel equation.

    Second-order centered differences on the strict interior of the triangle;
    used as the independent convergence oracle for solved kernels.
    """
    m, h = k.m, k.h
    v = k.values
    nodes = k.nodes
    worst = 0.0
    a_vals = np.asarray(a(nodes), dtype=float) * np.ones(m + 1)
    for i in range(2, m - 1):
        j = np.arange(1, i - 1)
        if j.size == 0:
            continue
        kzz = (v[i + 1, j] - 2.0 * v[i, j] + v[i - 1, j]) / h**2
        kss = (v[i, j + 1] - 2.0 * v[i, j] + v[i, j - 1]) / h**2
        res = kzz - kss - (mu_c + a_vals[j]) * v[i, j]
        worst = max(worst, float(np.abs(res).max()))
    return worst
