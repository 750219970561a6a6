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

obtained from the edge relation.  Under composite trapezoid quadrature on the
lattice xi = p h, eta = q h the discrete pair is causal in eta: level q needs
only levels <= q, so one march over eta, vectorised over xi, solves it
directly.  Level q holds the nodes (z_{q+j}, zeta_j), q entries down each
column of the triangle, and the march scatters it into a buffer that keeps
the triangle packed column by column (LAPACK's lower packed format).

The inverse kernel k_I is never tabulated: the output operator in target
coordinates, c~ = (T^-1)* c, needs only a few row combinations of it, which
``invert_kernel`` reads by one back substitution over the columns of the
kernel's own packed triangle, each a contiguous slice.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, SingularSystem
from .grid import GridFunction, cumulative_trapezoid, hat_row, trapezoid_weights, uniform_nodes

#: fewest grid intervals the kernel quadrature resolves
MIN_GRID_POINTS = 32
#: smallest |1 - h k(z, z)/2| the inverse-kernel solve accepts
_CLOSURE_TOL = 1e-8


def _column_start(j, m: int):
    """Offset of column j in the packed triangle of an m-interval kernel."""
    return j * (m + 1) - j * (j - 1) // 2


@dataclass(frozen=True)
class TriangularKernel:
    """Kernel table k[i, j] ~ k(z_i, zeta_j) on the lower triangle j <= i.

    ``packed`` holds the (m + 1)(m + 2)/2 entries of the triangle column by
    column, LAPACK's lower packed format: entry (i, j) sits at
    j (m + 1) - j (j - 1)/2 + (i - j), so column j, the entries k(z_i, zeta_j)
    for i = j..m, is one contiguous slice.  Nothing is stored above the
    diagonal, and ``entries`` rejects a read there.  ``packed`` is a
    read-only view of a read-only buffer, so its flag cannot be set back.
    The constructor copies the buffer it is given and checks it finite;
    ``solve_kernel`` hands over its own marched buffer instead, without a copy.
    """

    packed: np.ndarray

    def __post_init__(self):
        packed = np.array(self.packed, dtype=float)
        if packed.ndim != 1:
            raise ValueError("packed kernel must be one-dimensional")
        n = (math.isqrt(8 * packed.size + 1) - 1) // 2
        if n * (n + 1) // 2 != packed.size:
            raise ValueError(f"packed kernel length {packed.size} is not (m + 1)(m + 2)/2")
        if n < 2:
            raise ValueError("kernel table needs at least 2 x 2 entries")
        if not np.isfinite(packed).all():
            raise ValueError("kernel values on the triangle must be finite")
        packed.flags.writeable = False
        object.__setattr__(self, "packed", packed.view())

    @classmethod
    def _adopt(cls, packed: np.ndarray) -> "TriangularKernel":
        """Take ``packed`` as the kernel, without a copy and without the
        constructor's checks: the caller guarantees a finite triangle."""
        packed.flags.writeable = False
        kernel = object.__new__(cls)
        object.__setattr__(kernel, "packed", packed.view())
        return kernel

    @property
    def m(self) -> int:
        return (math.isqrt(8 * self.packed.size + 1) - 3) // 2

    @property
    def h(self) -> float:
        return 1.0 / self.m

    @property
    def nodes(self) -> np.ndarray:
        return uniform_nodes(self.m)

    def column(self, j: int) -> np.ndarray:
        """k(z_i, zeta_j) for i = j..m, a contiguous read-only view."""
        m = self.m
        if not 0 <= j <= m:
            raise IndexError(f"kernel column {j} is not in 0..{m}")
        start = _column_start(j, m)
        return self.packed[start : start + m + 1 - j]

    def entries(self, i, j) -> np.ndarray:
        """k(z_i, zeta_j) for broadcast index arrays on the triangle
        0 <= j <= i <= m, by one gather."""
        i, j, m = np.asarray(i), np.asarray(j), self.m
        if not np.all((0 <= j) & (j <= i) & (i <= m)):
            raise IndexError(f"kernel entries lie on the triangle 0 <= j <= i <= {m}")
        return self.packed[_column_start(j, m) + (i - j)]

    def diagonal(self) -> np.ndarray:
        """k(z_j, z_j) for j = 0..m."""
        j = np.arange(self.m + 1)
        return self.entries(j, j)

    def integral_operator(self) -> np.ndarray:
        """Matrix Q with (Q x)_i ~ int_0^{z_i} k(z_i, zeta) x(zeta) dzeta."""
        m = self.m
        w = np.zeros((m + 1, m + 1))
        for j in range(m + 1):
            w[j:, j] = self.column(j)
        w *= self.h
        w[:, 0] *= 0.5
        idx = np.arange(m + 1)
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
        top = self.entries(np.array([[m], [m - 1], [m - 2]]), np.arange(m - 1))
        out = np.empty(m + 1)
        out[: m - 1] = (3.0 * top[0] - 4.0 * top[1] + top[2]) / (2.0 * h)
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
        for c, z in pts:
            if not (0.0 < z < 1.0 and np.isfinite(c)):
                raise ValueError(f"point weight {c} @ {z} must be finite and lie in (0, 1)")
        b = tuple(float(v) for v in self.boundary_weights)
        if len(b) != 2 or not all(np.isfinite(b)):
            raise ValueError("boundary_weights must be two finite numbers")
        object.__setattr__(self, "point_weights", pts)
        object.__setattr__(self, "boundary_weights", b)

    @property
    def m(self) -> int:
        return self.smooth_weight.m

    def row(self) -> np.ndarray:
        """Quadrature row r of the output, y ~ r @ x on the grid nodes: the
        trapezoid rule for the smooth weight, the boundary samples and one
        linear-interpolation row per point weight."""
        row = trapezoid_weights(self.m) * self.smooth_weight.values
        row[0] += self.boundary_weights[0]
        row[-1] += self.boundary_weights[1]
        for c_k, z_k in self.point_weights:
            row += c_k * hat_row(z_k, self.m)
        return row


def solve_kernel(a, q0: float, mu_c: float, m: int) -> TriangularKernel:
    """Solve the discrete kernel equations by one march over eta.

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

    Raises SingularSystem when mu_c + a overflows, the grid under-resolves it
    (the march needs h^2 max|mu_c + a| <= 4) or the kernel overflows.
    """
    if not isinstance(m, (int, np.integer)) or m < MIN_GRID_POINTS:
        raise ValueError(
            f"kernel grid needs an integer of at least {MIN_GRID_POINTS} intervals, got {m}"
        )
    packed = np.empty((m + 1) * (m + 2) // 2)
    start = _column_start(np.arange(m + 1), m)
    for q, level in enumerate(_kernel_levels(a, float(q0), float(mu_c), m)):
        # lattice point xi = (q + 2j) h, eta = q h is the node (z_{q+j}, zeta_j),
        # q entries down column j
        packed[start[: m + 1 - q] + q] = level[::2]
    # the levels cover the triangle, and each was checked finite
    return TriangularKernel._adopt(packed)


def _kernel_levels(a, q0: float, mu_c: float, m: int):
    """Yield F(xi_p, eta_q) for p = q..2m-q, level by level in q = 0..m.

    The lattice is xi = p h, eta = q h with composite trapezoid quadrature in
    both directions.  Level q depends only on levels <= q: its diagonal value
    g = F(eta, eta) solves one scalar linear equation, and the xi-cumulative
    integral d along the level obeys d[k](1 - beta[k]) = d[k-1](1 + beta[k-1])
    + s[k] with beta = h^2 Phi / 4, solved by cumprod/cumsum.
    """
    h = 1.0 / m
    # reaction profile on the half-step grid tau = (xi - eta)/2; on level q
    # the point xi = (q + k) h reads index k
    tau = 0.5 * h * np.arange(2 * m + 1)
    with np.errstate(all="ignore"):
        phi_half = mu_c + np.asarray(a(tau), dtype=float) * np.ones_like(tau)
    if not np.isfinite(phi_half).all():
        raise SingularSystem("mu_c + a leaves the floating-point range")
    # h/2 times the lattice weight Phi = phi_half/4, and beta = h/2 alpha
    alpha = 0.125 * h * phi_half
    beta = 0.5 * h * alpha
    if not np.abs(beta).max() <= 0.25:
        need = int(np.ceil(0.5 * np.sqrt(np.abs(phi_half).max())))
        unit = 10 ** max(0, len(str(need)) - 4)  # round up to 4 significant digits
        need = -(-need // unit) * unit
        raise SingularSystem(
            f"kernel march needs h^2 max|mu_c + a| <= 4, got "
            f"{16.0 * np.abs(beta).max():.4g} at grid_points = {m}; "
            f"use grid_points >= {need:.4g}"
        )

    # diagonal data f0(xi) = q0 - (1/2) int_0^{xi/2} phi and its derivative
    f0 = q0 - 0.5 * cumulative_trapezoid(phi_half, dx=0.5 * h)
    f0_prime = -0.25 * phi_half
    # the recurrence coefficients depend on k only, so one prefix serves every level
    ratio = np.ones(2 * m + 1)
    ratio[1:] = (1.0 + beta[:-1]) / (1.0 - beta[1:])
    # the prefix and the edge decay can under- or overflow far outside the
    # problem class; the finiteness check below turns that into SingularSystem
    with np.errstate(all="ignore"):
        factor = np.cumprod(ratio)
        decay = np.exp(-q0 * h)
    step = 0.5 * h / (1.0 - beta)

    # level 0: the inner integral c = int_0^eta Phi F dt vanishes, g = q0, F = f0
    level, c, g = f0, np.zeros(2 * m + 1), q0
    trap = np.zeros(2 * m + 1)  # xi-trapezoid terms; trap[0] stays 0
    yield level
    for q in range(1, m + 1):
        n = 2 * (m - q) + 1
        with np.errstate(all="ignore"):
            # edge ODE g' = -q0 g + 2 f0' + 2 c(eta, eta) by the trapezoid rule
            carried = decay * (g + h * (f0_prime[q - 1] + c[0]))
            # c on xi = q h .. (2m - q) h, still without this level's own end term
            c = (c + alpha[: n + 2] * level)[1:-1]
            g = (carried + h * (f0_prime[q] + c[0])) / (1.0 - 2.0 * beta[0])
            # F = base + d, with d the xi-trapezoid of c from eta to xi
            base = g + f0[q : q + n] - f0[q]
            u = c + alpha[:n] * base
            t = trap[:n]
            t[1:] = (u[:-1] + u[1:]) * step[1:n]
            d = factor[:n] * np.cumsum(t / factor[:n])
            level = base + d
            c = u + alpha[:n] * d
        if not np.isfinite(level).all():
            raise SingularSystem(
                f"kernel march left the floating-point range at eta = {q * h:.4g}; "
                f"mu_c = {mu_c:g} and q0 = {q0:g} are out of range for grid_points = {m}"
            )
        yield level


def invert_kernel(k: TriangularKernel, rows: np.ndarray) -> np.ndarray:
    """Row combinations ``rows @ K_I`` of the inverse-transformation kernel.

    k_I(z, zeta) = k(z, zeta) + int_zeta^z k(z, s) k_I(s, zeta) ds under the
    composite trapezoid rule is the lower-triangular system
    (I - T) K_I = K D, T = h K with its diagonal halved, D = diag(1 - h k(z, z)/2).
    So r K_I = x K D with x (I - T) = r for any row r.  Back substitution
    solves for x from z = 1 down to z = 0: step j reads column j of the
    packed kernel, one contiguous slice, once for x_j and once, scaled by
    D, for column j of x K D.  K_I itself is never formed (``rows = I`` gives
    the whole table).  The closure factor 1 - h k(z, z)/2 is the diagonal of
    I - T; it degenerates only for kernels far outside this problem class.
    """
    r = np.asarray(rows, dtype=float)
    if r.shape[-1:] != (k.m + 1,):
        raise GridMismatch(f"rows of shape {r.shape} vs kernel grid {k.m}")
    h = k.h
    denom = 1.0 - 0.5 * h * k.diagonal()
    if np.abs(denom).min() < _CLOSURE_TOL:
        raise SingularSystem(
            "reciprocity system is singular: diagonal closure factor "
            f"|1 - h k(z, z)/2| = {np.abs(denom).min():.3e}"
        )
    x = np.empty(r.shape[::-1])  # transposed: x[i] is entry i of each row's x
    out = np.empty_like(x)
    with np.errstate(all="ignore"):  # an overflow is reported by the check below
        for j in range(k.m, -1, -1):
            col = k.column(j)
            x[j] = (r[..., j] + h * (col[1:] @ x[j + 1 :])) / denom[j]
            # scaling the column first overflows exactly where K D does
            out[j] = (col * denom[j]) @ x[j:]
    if not np.isfinite(out).all():
        raise SingularSystem(
            f"inverse kernel overflows for max |k| = {np.abs(k.packed).max():.3e}"
        )
    return out.T


def transform_output_weight(c: OutputOperator, k: TriangularKernel) -> OutputOperator:
    """Push the output operator through the inverse of the transformation with kernel k.

    The smooth weight gains c_b1 k_I(1, .), the column trapezoid of c0 k_I
    and one truncated row of k_I per point weight, all read by one
    ``invert_kernel`` call; the trapezoid's halved diagonal term uses
    k_I(z, z) = k(z, z).  The point and boundary weights carry over unchanged.
    """
    if c.m != k.m:
        raise GridMismatch(f"operator grid {c.m} vs kernel grid {k.m}")
    m, h = k.m, k.h
    c0 = c.smooth_weight.values

    # the column trapezoid of c0, then the samples at z = 1 and at each point
    points = [z_k for _, z_k in c.point_weights]
    rows = np.array([h * c0, *(hat_row(z, m) for z in [1.0, *points])])
    rows[0, m] *= 0.5
    read = invert_kernel(k, rows)

    with np.errstate(all="ignore"):  # an overflow is reported by the check below
        smooth = c0 + read[0] - 0.5 * h * c0 * k.diagonal()
        smooth = smooth + c.boundary_weights[1] * read[1]
        for (coeff, z_k), row in zip(c.point_weights, read[2:]):
            smooth = smooth + coeff * row * (k.nodes < z_k)
    if not np.isfinite(smooth).all():
        raise SingularSystem("transformed output weight overflows")

    return OutputOperator(
        smooth_weight=GridFunction(smooth),
        point_weights=c.point_weights,
        boundary_weights=c.boundary_weights,
    )

