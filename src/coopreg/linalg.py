"""Linear algebra of the closed-loop step, on numpy alone.

``PartitionedSolve`` solves with a tridiagonal matrix, or its transpose, by
chunk inverses and an interface correction, in place on a padded chunk layout
that the closed-loop step keeps its state in; ``positive_pivots`` decides the
definiteness of its symmetrized form in LAPACK ``dpttrf``'s order, and
``largest_eigenvalue`` finds its lambda_max by Sturm-count bisection as LAPACK
``dstebz`` does.
"""

import numpy as np


def positive_pivots(diag, off) -> bool:
    """Whether the symmetric tridiagonal (diag, off) has an LDL^T factor with
    positive pivots, taken in LAPACK ``dpttrf``'s order and rounding."""
    pivot, *rest = diag.tolist()
    for d, e in zip(rest, off.tolist()):
        if not pivot > 0.0:
            return False
        pivot = d - e * (e / pivot)
    return pivot > 0.0


def largest_eigenvalue(diag, off) -> float:
    """lambda_max of the symmetric tridiagonal (diag, off) by Sturm-count
    bisection in its widened Gershgorin interval, as LAPACK ``dstebz``."""
    eps, tiny, n = float(np.finfo(float).eps), float(np.finfo(float).tiny), diag.size
    d, e2 = diag.tolist(), [0.0, *(e * e for e in off.tolist())]
    radius = np.abs(np.append(off, 0.0)) + np.abs(np.append(0.0, off))
    lo, hi = float((diag - radius).min()), float((diag + radius).max())
    norm = max(abs(lo), abs(hi))
    pivmin = tiny * max(1.0, *e2)
    lo, hi = lo - 2.1 * (norm * eps * n + 2.0 * pivmin), hi + 2.1 * (norm * eps * n + pivmin)

    def all_below(x):   # every pivot of T - x I negative: no eigenvalue at or above x
        q = -1.0
        for a, b2 in zip(d, e2):
            q = a - x - b2 / q
            if q >= -pivmin:
                return False
        return True

    while hi - lo > max(eps * norm, pivmin, 2.0 * eps * max(abs(lo), abs(hi))):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if all_below(mid) else (mid, hi)
    return 0.5 * (lo + hi)


def chunk_rows(n: int) -> int:
    """Rows per chunk of a ``PartitionedSolve`` of n unknowns.  A solve costs
    about n s for the chunk products and (2 n / s)^2 for the interface, which
    balance at s = 2 n^(1/3); below 32 rows numpy's call per chunk costs more
    than a chunk's arithmetic."""
    return max(32, round(2.0 * n ** (1.0 / 3.0)))


class PartitionedSolve:
    """x = B^-1 b or B^-T b for a tridiagonal B whose diagonal chunks are
    invertible, as they are when B is similar to a positive definite matrix
    by a diagonal scaling; numpy alone.

    B is cut into p chunks of s rows, ``chunk_rows(n)``, the last padded with
    identity rows, so B = C + U M U^T: C holds the chunks, U picks the 2 p
    rows at chunk ends and M the couplings cut between the last row of one
    chunk and the first of the next (none at the two outer ends).  The chunk
    inverses C^-1 (H. H. Wang, ACM TOMS 7(2), 1981) and the interface matrix
    K = M (I + Z M)^-1, Z = U^T C^-1 U, are formed once; by Woodbury (W. W.
    Hager, SIAM Review 31(2), 1989) B^-1 b = C^-1 b - C^-1 U K U^T C^-1 b
    exactly, and C^-1 U holds two columns per chunk.  B^-T b is the same
    algebra on the transposed factors, C^-T b - C^-T U K^T U^T C^-T b.  A
    solve is one batched chunk product, a gather of the chunk ends, one small
    product with K and a rank-2 update per chunk: O(n s) for an (n,) or (n, k)
    right-hand side.

    ``solver(k)`` runs that solve in place on k right-hand sides held in the
    padded (p, s, k) chunk layout (``shape`` is (p, s)), zero in the padding
    rows, which it keeps zero; ``solve`` pads, solves that way and slices.
    """

    def __init__(self, diag, lower, upper):
        """B of diagonal ``diag``, B[j + 1, j] = lower[j] and B[j, j + 1] = upper[j],
        zero past the bands given."""
        self.n = n = diag.size
        s = chunk_rows(n)
        p = -(-n // s)
        self.shape = (p, s)
        d = np.ones(p * s)
        d[:n] = diag
        bands = np.zeros((2, p * s))    # bands[:, j] couple rows j and j + 1
        bands[:, : len(lower)] = lower, upper
        lower, upper = bands.reshape(2, p, s)
        rows = np.arange(s)
        chunks = np.zeros((p, s, s))
        chunks[:, rows, rows] = d.reshape(p, s)
        chunks[:, rows[1:], rows[:-1]] = lower[:, :-1]
        chunks[:, rows[:-1], rows[1:]] = upper[:, :-1]
        self._inv = np.linalg.inv(chunks)
        self._ends = np.ascontiguousarray(self._inv[:, :, :: s - 1])   # C^-1 U, (p, s, 2)
        z = np.zeros((p, 2, p, 2))
        z[np.arange(p), :, np.arange(p)] = self._ends[:, :: s - 1]
        cut = np.zeros((2 * p, 2 * p))
        inner = np.arange(1, 2 * p - 1, 2)
        cut[inner + 1, inner], cut[inner, inner + 1] = lower[:-1, -1], upper[:-1, -1]
        # M (I + Z M)^-1 = (I + M Z)^-1 M
        self._link = np.linalg.solve(np.eye(2 * p) + cut @ z.reshape(2 * p, 2 * p), cut)

    def solver(self, k: int = 1, transpose: bool = False):
        """solve(rhs, out, work): out = B^-1 rhs, or B^-T rhs, for (p, s, k)
        arrays in the padded layout, with ``work`` overwritten (it may be
        ``rhs``).  Its small arrays are allocated here, so a solve allocates
        nothing; it returns ``out``."""
        p, s = self.shape
        inv, ends, link = self._inv, self._ends, self._link
        if transpose:   # views: C^-T, C^-T U and K^T
            inv, ends, link = inv.transpose(0, 2, 1), inv[:, :: s - 1].transpose(0, 2, 1), link.T
        gathered, fix = np.empty((2, p, 2, k))
        rows = np.array([0, s - 1])
        flat_gathered, flat_fix = gathered.reshape(2 * p, k), fix.reshape(2 * p, k)

        def solve(rhs, out, work):
            np.matmul(inv, rhs, out=out)
            np.take(out, rows, axis=1, out=gathered, mode="clip")
            np.dot(link, flat_gathered, out=flat_fix)
            np.matmul(ends, fix, out=work)
            return np.subtract(out, work, out=out)

        return solve

    def solve(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        """B^-1 rhs, or B^-T rhs, for an (r,) or (r, k) ``rhs`` of r <= n rows,
        the rows past r taken as zero; the solution has n rows."""
        p, s = self.shape
        x = np.zeros((p * s, *rhs.shape[1:]))
        x[: len(rhs)] = rhs
        x = x.reshape(p, s, -1)
        out = self.solver(x.shape[2], transpose)(x, np.empty_like(x), x)
        return out.reshape(p * s, *rhs.shape[1:])[: self.n]
