"""Linear algebra of the closed-loop step, on numpy alone.

``PartitionedSolve`` solves with a symmetric tridiagonal matrix by chunk
inverses and an interface correction; ``positive_pivots`` decides its
definiteness in LAPACK ``dpttrf``'s order, ``largest_eigenvalue`` finds its
lambda_max by Sturm-count bisection as LAPACK ``dstebz`` does, and ``expm``
is a scaling-and-squaring Pade approximant.
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


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring the diagonal Pade approximant of degree 6
    (Golub & Van Loan, Matrix Computations, 4th ed., Algorithm 9.3.1)."""
    # ||a / 2^j||_inf <= 1/2 bounds the relative error by 3.4e-16
    j = max(0, int(np.frexp(np.abs(a).sum(axis=1).max(initial=0.0))[1]) + 1)
    x = a / 2.0**j
    eye = np.eye(a.shape[0])
    num, den, power, c = eye.copy(), eye.copy(), eye, 1.0
    for k in range(1, 7):
        c *= (7 - k) / ((13 - k) * k)
        power = x @ power
        num += c * power
        den += (-1) ** k * c * power
    f = np.linalg.solve(den, num)
    for _ in range(j):
        f = f @ f
    return f


def chunk_rows(n: int) -> int:
    """Rows per chunk of a ``PartitionedSolve`` of n unknowns.  A solve costs
    about n s for the chunk products and (2 n / s)^2 for the interface, which
    balance at s = 2 n^(1/3); below 32 rows numpy's call per chunk costs more
    than a chunk's arithmetic."""
    return max(32, round(2.0 * n ** (1.0 / 3.0)))


class PartitionedSolve:
    """x = B^-1 b for a symmetric tridiagonal B whose diagonal chunks are
    invertible, as they are when B is positive definite; numpy alone.

    B is cut into p chunks of s rows, ``chunk_rows(n)``, the last padded with
    identity rows, so B = C + U M U^T: C holds the chunks, U picks the 2 p
    rows at chunk ends and M the couplings cut between the last row of one
    chunk and the first of the next (none at the two outer ends).  The chunk
    inverses C^-1 (H. H. Wang, ACM TOMS 7(2), 1981) and the interface matrix
    K = M (I + Z M)^-1, Z = U^T C^-1 U, are formed once; by Woodbury (W. W.
    Hager, SIAM Review 31(2), 1989) B^-1 b = C^-1 b - C^-1 U K U^T C^-1 b
    exactly, and C^-1 U holds two columns per chunk.  A solve is one batched
    chunk product, a gather of the chunk ends, one small product with K and
    a rank-2 update per chunk: O(n s) for an (n,) or (n, k) right-hand side.
    """

    def __init__(self, diag, off):
        n = diag.size
        s = chunk_rows(n)
        p = -(-n // s)
        d = np.ones(p * s)
        d[:n] = diag
        e = np.zeros(p * s)     # e[j] couples rows j and j + 1
        e[: n - 1] = off
        e = e.reshape(p, s)
        rows = np.arange(s)
        chunks = np.zeros((p, s, s))
        chunks[:, rows, rows] = d.reshape(p, s)
        chunks[:, rows[1:], rows[:-1]] = chunks[:, rows[:-1], rows[1:]] = e[:, :-1]
        self._inv = np.linalg.inv(chunks)
        self._ends = np.ascontiguousarray(self._inv[:, :, :: s - 1])   # C^-1 U, (p, s, 2)
        z = np.zeros((p, 2, p, 2))
        z[np.arange(p), :, np.arange(p)] = self._ends[:, :: s - 1]
        cut = np.zeros((2 * p, 2 * p))
        inner = np.arange(1, 2 * p - 1, 2)
        cut[inner, inner + 1] = cut[inner + 1, inner] = e[:-1, -1]
        # M (I + Z M)^-1 = (I + M Z)^-1 M
        self._link = np.linalg.solve(np.eye(2 * p) + cut @ z.reshape(2 * p, 2 * p), cut)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """B^-1 rhs for an (n,) or (n, k) ``rhs``."""
        p, s = self._inv.shape[:2]
        x = np.zeros((p * s, *rhs.shape[1:]))
        x[: rhs.shape[0]] = rhs
        x = self._inv @ x.reshape(p, s, -1)
        x -= self._ends @ (self._link @ x[:, :: s - 1].reshape(2 * p, -1)).reshape(p, 2, -1)
        return x.reshape(p * s, *rhs.shape[1:])[: rhs.shape[0]]
