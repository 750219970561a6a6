"""Finite-dimensional signal models generating references and disturbances.

A signal model is a marginally stable, diagonalizable LTI system
``w' = S w`` whose read-outs produce the reference ``r = p . w`` and the
per-agent disturbances ``d_i = P_i w``.  The builder only emits the
canonical real form: a direct sum of 1 x 1 zero blocks (constants) and
2 x 2 rotation generators (harmonics), the reference blocks first.  The
constructor re-checks the invariants of any matrix it is given.

Only ``S`` and the injection vector ``b_y`` are available to the gain
synthesis; the read-outs ``p`` and ``P_i`` exist purely for the simulator's
truth model.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DuplicateFrequency

#: tolerance for "eigenvalue on the imaginary axis" checks
IMAG_AXIS_TOL = 1e-9


def frequency_blocks(frequencies: Sequence[float]):
    """Direct sum of the canonical blocks of the given frequencies.

    Frequency 0 contributes a scalar zero block (a constant), any positive
    frequency a 2 x 2 rotation generator.  The read-out picks the first
    state of each block, which makes the pair observable by construction.

    Returns
    -------
    (S, p) : square matrix and read-out vector.
    """
    freqs = [float(w) for w in frequencies]
    if any(w < 0 for w in freqs):
        raise ValueError("frequencies must be nonnegative")
    if len(set(freqs)) != len(freqs):
        raise DuplicateFrequency(f"repeated frequency in {freqs}")
    n = sum(1 if w == 0.0 else 2 for w in freqs)
    s, p = np.zeros((n, n)), np.zeros(n)
    k = 0
    for w in freqs:
        p[k] = 1.0
        if w != 0.0:
            s[k : k + 2, k : k + 2] = [[0.0, w], [-w, 0.0]]
        k += 1 if w == 0.0 else 2
    return s, p


@dataclass(frozen=True)
class ExoModel:
    """Signal model with its read-outs and internal-model input vector."""

    S: np.ndarray
    p: np.ndarray
    read_outs: tuple          # P_i, one (m_i, n_w) matrix per agent
    b_y: np.ndarray

    def __post_init__(self):
        s = np.array(self.S, dtype=float)
        _check_marginally_stable(s)
        p = np.array(self.p, dtype=float)
        b = np.array(self.b_y, dtype=float)
        if p.shape != (s.shape[0],) or b.shape != (s.shape[0],):
            raise ValueError("read-out and input vectors must match the state size")
        reads = tuple(np.array(pi, dtype=float).reshape(-1, s.shape[0]) for pi in self.read_outs)
        for arr in (s, p, b, *reads):
            arr.flags.writeable = False
        object.__setattr__(self, "S", s)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "b_y", b)
        object.__setattr__(self, "read_outs", reads)

    @property
    def n_w(self) -> int:
        return self.S.shape[0]


def _check_marginally_stable(s: np.ndarray):
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("S must be square")
    eigvals, eigvecs = np.linalg.eig(s)
    if np.abs(eigvals.real).max(initial=0.0) > IMAG_AXIS_TOL:
        raise ValueError("signal-model eigenvalues must lie on the imaginary axis")
    # diagonalizable: eigenvector matrix must be far from singular
    if s.shape[0] and np.linalg.matrix_rank(eigvecs, tol=1e-9) < s.shape[0]:
        raise ValueError("signal-model matrix must be diagonalizable")


def build_signal_model(
    reference_frequencies: Sequence[float],
    disturbance_frequencies: Sequence[float],
    read_outs,
    b_y: Sequence[float],
    p: Sequence[float] | None = None,
) -> ExoModel:
    """The reference blocks followed by one block per disturbance frequency.

    ``p`` defaults to the first state of each reference block.  ``read_outs``
    holds each agent's rows over all n_w states, reference states included.
    """
    if len(reference_frequencies) == 0:
        raise ValueError("need at least one reference frequency")
    s_r, p_r = frequency_blocks(reference_frequencies)
    s_d, _ = frequency_blocks(disturbance_frequencies)
    n_r, n_w = s_r.shape[0], s_r.shape[0] + s_d.shape[0]
    s = np.zeros((n_w, n_w))
    s[:n_r, :n_r] = s_r
    s[n_r:, n_r:] = s_d
    if p is None:
        p = np.concatenate([p_r, np.zeros(n_w - n_r)])
    return ExoModel(S=s, p=p, read_outs=tuple(read_outs), b_y=b_y)


def check_controllable(s: np.ndarray, b: np.ndarray) -> bool:
    """Kalman rank test via singular values (tolerance 1e-9 relative).

    A Krylov matrix outside the floating-point range fails the test.
    """
    s = np.asarray(s, dtype=float)
    b = np.asarray(b, dtype=float).reshape(s.shape[0], -1)
    n = s.shape[0]
    cols = [b]
    with np.errstate(all="ignore"):
        for _ in range(n - 1):
            cols.append(s @ cols[-1])
    ctrb = np.hstack(cols)
    if not np.isfinite(ctrb).all():
        return False
    sv = np.linalg.svd(ctrb, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return False
    return bool(np.sum(sv > 1e-9 * sv[0]) == n)
