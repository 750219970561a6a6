"""Finite-dimensional signal models generating references and disturbances.

A signal model is the LTI system ``w' = S w`` of a list of reference and
disturbance frequencies, whose read-outs produce the reference ``r = p . w``
and the per-agent disturbances ``d_i = P_i w``.  S is derived from the
frequencies in the canonical real form: a direct sum of 1 x 1 zero blocks
(constants) and 2 x 2 rotation generators (harmonics), the reference blocks
first.  So S is marginally stable and diagonalizable by construction, and its
propagator exp(S t) is a rotation in closed form.

Only ``S`` and the injection vector ``b_y`` are available to the gain
synthesis; the read-outs ``p`` and ``P_i`` exist purely for the simulator's
truth model.
"""

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DuplicateFrequency


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
    """Signal model of the given frequencies, with its read-outs and internal-model
    input vector.

    ``S`` is derived: the reference blocks, then the disturbance blocks, each
    list by ``frequency_blocks``.  ``p`` defaults to the first state of each
    reference block.  ``read_outs`` holds each agent's rows over all n_w
    states, reference states included.
    """

    reference_frequencies: tuple
    disturbance_frequencies: tuple
    read_outs: tuple          # P_i, one (m_i, n_w) matrix per agent
    b_y: np.ndarray
    p: np.ndarray | None = None
    S: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.reference_frequencies) == 0:
            raise ValueError("need at least one reference frequency")
        s_r, p_r = frequency_blocks(self.reference_frequencies)
        s_d, _ = frequency_blocks(self.disturbance_frequencies)
        n_r, n_w = p_r.size, p_r.size + s_d.shape[0]
        s = np.zeros((n_w, n_w))
        s[:n_r, :n_r], s[n_r:, n_r:] = s_r, s_d
        p = np.append(p_r, np.zeros(n_w - n_r)) if self.p is None else np.array(self.p, dtype=float)
        b = np.array(self.b_y, dtype=float)
        if p.shape != (n_w,) or b.shape != (n_w,):
            raise ValueError("read-out and input vectors must match the state size")
        reads = tuple(np.array(pi, dtype=float).reshape(-1, n_w) for pi in self.read_outs)
        for arr in (s, p, b, *reads):
            arr.flags.writeable = False
        for name in ("reference_frequencies", "disturbance_frequencies"):
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        object.__setattr__(self, "S", s)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "b_y", b)
        object.__setattr__(self, "read_outs", reads)

    @property
    def n_w(self) -> int:
        return self.S.shape[0]

    def propagator(self, t) -> np.ndarray:
        """exp(S t) in closed form for each entry of the array ``t``, shaped (*t.shape,
        n_w, n_w): [[cos wt, sin wt], [-sin wt, cos wt]] per harmonic, 1 per constant."""
        # each row of S holds its block's w once, in the place of the sine
        angles = np.multiply.outer(t, np.abs(self.S).sum(axis=1))
        rotation = np.sign(self.S) * np.sin(angles)[..., None, :]
        return rotation + np.cos(angles)[..., None] * np.eye(self.n_w)


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
