"""Finite-dimensional signal models generating references and disturbances.

A signal model is a marginally stable, diagonalizable LTI system
``w' = S w`` whose read-outs produce the reference ``r = p . w`` and the
per-agent disturbances ``d_i = P_i w``.  The builder only emits the
canonical real form: a direct sum of 1 x 1 zero blocks (constants) and
2 x 2 rotation generators (harmonics).  Anything more exotic has to be
supplied as a raw matrix, and the constructor re-checks the invariants.

Only ``S`` and the injection vector ``b_y`` are available to the gain
synthesis; the read-outs ``p`` and ``P_i`` exist purely for the simulator's
truth model.
"""

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DuplicateFrequency

#: tolerance for "eigenvalue on the imaginary axis" checks
IMAG_AXIS_TOL = 1e-9


def _rotation_block(omega: float) -> np.ndarray:
    return np.array([[0.0, omega], [-omega, 0.0]])


def build_reference_block(frequencies: Sequence[float]):
    """Dynamics and read-out for a reference made of the given frequencies.

    Frequency 0 contributes a scalar zero block (a constant), any positive
    frequency a 2 x 2 rotation generator.  The read-out picks the first
    state of each block, which makes the pair observable by construction.

    Returns
    -------
    (S_r, p_r) : square matrix and read-out vector.
    """
    freqs = [float(w) for w in frequencies]
    if any(w < 0 for w in freqs):
        raise ValueError("frequencies must be nonnegative")
    if len(set(freqs)) != len(freqs):
        raise DuplicateFrequency(f"repeated frequency in {freqs}")
    blocks, picks = [], []
    for w in freqs:
        if w == 0.0:
            blocks.append(np.zeros((1, 1)))
            picks.append(np.array([1.0]))
        else:
            blocks.append(_rotation_block(w))
            picks.append(np.array([1.0, 0.0]))
    if not blocks:
        raise ValueError("need at least one frequency")
    s_r = _block_diag(blocks)
    p_r = np.concatenate(picks)
    return s_r, p_r


def _block_diag(blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    k = 0
    for b in blocks:
        out[k : k + b.shape[0], k : k + b.shape[0]] = b
        k += b.shape[0]
    return out


@dataclass(frozen=True)
class DisturbanceBlock:
    """One disturbance mode shared by the agents that read it.

    ``frequency`` fixes the block dynamics (0 = constant, otherwise a
    harmonic); ``readouts`` maps 0-based agent indices to the coefficient
    rows, shaped (m_i, block dimension), that feed this mode into the
    agent's disturbance channels.
    """

    frequency: float
    readouts: Mapping[int, np.ndarray]

    @property
    def dim(self) -> int:
        return 1 if self.frequency == 0.0 else 2


@dataclass(frozen=True)
class ExoModel:
    """Merged signal model with its read-outs and internal-model input vector."""

    S: np.ndarray
    p: np.ndarray
    read_outs: tuple          # P_i, one (m_i, n_w) matrix per agent
    b_y: np.ndarray
    n_reference: int          # leading states belonging to the reference block

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

    @property
    def n_agents(self) -> int:
        return len(self.read_outs)

    def reference(self, w: np.ndarray) -> float:
        return float(self.p @ np.asarray(w))


def _check_marginally_stable(s: np.ndarray):
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("S must be square")
    eigvals, eigvecs = np.linalg.eig(s)
    if np.abs(eigvals.real).max(initial=0.0) > IMAG_AXIS_TOL:
        raise ValueError("signal-model eigenvalues must lie on the imaginary axis")
    # diagonalizable: eigenvector matrix must be far from singular
    if s.shape[0] and np.linalg.matrix_rank(eigvecs, tol=1e-9) < s.shape[0]:
        raise ValueError("signal-model matrix must be diagonalizable")


def merge(
    reference,
    disturbance_blocks: Sequence[DisturbanceBlock],
    n_agents: int,
    b_y: np.ndarray | None = None,
) -> ExoModel:
    """Merge the reference block and the disturbance modes into one model.

    Blocks with identical frequency are merged into a single set of shared
    states (a minimal realization): the signals they generate differ only by
    the read-out coefficients, so per-block copies would be unobservable
    duplication.  Read-out rows of merged blocks are summed per agent.
    """
    s_r, p_r = reference
    s_r = np.asarray(s_r, dtype=float)
    p_r = np.asarray(p_r, dtype=float)
    n_r = s_r.shape[0]

    # deduplicate by frequency, preserving first-appearance order
    merged: dict[float, dict[int, np.ndarray]] = {}
    for block in disturbance_blocks:
        freq = float(block.frequency)
        dim = 1 if freq == 0.0 else 2
        agents = merged.setdefault(freq, {})
        for agent, row in block.readouts.items():
            row = np.atleast_2d(np.asarray(row, dtype=float))
            if row.shape[1] != dim:
                raise ValueError(
                    f"read-out for frequency {freq} must have {dim} columns"
                )
            if agent in agents:
                agents[agent] = agents[agent] + row
            else:
                agents[agent] = row

    mode_freqs = list(merged)
    mode_dims = [1 if f == 0.0 else 2 for f in mode_freqs]
    n_w = n_r + sum(mode_dims)

    s = np.zeros((n_w, n_w))
    s[:n_r, :n_r] = s_r
    offset = n_r
    offsets = {}
    for freq, dim in zip(mode_freqs, mode_dims):
        if dim == 2:
            s[offset : offset + 2, offset : offset + 2] = _rotation_block(freq)
        offsets[freq] = offset
        offset += dim

    p = np.zeros(n_w)
    p[:n_r] = p_r

    # channel counts per agent: all blocks addressing one agent must agree
    m_i = {}
    for freq, agents in merged.items():
        for agent, row in agents.items():
            if not 0 <= agent < n_agents:
                raise ValueError(f"agent index {agent} out of range")
            m_i.setdefault(agent, row.shape[0])
            if m_i[agent] != row.shape[0]:
                raise ValueError(
                    f"agent {agent} has inconsistent disturbance channel counts"
                )
    read_outs = []
    for agent in range(n_agents):
        rows = np.zeros((m_i.get(agent, 0), n_w))
        for freq, agents in merged.items():
            if agent in agents:
                dim = 1 if freq == 0.0 else 2
                rows[:, offsets[freq] : offsets[freq] + dim] = agents[agent]
        read_outs.append(rows)
        if rows.size and not _observable(rows, s, offsets, merged, agent):
            raise ValueError(f"read-out pair of agent {agent} is not observable")

    if b_y is None:
        b_y = np.ones(n_w)
    return ExoModel(S=s, p=p, read_outs=tuple(read_outs), b_y=b_y, n_reference=n_r)


def _observable(rows: np.ndarray, s: np.ndarray, offsets, merged, agent: int) -> bool:
    # observability of the agent's pair restricted to the modes it reads
    used = [False] * s.shape[0]
    for freq, agents in merged.items():
        if agent in agents and np.any(agents[agent] != 0):
            dim = 1 if freq == 0.0 else 2
            for k in range(offsets[freq], offsets[freq] + dim):
                used[k] = True
    idx = [k for k, u in enumerate(used) if u]
    if not idx:
        return True
    s_sub = s[np.ix_(idx, idx)]
    c_sub = rows[:, idx]
    obs = np.vstack([c_sub @ np.linalg.matrix_power(s_sub, k) for k in range(len(idx))])
    return np.linalg.matrix_rank(obs, tol=1e-9 * max(1.0, np.abs(obs).max())) == len(idx)


def check_controllable(s: np.ndarray, b: np.ndarray) -> bool:
    """Kalman rank test via singular values (tolerance 1e-9 relative)."""
    s = np.asarray(s, dtype=float)
    b = np.asarray(b, dtype=float).reshape(s.shape[0], -1)
    n = s.shape[0]
    cols = [b]
    for _ in range(n - 1):
        cols.append(s @ cols[-1])
    ctrb = np.hstack(cols)
    sv = np.linalg.svd(ctrb, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return False
    return bool(np.sum(sv > 1e-9 * sv[0]) == n)
