"""Directed communication graphs and the spectral quantities used in the design.

The network between agents is a weighted digraph: ``adjacency[i, j] > 0``
means agent ``i`` receives from agent ``j``.  A separate vector of leader
links encodes which agents also receive the reference signal (agent 0 in the
extended graph).  Everything downstream of the graph is dense linear algebra,
which is fine because the number of agents is small in this problem class.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BlockStructureViolation, NonPositiveBound

#: absolute tolerance below which an eigenvalue real part counts as zero
ZERO_EIG_TOL = 1e-9


@dataclass(frozen=True)
class CommTopology:
    """Weighted digraph plus leader links.

    ``adjacency`` is the N x N nonnegative weight matrix with zero diagonal;
    ``leader_links`` holds the nonnegative weights from the virtual reference
    node to each agent (all zero in a leaderless configuration).
    """

    adjacency: np.ndarray
    leader_links: np.ndarray | None = None

    def __post_init__(self):
        adj = np.array(self.adjacency, dtype=float)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        n = adj.shape[0]
        if n < 1:
            raise ValueError("need at least one agent")
        if np.any(adj < 0):
            raise ValueError("adjacency weights must be nonnegative")
        if np.any(np.diag(adj) != 0):
            raise ValueError("adjacency diagonal must be zero (no self loops)")
        links = self.leader_links
        links = np.zeros(n) if links is None else np.array(links, dtype=float)
        if links.shape != (n,):
            raise ValueError("leader_links must have one entry per agent")
        if np.any(links < 0):
            raise ValueError("leader links must be nonnegative")
        adj.flags.writeable = False
        links.flags.writeable = False
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "leader_links", links)

    @property
    def n_agents(self) -> int:
        return self.adjacency.shape[0]


@dataclass(frozen=True)
class GraphMatrices:
    """Degree matrix, graph Laplacian and leader-follower matrix H."""

    degree: np.ndarray
    laplacian: np.ndarray
    leader_follower: np.ndarray


@dataclass(frozen=True)
class ThetaDecomposition:
    """Coordinate change isolating the synchronization-error block.

    ``theta`` maps agent coordinates to (agent 1, differences to agent 1);
    the transformed Laplacian has the block form [[0, l12], [0, l22]] and
    ``l22`` carries the stable synchronization dynamics.
    """

    theta: np.ndarray
    theta_inv: np.ndarray
    l12: np.ndarray
    l22: np.ndarray


def laplacian(topology: CommTopology) -> GraphMatrices:
    """Degree/Laplacian matrices and H = L + diag(leader links).

    Row i of the Laplacian is built directly from the weights, so each row
    sums to zero exactly.
    """
    adj = topology.adjacency
    deg = np.diag(adj.sum(axis=1))
    lap = deg - adj
    h = lap + np.diag(topology.leader_links)
    return GraphMatrices(degree=deg, laplacian=lap, leader_follower=h)


def is_connected(topology: CommTopology, with_root_zero: bool) -> bool:
    """Reachability test by breadth-first search over the directed edges.

    With ``with_root_zero`` the virtual reference node 0 is added with edges
    to every agent holding a positive leader link, and the question is
    whether node 0 reaches all agents.  Otherwise the question is whether any
    agent is a root of the follower digraph.
    """
    adj = topology.adjacency
    n = topology.n_agents

    def reach(seeds) -> set:
        seen = set(seeds)
        queue = list(seeds)
        while queue:
            j = queue.pop()
            # adjacency[i, j] > 0 is an edge j -> i
            for i in np.nonzero(adj[:, j] > 0)[0]:
                if i not in seen:
                    seen.add(int(i))
                    queue.append(int(i))
        return seen

    if with_root_zero:
        seeds = [int(i) for i in np.nonzero(topology.leader_links > 0)[0]]
        return len(reach(seeds)) == n
    return any(len(reach([r])) == n for r in range(n))


def theta_decompose(lap: np.ndarray, tol: float | None = None) -> ThetaDecomposition:
    """Similarity transform of a Laplacian into its synchronization blocks.

    Raises BlockStructureViolation when the first column of the transformed
    matrix is not numerically zero, which signals that the input was not a
    Laplacian (its rows must sum to zero).
    """
    lap = np.asarray(lap, dtype=float)
    n = lap.shape[0]
    if lap.ndim != 2 or lap.shape != (n, n) or n < 2:
        raise ValueError("need a square matrix of size at least 2")
    theta = np.eye(n)
    theta[1:, 0] = -1.0
    theta_inv = np.eye(n)
    theta_inv[1:, 0] = 1.0
    transformed = theta @ lap @ theta_inv
    if tol is None:
        tol = ZERO_EIG_TOL * max(1.0, np.abs(lap).max())
    first_col = np.abs(transformed[:, 0]).max()
    if first_col > tol:
        raise BlockStructureViolation(
            f"first column of the transformed matrix has magnitude {first_col:.3e}; "
            "the input rows do not sum to zero"
        )
    return ThetaDecomposition(
        theta=theta,
        theta_inv=theta_inv,
        l12=transformed[0, 1:].copy(),
        l22=transformed[1:, 1:].copy(),
    )


def spectral_lower_bound(mat: np.ndarray, require_positive: bool = True) -> float:
    """Smallest real part over the spectrum of ``mat``.

    Any value in (0, result] is a valid margin for the Riccati design.
    Raises NonPositiveBound when a positive bound is required but the
    spectrum touches the closed left half plane, which for the
    leader-follower matrix signals a disconnected communication graph.
    """
    mat = np.asarray(mat, dtype=float)
    bound = float(np.linalg.eigvals(mat).real.min())
    if require_positive and bound <= ZERO_EIG_TOL:
        raise NonPositiveBound(
            f"smallest eigenvalue real part {bound:.3e} is not positive"
        )
    return bound


def leaderless_rank_matrix(theta_dec: ThetaDecomposition) -> np.ndarray:
    """The N x (N-1) matrix whose full column rank certifies that pairwise
    output differences vanish only when all outputs agree."""
    stacked = np.vstack([theta_dec.l12[None, :], theta_dec.l22])
    return theta_dec.theta_inv @ stacked
