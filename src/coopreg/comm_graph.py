"""Directed communication graphs and the spectral quantities used in the design.

The network between agents is a weighted digraph: ``adjacency[i, j] > 0``
means agent ``i`` receives from agent ``j``.  A separate vector of leader
links encodes which agents also receive the reference signal (agent 0 in the
extended graph).  Everything downstream of the graph is dense linear algebra,
which is fine because the number of agents is small in this problem class.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveBound

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
    """Graph Laplacian, leader-follower matrix H and the synchronization block.

    In the coordinates (agent 1, differences to agent 1) L becomes
    [[0, L[0, 1:]], [0, synchronization]]; the (N - 1) x (N - 1) block
    carries the stable synchronization dynamics of the leaderless design.
    """

    laplacian: np.ndarray
    leader_follower: np.ndarray
    synchronization: np.ndarray


def laplacian(topology: CommTopology) -> GraphMatrices:
    """Laplacian L = D - A, H = L + diag(leader links) and L[1:, 1:] - L[0, 1:].

    Row i of the Laplacian is built directly from the weights, so each row
    sums to zero exactly, as the synchronization block's coordinates need.
    """
    adj = topology.adjacency
    lap = np.diag(adj.sum(axis=1)) - adj
    return GraphMatrices(
        laplacian=lap,
        leader_follower=lap + np.diag(topology.leader_links),
        synchronization=lap[1:, 1:] - lap[0, 1:],
    )


def is_connected(topology: CommTopology, with_root_zero: bool) -> bool:
    """Reachability test on the transitive closure of the directed edges.

    With ``with_root_zero`` the virtual reference node 0 is added with edges
    to every agent holding a positive leader link, and the question is
    whether node 0 reaches all agents.  Otherwise the question is whether any
    agent is a root of the follower digraph.
    """
    # reach[i, j]: agent j reaches agent i (adjacency[i, j] > 0 is an edge j -> i)
    # in at most 2^k hops after k squarings; n.bit_length() of them cover n - 1 hops
    n = topology.n_agents
    reach = np.eye(n, dtype=bool) | (topology.adjacency > 0)
    for _ in range(n.bit_length()):
        reach = reach @ reach
    if with_root_zero:
        return bool(reach[:, topology.leader_links > 0].any(axis=1).all())
    return bool(reach.all(axis=0).any())


def spectral_lower_bound(mat: np.ndarray) -> float:
    """Smallest real part over the spectrum of ``mat``.

    Any value in (0, result] is a valid margin for the Riccati design.
    Raises NonPositiveBound when the spectrum touches the closed left half
    plane, which for the leader-follower matrix signals a disconnected
    communication graph.
    """
    mat = np.asarray(mat, dtype=float)
    bound = float(np.linalg.eigvals(mat).real.min())
    if bound <= ZERO_EIG_TOL:
        raise NonPositiveBound(
            f"smallest eigenvalue real part {bound:.3e} is not positive"
        )
    return bound
