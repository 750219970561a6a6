"""Graph construction, connectivity, spectral bounds, Kronecker identities."""

import numpy as np
import pytest

from coopreg.comm_graph import (
    CommTopology,
    is_connected,
    laplacian,
    leaderless_rank_matrix,
    spectral_lower_bound,
    theta_decompose,
)
from coopreg.errors import BlockStructureViolation, NonPositiveBound

from _support import random_connected_topology

FOUR_AGENT_LAPLACIAN = np.array(
    [
        [1.0, 0.0, -1.0, 0.0],
        [-1.0, 2.0, 0.0, -1.0],
        [-1.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, -1.0, 1.0],
    ]
)


def four_agent_topology():
    adjacency = np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [1.0, 0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    return CommTopology(adjacency=adjacency, leader_links=np.array([1.0, 0.0, 0.0, 0.0]))


class TestLaplacian:
    def test_two_node_single_edge(self):
        top = CommTopology(adjacency=np.array([[0.0, 1.0], [0.0, 0.0]]))
        g = laplacian(top)
        assert np.array_equal(g.laplacian, [[1.0, -1.0], [0.0, 0.0]])

    def test_four_agent_benchmark(self):
        g = laplacian(four_agent_topology())
        assert np.array_equal(g.laplacian, FOUR_AGENT_LAPLACIAN)
        assert np.array_equal(
            g.leader_follower, FOUR_AGENT_LAPLACIAN + np.diag([1.0, 0.0, 0.0, 0.0])
        )

    def test_edgeless_graph_is_zero(self):
        g = laplacian(CommTopology(adjacency=np.zeros((5, 5))))
        assert np.array_equal(g.laplacian, np.zeros((5, 5)))

    def test_rows_sum_to_zero_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            top = random_connected_topology(rng, with_leader=bool(rng.integers(2)))
            g = laplacian(top)
            assert np.array_equal(g.laplacian @ np.ones(top.n_agents), np.zeros(top.n_agents))

    def test_invalid_topologies_rejected(self):
        with pytest.raises(ValueError):
            CommTopology(adjacency=np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            CommTopology(adjacency=np.array([[0.0, -1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            CommTopology(adjacency=np.zeros((2, 2)), leader_links=np.array([1.0]))


class TestConnectivity:
    def test_four_agent_rooted_at_reference(self):
        assert is_connected(four_agent_topology(), with_root_zero=True)

    def test_edgeless_three_nodes(self):
        top = CommTopology(adjacency=np.zeros((3, 3)))
        assert not is_connected(top, with_root_zero=True)
        assert not is_connected(top, with_root_zero=False)

    def test_chain_through_reference(self):
        # reference -> agent 1 -> agent 2
        top = CommTopology(
            adjacency=np.array([[0.0, 0.0], [1.0, 0.0]]),
            leader_links=np.array([1.0, 0.0]),
        )
        assert is_connected(top, with_root_zero=True)
        assert is_connected(top, with_root_zero=False)

    def test_follower_graph_of_benchmark_connected(self):
        assert is_connected(four_agent_topology(), with_root_zero=False)


class TestThetaDecomposition:
    def test_zero_laplacian_two_nodes(self):
        dec = theta_decompose(np.zeros((2, 2)))
        assert np.array_equal(dec.l22, [[0.0]])

    def test_complete_two_node_graph(self):
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        dec = theta_decompose(lap)
        assert np.allclose(dec.l22, [[2.0]])
        assert np.allclose(dec.l12, [-1.0])

    def test_four_agent_block_spectrum(self):
        dec = theta_decompose(FOUR_AGENT_LAPLACIAN)
        eigs = np.linalg.eigvals(dec.l22)
        assert np.all(eigs.real > 0)
        # independent cross-check: the block carries the nonzero Laplacian spectrum
        lap_eigs = np.linalg.eigvals(FOUR_AGENT_LAPLACIAN)
        nonzero = np.sort_complex(lap_eigs[np.abs(lap_eigs) > 1e-9])
        assert np.allclose(np.sort_complex(eigs), nonzero, atol=1e-9)

    def test_round_trip_reassembly(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            top = random_connected_topology(rng, with_leader=False)
            lap = laplacian(top).laplacian
            dec = theta_decompose(lap)
            n = lap.shape[0]
            block = np.zeros((n, n))
            block[0, 1:] = dec.l12
            block[1:, 1:] = dec.l22
            rebuilt = dec.theta_inv @ block @ dec.theta
            scale = max(1.0, np.abs(lap).max())
            assert np.abs(rebuilt - lap).max() <= 1e-12 * scale

    def test_non_laplacian_input_rejected(self):
        with pytest.raises(BlockStructureViolation):
            theta_decompose(np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            theta_decompose(np.zeros((1, 1)))


class TestSpectralLowerBound:
    def test_identity(self):
        assert spectral_lower_bound(np.eye(4)) == pytest.approx(1.0)

    def test_four_agent_leader_follower_margin(self):
        h = laplacian(four_agent_topology()).leader_follower
        assert spectral_lower_bound(h) == pytest.approx(0.382, abs=1e-3)

    def test_four_agent_leaderless_margin_admits_one(self):
        dec = theta_decompose(FOUR_AGENT_LAPLACIAN)
        assert spectral_lower_bound(dec.l22) >= 1.0 - 1e-12

    def test_zero_matrix_has_no_positive_bound(self):
        with pytest.raises(NonPositiveBound):
            spectral_lower_bound(np.zeros((3, 3)))
        assert spectral_lower_bound(np.zeros((3, 3)), require_positive=False) == 0.0


class TestKron:
    """The Kronecker identities the aggregated closed-loop matrices rely on."""

    def test_block_structure(self):
        b = np.array([[0.0, 1.0], [0.0, 0.0]])
        out = np.kron(np.eye(2), b)
        assert out.shape == (4, 4)
        assert np.array_equal(out[:2, :2], b)
        assert np.array_equal(out[2:, 2:], b)
        assert np.array_equal(out[:2, 2:], np.zeros((2, 2)))

    def test_multiplication_property(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a, b, c, d = (rng.normal(size=(2, 2)) for _ in range(4))
            lhs = np.kron(a, b) @ np.kron(c, d)
            rhs = np.kron(a @ c, b @ d)
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_row_wise_assembly_matches_full_product(self):
        h = laplacian(four_agent_topology()).leader_follower
        b_y = np.array([1.0, 1.0, 1.0])
        stacked = np.vstack(
            [np.kron(np.eye(4)[i][None, :] @ h, b_y[:, None]) for i in range(4)]
        )
        assert np.allclose(stacked, np.kron(h, b_y[:, None]))


class TestConnectedGraphSpectra:
    def test_rooted_graphs_have_stable_leader_follower_matrix(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            top = random_connected_topology(rng, with_leader=True)
            assert is_connected(top, with_root_zero=True)
            g = laplacian(top)
            assert np.array_equal(g.laplacian @ np.ones(top.n_agents), np.zeros(top.n_agents))
            assert abs(np.linalg.det(g.leader_follower)) > 1e-12
            assert spectral_lower_bound(g.leader_follower) > 0

    def test_connected_follower_graphs_have_simple_zero_eigenvalue(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            top = random_connected_topology(rng, with_leader=False)
            assert is_connected(top, with_root_zero=False)
            lap = laplacian(top).laplacian
            eigs = np.linalg.eigvals(lap)
            near_zero = np.abs(eigs) <= 1e-9
            assert near_zero.sum() == 1
            assert np.all(eigs.real[~near_zero] > 0)
            dec = theta_decompose(lap)
            h_tilde = leaderless_rank_matrix(dec)
            n = top.n_agents
            assert np.linalg.matrix_rank(h_tilde, tol=1e-9 * max(1.0, np.abs(h_tilde).max())) == n - 1
