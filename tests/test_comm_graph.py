"""Graph construction, connectivity, spectral bounds, Kronecker identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopreg.comm_graph import (
    CommTopology,
    is_connected,
    laplacian,
    spectral_lower_bound,
)
from coopreg.errors import NonPositiveBound

from _support import (
    bfs_is_connected,
    random_connected_topology,
    random_digraph,
    theta_oracle,
    theta_pair,
)

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

    def test_without_leader_links_h_is_l(self):
        # so one closed-loop assembly serves the leaderless mode too
        rng = np.random.default_rng(12)
        for _ in range(20):
            g = laplacian(random_connected_topology(rng, with_leader=False))
            assert np.array_equal(g.leader_follower, g.laplacian)

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

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.lists(st.booleans(), min_size=n * n, max_size=n * n),
        st.lists(st.booleans(), min_size=n, max_size=n),
    )))
    def test_agrees_with_breadth_first_search(self, edges):
        cells, links = edges
        n = len(links)
        adjacency = np.array(cells, dtype=float).reshape(n, n) * 0.5
        np.fill_diagonal(adjacency, 0.0)
        for leader in (np.array(links, dtype=float), np.zeros(n)):
            top = CommTopology(adjacency=adjacency, leader_links=leader)
            for root_zero in (True, False):
                assert is_connected(top, root_zero) == bfs_is_connected(top, root_zero)


class TestSynchronizationBlock:
    def test_zero_laplacian_two_nodes(self):
        g = laplacian(CommTopology(adjacency=np.zeros((2, 2))))
        assert np.array_equal(g.synchronization, [[0.0]])

    def test_complete_two_node_graph(self):
        g = laplacian(CommTopology(adjacency=np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert np.array_equal(g.synchronization, [[2.0]])

    def test_four_agent_block_spectrum(self):
        eigs = np.linalg.eigvals(laplacian(four_agent_topology()).synchronization)
        assert np.all(eigs.real > 0)
        # independent cross-check: the block carries the nonzero Laplacian spectrum
        lap_eigs = np.linalg.eigvals(FOUR_AGENT_LAPLACIAN)
        nonzero = np.sort_complex(lap_eigs[np.abs(lap_eigs) > 1e-9])
        assert np.allclose(np.sort_complex(eigs), nonzero, atol=1e-9)

    def test_round_trip_reassembly(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            top = random_connected_topology(rng, with_leader=False)
            g = laplacian(top)
            lap = g.laplacian
            n = lap.shape[0]
            block = np.zeros((n, n))
            block[0, 1:] = lap[0, 1:]
            block[1:, 1:] = g.synchronization
            theta, theta_inv = theta_pair(n)
            rebuilt = theta_inv @ block @ theta
            scale = max(1.0, np.abs(lap).max())
            assert np.abs(rebuilt - lap).max() <= 1e-12 * scale

    def test_block_and_rank_verdict_match_explicit_transform(self):
        from coopreg.synthesis import MODE_LEADERLESS, internal_model_rank_check

        rng = np.random.default_rng(20)
        connected = set()
        for _ in range(300):
            top = random_digraph(rng)
            graph = laplacian(top)
            _, l22, h_tilde = theta_oracle(graph.laplacian)
            assert np.array_equal(graph.synchronization, l22)
            tol = 1e-9 * max(1.0, np.abs(h_tilde).max())
            full_rank = np.linalg.matrix_rank(h_tilde, tol=tol) == top.n_agents - 1
            assert internal_model_rank_check(MODE_LEADERLESS, graph)[0] == full_rank
            connected.add(is_connected(top, with_root_zero=False))
        assert connected == {True, False}

    def test_one_agent_has_an_empty_block(self):
        g = laplacian(CommTopology(adjacency=np.zeros((1, 1)), leader_links=np.ones(1)))
        assert g.synchronization.shape == (0, 0)


class TestSpectralLowerBound:
    def test_identity(self):
        assert spectral_lower_bound(np.eye(4)) == pytest.approx(1.0)

    def test_four_agent_leader_follower_margin(self):
        h = laplacian(four_agent_topology()).leader_follower
        assert spectral_lower_bound(h) == pytest.approx(0.382, abs=1e-3)

    def test_four_agent_leaderless_margin_admits_one(self):
        sync = laplacian(four_agent_topology()).synchronization
        assert spectral_lower_bound(sync) >= 1.0 - 1e-12

    def test_zero_matrix_has_no_positive_bound(self):
        with pytest.raises(NonPositiveBound):
            spectral_lower_bound(np.zeros((3, 3)))


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
            h_tilde = lap[:, 1:]
            n = top.n_agents
            assert np.linalg.matrix_rank(h_tilde, tol=1e-9 * max(1.0, np.abs(h_tilde).max())) == n - 1
