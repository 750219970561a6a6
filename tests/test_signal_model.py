"""Signal-model construction, merging, controllability, exact propagation in simulate."""

import numpy as np
import pytest

from coopreg.comm_graph import CommTopology
from coopreg.errors import DuplicateFrequency
from coopreg.grid import GridFunction
from coopreg.signal_model import (
    DisturbanceBlock,
    ExoModel,
    build_reference_block,
    check_controllable,
    merge,
)
from coopreg.simulator import AgentSpec, simulate

from _support import loop_scenario, silent_gains, silent_plant

PI_ROTATION = np.array([[0.0, np.pi], [-np.pi, 0.0]])


class TestReferenceBlock:
    def test_single_harmonic(self):
        s_r, p_r = build_reference_block([np.pi])
        assert np.array_equal(s_r, PI_ROTATION)
        assert np.array_equal(p_r, [1.0, 0.0])

    def test_constant_reference(self):
        s_r, p_r = build_reference_block([0.0])
        assert np.array_equal(s_r, [[0.0]])
        assert np.array_equal(p_r, [1.0])

    def test_direct_sum(self):
        s_r, p_r = build_reference_block([0.0, np.pi])
        assert s_r.shape == (3, 3)
        assert s_r[0, 0] == 0.0
        assert np.array_equal(s_r[1:, 1:], PI_ROTATION)
        assert np.array_equal(p_r, [1.0, 1.0, 0.0])

    def test_duplicate_frequency_rejected(self):
        with pytest.raises(DuplicateFrequency):
            build_reference_block([np.pi, np.pi])

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            build_reference_block([-1.0])


class TestMerge:
    def test_benchmark_shape(self):
        reference = build_reference_block([np.pi])
        blocks = [
            DisturbanceBlock(
                frequency=0.0,
                readouts={i: np.array([[v]]) for i, v in enumerate([3.0, -3.0, 1.0, 1.0])},
            )
        ]
        model = merge(reference, blocks, n_agents=4)
        assert model.n_w == 3
        assert np.array_equal(model.S[:2, :2], PI_ROTATION)
        assert np.array_equal(model.S[2], [0.0, 0.0, 0.0])
        assert np.array_equal(model.p, [1.0, 0.0, 0.0])
        assert np.array_equal(model.read_outs[0], [[0.0, 0.0, 3.0]])
        assert np.array_equal(model.read_outs[1], [[0.0, 0.0, -3.0]])

    def test_no_disturbance_blocks(self):
        model = merge(build_reference_block([np.pi]), [], n_agents=2)
        assert model.n_w == 2
        assert np.array_equal(model.S, PI_ROTATION)
        assert all(p.shape == (0, 2) for p in model.read_outs)

    def test_identical_blocks_share_states(self):
        reference = build_reference_block([np.pi])
        blocks = [
            DisturbanceBlock(frequency=0.0, readouts={0: np.array([[2.0]])}),
            DisturbanceBlock(frequency=0.0, readouts={1: np.array([[5.0]])}),
        ]
        model = merge(reference, blocks, n_agents=2)
        assert model.n_w == 3  # one shared constant mode, not two
        assert np.array_equal(model.read_outs[0], [[0.0, 0.0, 2.0]])
        assert np.array_equal(model.read_outs[1], [[0.0, 0.0, 5.0]])

    def test_merged_readouts_stay_observable(self):
        reference = build_reference_block([0.0])
        blocks = [
            DisturbanceBlock(frequency=np.pi, readouts={0: np.array([[1.0, 0.0]])}),
            DisturbanceBlock(frequency=0.0, readouts={0: np.array([[2.0]])}),
        ]
        model = merge(reference, blocks, n_agents=1)
        # the agent reads a 3-dimensional sub-model; its observability matrix
        # over those states must have full rank
        assert model.read_outs[0].shape == (1, 4)

    def test_spectrum_stays_on_imaginary_axis(self):
        model = merge(
            build_reference_block([np.pi, 2.0]),
            [DisturbanceBlock(frequency=0.5, readouts={0: np.array([[1.0, 1.0]])})],
            n_agents=1,
        )
        assert np.abs(np.linalg.eigvals(model.S).real).max() < 1e-9

    def test_unstable_matrix_rejected(self):
        with pytest.raises(ValueError):
            ExoModel(
                S=np.array([[1.0]]),
                p=np.array([1.0]),
                read_outs=(np.zeros((0, 1)),),
                b_y=np.array([1.0]),
                n_reference=1,
            )

    def test_non_diagonalizable_rejected(self):
        jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            ExoModel(
                S=jordan,
                p=np.array([1.0, 0.0]),
                read_outs=(np.zeros((0, 2)),),
                b_y=np.array([1.0, 1.0]),
                n_reference=2,
            )


class TestControllability:
    def test_benchmark_pair(self):
        s = np.zeros((3, 3))
        s[:2, :2] = PI_ROTATION
        assert check_controllable(s, np.array([1.0, 1.0, 1.0]))

    def test_zero_input_vector(self):
        assert not check_controllable(PI_ROTATION, np.zeros(2))

    def test_repeated_eigenvalue_single_input(self):
        assert not check_controllable(np.zeros((2, 2)), np.array([1.0, 1.0]))


def probe_trace(model: ExoModel, w0, dt: float, n_steps: int):
    """``simulate`` on one probe agent per signal state; output k is the state w_k.

    The plant's output operator is zero, so a probe's output is its
    feedthrough g4 . d = w_k, advanced by the propagator simulate builds.
    """
    m, n = 32, model.n_w
    zero = GridFunction.constant(0.0, m)
    probes = ExoModel(
        S=model.S, p=model.p, read_outs=tuple(np.eye(n)[:, None]), b_y=model.b_y,
        n_reference=model.n_reference,
    )
    agents = [
        AgentSpec(delta_lambda=zero, delta_a=zero, g1=np.zeros((m + 1, 1)), g4=np.ones(1))
    ] * n
    resolved = loop_scenario(
        silent_plant(m), agents, CommTopology(np.zeros((n, n)), np.ones(n)), probes,
        w0=w0, v0=np.zeros((n, 1)), dt=dt, n_steps=n_steps,
    )
    return simulate(resolved, silent_gains(m))


class TestExoStep:
    def _benchmark_model(self):
        return merge(
            build_reference_block([np.pi]),
            [DisturbanceBlock(frequency=0.0, readouts={0: np.array([[3.0]])})],
            n_agents=1,
        )

    def test_zero_dynamics_fixed_point(self):
        model = merge(build_reference_block([0.0]), [], n_agents=1)
        w = np.array([1.7])
        assert np.array_equal(probe_trace(model, w, 0.5, 1).outputs[1], w)

    def test_half_turn_rotation(self):
        model = merge(build_reference_block([np.pi]), [], n_agents=1)
        w = probe_trace(model, np.array([2.0, 0.0]), 1.0, 1).outputs[1]
        assert np.allclose(w, [-2.0, 0.0], atol=1e-12)

    def test_reference_signal_is_cosine(self):
        model = self._benchmark_model()
        w = np.array([2.0, 0.0, 1.0])
        dt = 0.05
        trace = probe_trace(model, w, dt, 26)
        for t in (0.1, 0.25, 0.5, 1.3):
            k = int(round(t / dt))
            assert trace.reference[k] == pytest.approx(2.0 * np.cos(np.pi * t), abs=1e-12)
            assert (model.read_outs[0] @ trace.outputs[k])[0] == pytest.approx(3.0, abs=1e-12)

    def test_norm_conserved_over_long_run(self):
        model = self._benchmark_model()
        w = np.array([2.0, 0.0, 1.0])
        n0 = np.linalg.norm(w)
        norms = np.linalg.norm(probe_trace(model, w, 0.01, 1000).outputs, axis=1)
        assert np.abs(norms - n0).max() < 1e-9
