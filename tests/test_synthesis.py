"""Decoupling equations, nonblocking test, Riccati solve, gains, certificates."""

import dataclasses

import numpy as np
import pytest
from scipy.interpolate import make_interp_spline

from coopreg.backstepping import OutputOperator, TriangularKernel
from coopreg.comm_graph import laplacian
from coopreg.errors import NotControllable, ParseError, ResonantSpectrum
from coopreg.grid import GridFunction
from coopreg.signal_model import frequency_blocks
from coopreg.synthesis import (
    MODE_LEADER,
    MODE_LEADERLESS,
    assemble_gains,
    certify_stability,
    check_controllable_pair,
    check_resonance,
    closed_loop_matrix,
    feedback_gain,
    internal_model_rank_check,
    numerator_at,
    read_gains_file,
    solve_are,
    solve_decoupling,
    sync_steady_state,
    write_gains_file,
)


def zero_kernel(m: int) -> TriangularKernel:
    return TriangularKernel(np.zeros((m + 1, m + 1)))


def constant_output(c: float, m: int, cb=(0.0, 0.0), points=()) -> OutputOperator:
    return OutputOperator(
        GridFunction.constant(c, m), point_weights=points, boundary_weights=cb
    )


def psi_upper_left_trajectory(s_val: complex, mu_c: float, m: int, substeps: int = 4):
    """Fundamental-matrix entries Psi(0, z_j) on a grid, by RK4 on the 2 x 2 system.

    One trajectory of dY/dzeta = -A Y from the identity, recorded at every
    node, gives the independent oracle for the closed-form evaluation.
    """
    a_mat = -np.array([[0.0, 1.0], [s_val + mu_c, 0.0]], dtype=complex)
    y = np.eye(2, dtype=complex)
    h = 1.0 / (m * substeps)
    snapshots = [y[0, 0]]
    for j in range(m):
        for _ in range(substeps):
            k1 = a_mat @ y
            k2 = a_mat @ (y + 0.5 * h * k1)
            k3 = a_mat @ (y + 0.5 * h * k2)
            k4 = a_mat @ (y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        snapshots.append(y[0, 0])
    return np.array(snapshots)


def numerator_by_ode(s_val: complex, op: OutputOperator, mu_c: float) -> complex:
    m = op.smooth_weight.m
    base = psi_upper_left_trajectory(s_val, mu_c, m)
    cb0, cb1 = op.boundary_weights
    val = cb0 + cb1 * base[-1] + np.trapezoid(
        op.smooth_weight.values * base, dx=op.smooth_weight.h
    )
    nodes = op.smooth_weight.nodes
    for c_k, z_k in op.point_weights:
        val += c_k * complex(
            np.interp(z_k, nodes, base.real) + 1j * np.interp(z_k, nodes, base.imag)
        )
    return complex(val)


class TestSolveDecoupling:
    def test_zero_injection_vector(self):
        s, _ = frequency_blocks([np.pi])
        dec = solve_decoupling(
            s, np.zeros(2), constant_output(1.0, 64, cb=(1.0, 1.0)), 5.0, zero_kernel(64)
        )
        assert np.abs(dec.q_tilde).max() == 0.0
        assert np.abs(dec.q).max() == 0.0

    def test_constant_solution(self):
        s = np.array([[0.0]])
        b_y = np.array([2.0])
        mu_c, c = 5.0, 1.5
        dec = solve_decoupling(s, b_y, constant_output(c, 128), mu_c, zero_kernel(128))
        assert np.allclose(dec.q_tilde, -b_y[0] * c / mu_c, atol=1e-10)

    def test_benchmark_back_substitution(self, leader_design_m400):
        r = leader_design_m400
        m = 400
        q_tilde = r.decoupling.q_tilde
        a_mat = 5.0 * np.eye(3) + r.exo.S
        coarse = np.linspace(0.0, 1.0, m + 1)
        fine = np.linspace(0.0, 1.0, 2 * m + 1)
        q_fine = np.stack(
            [make_interp_spline(coarse, q_tilde[i], k=5)(fine) for i in range(3)]
        )
        c_fine = make_interp_spline(
            coarse, r.output_transformed.smooth_weight.values, k=5
        )(fine)
        h_fine = 0.5 / m
        second = (q_fine[:, 2:] - 2.0 * q_fine[:, 1:-1] + q_fine[:, :-2]) / h_fine**2
        residual = second - a_mat @ q_fine[:, 1:-1] - np.outer(r.exo.b_y, c_fine[1:-1])
        assert np.abs(residual).max() <= 1e-5

    def test_benchmark_boundary_conditions(self, leader_design_m400):
        r = leader_design_m400
        q_tilde = r.decoupling.q_tilde
        h = 1.0 / 400
        cb0, cb1 = r.output_transformed.boundary_weights
        at0 = (-3.0 * q_tilde[:, 0] + 4.0 * q_tilde[:, 1] - q_tilde[:, 2]) / (2.0 * h)
        at1 = (3.0 * q_tilde[:, -1] - 4.0 * q_tilde[:, -2] + q_tilde[:, -3]) / (2.0 * h)
        assert np.abs(at0 - r.exo.b_y * cb0).max() < 1e-4
        assert np.abs(at1 + r.exo.b_y * cb1).max() < 1e-4

    def test_point_weight_creates_derivative_jump(self):
        m = 400
        s = np.array([[0.0]])
        b_y = np.array([1.0])
        op = constant_output(0.0, m, points=((2.0, 0.5),))
        dec = solve_decoupling(s, b_y, op, 3.0, zero_kernel(m))
        q = dec.q_tilde[0]
        h = 1.0 / m
        j = m // 2
        left = (3.0 * q[j] - 4.0 * q[j - 1] + q[j - 2]) / (2.0 * h)
        right = (-3.0 * q[j] + 4.0 * q[j + 1] - q[j + 2]) / (2.0 * h)
        assert right - left == pytest.approx(2.0, rel=0.03)

    def test_resonant_spectrum_rejected(self):
        s = np.array([[0.0]])
        with pytest.raises(ResonantSpectrum):
            solve_decoupling(s, np.ones(1), constant_output(1.0, 64), 0.0, zero_kernel(64))

    def test_pullback_matches_manual_quadrature(self, leader_design):
        r = leader_design
        k = r.kernel.lower()
        m, h = r.kernel.m, r.kernel.h
        j = 77
        rows = np.arange(j, m + 1)
        weights = np.full(rows.size, h)
        weights[0] *= 0.5
        weights[-1] *= 0.5
        manual = r.decoupling.q_tilde[:, j] - (
            r.decoupling.q_tilde[:, rows] * (k[rows, j] * weights)[None, :]
        ).sum(axis=1)
        assert np.allclose(manual, r.decoupling.q[:, j], atol=1e-12)


class TestNumerator:
    def test_pure_instant_feedthrough(self):
        op = constant_output(0.0, 64, cb=(1.0, 0.0))
        for s_val in (0.0, 1j * np.pi, -2.0 + 0.7j):
            assert numerator_at(s_val, op, 5.0) == pytest.approx(1.0)

    def test_benchmark_values_nonzero(self, leader_design):
        r = leader_design
        for lam, expected in ((0.0, 2.4949), (1j * np.pi, 2.7751), (-1j * np.pi, 2.7751)):
            val = abs(numerator_at(lam, r.output_transformed, 5.0))
            assert val == pytest.approx(expected, abs=2e-3)
            assert val > 1e-6

    def test_matches_ode_oracle(self, leader_design):
        r = leader_design
        for lam in (0.0, 1j * np.pi, -1j * np.pi):
            closed = numerator_at(lam, r.output_transformed, 5.0)
            oracle = numerator_by_ode(lam, r.output_transformed, 5.0)
            assert abs(closed - oracle) < 1e-8

    def test_continuous_through_branch_point(self):
        op = constant_output(1.0, 64, cb=(0.5, 0.5))
        left = numerator_at(-5.0 - 1e-9, op, 5.0)
        right = numerator_at(-5.0 + 1e-9, op, 5.0)
        assert abs(left - right) < 1e-8


class TestControllablePair:
    def test_benchmark_pair_is_controllable(self, leader_design):
        r = leader_design
        assert check_controllable_pair(
            r.exo.S,
            r.exo.b_y,
            r.decoupling.q_tilde_at_1,
            r.output_transformed,
            5.0,
            reference_scale=float(np.abs(r.decoupling.q_tilde).max()),
        )

    def test_zero_injection_fails(self, leader_design):
        r = leader_design
        s = r.exo.S
        dec = solve_decoupling(s, np.zeros(3), r.output_transformed, 5.0, r.kernel)
        assert not check_controllable_pair(
            s, np.zeros(3), dec.q_tilde_at_1, r.output_transformed, 5.0
        )

    def test_blocked_frequency_detected_by_both_routes(self):
        m, mu_c = 200, 5.0
        s, _ = frequency_blocks([np.pi])
        b_y = np.array([1.0, 1.0])
        beta = np.sqrt(1j * np.pi + mu_c)
        z1, z2 = 0.3, 0.7
        coeffs = np.linalg.solve(
            np.array(
                [
                    [np.cosh(beta * z1).real, np.cosh(beta * z2).real],
                    [np.cosh(beta * z1).imag, np.cosh(beta * z2).imag],
                ]
            ),
            [-1.0, 0.0],
        )
        op = constant_output(
            0.0, m, cb=(1.0, 0.0), points=((coeffs[0], z1), (coeffs[1], z2))
        )
        assert abs(numerator_at(1j * np.pi, op, mu_c)) < 1e-12
        dec = solve_decoupling(s, b_y, op, mu_c, zero_kernel(m))
        # both conjugate frequencies are blocked, so the boundary value of the
        # decoupling profile collapses to discretization noise
        assert np.abs(dec.q_tilde_at_1).max() < 1e-6
        assert not check_controllable_pair(
            s,
            b_y,
            dec.q_tilde_at_1,
            op,
            mu_c,
            reference_scale=float(np.abs(dec.q_tilde).max()),
        )


class TestRiccati:
    def test_scalar_closed_form(self):
        q = solve_are(np.zeros((1, 1)), np.array([1.0]), nu=0.5, a=1.0)
        assert q[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_benchmark_solution(self, leader_design):
        r = leader_design
        q = r.riccati_q
        g = r.decoupling.q_tilde_at_1
        assert np.allclose(q, q.T, atol=1e-12)
        assert np.linalg.eigvalsh(q).min() > 0
        residual = (
            r.exo.S.T @ q
            + q @ r.exo.S
            - 2.0 * 0.382 * q @ np.outer(g, g) @ q
            + 150.0 * np.eye(3)
        )
        assert np.linalg.norm(residual, "fro") <= 1e-8 * 150.0 * 3
        assert np.linalg.eigvals(closed_loop_matrix(r.exo.S, g, r.gains.k_v, r.coupling)).real.max() < 0

    def test_random_marginally_stable_pairs(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            freqs = rng.uniform(0.5, 4.0, size=2)
            s = np.zeros((5, 5))
            s[:2, :2] = [[0.0, freqs[0]], [-freqs[0], 0.0]]
            s[2:4, 2:4] = [[0.0, freqs[1]], [-freqs[1], 0.0]]
            g = rng.normal(size=5)
            nu = rng.uniform(0.2, 2.0)
            q = solve_are(s, g, nu=nu, a=rng.uniform(1.0, 50.0))
            closed = s - nu * np.outer(g, g @ q)
            assert np.linalg.eigvals(closed).real.max() < 0

    def test_uncontrollable_pair_rejected(self):
        with pytest.raises(NotControllable):
            solve_are(np.zeros((2, 2)), np.array([1.0, 1.0]), nu=1.0, a=1.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            solve_are(np.zeros((1, 1)), np.array([1.0]), nu=0.0, a=1.0)

    def test_feedback_gain_forms(self):
        assert np.array_equal(
            feedback_gain(np.eye(3), np.array([1.0, 0.0, 0.0])), [1.0, 0.0, 0.0]
        )
        assert feedback_gain(np.array([[1.0]]), np.array([1.0]))[0] == 1.0


class TestGains:
    def test_trivial_assembly(self):
        m = 64
        from coopreg.synthesis import DecouplingSolution

        dec = DecouplingSolution(q_tilde=np.zeros((2, m + 1)), q=np.zeros((2, m + 1)))
        gains = assemble_gains(
            zero_kernel(m), dec, q1=0.7, k_v=np.zeros(2), b_y=np.ones(2),
            s=np.zeros((2, 2)), mu_c=1.0,
        )
        assert gains.k_1 == 0.7
        assert np.abs(gains.k_x.values).max() == 0.0
        assert np.abs(gains.r_x.values).max() == 0.0

    def test_benchmark_boundary_gain(self, leader_design):
        assert leader_design.gains.k_1 == pytest.approx(0.25, abs=1e-12)

    def test_coupling_weight_is_negative_projection(self, leader_design):
        r = leader_design
        manual = -(r.gains.k_v @ r.decoupling.q)
        assert np.allclose(manual, r.gains.r_x.values, atol=1e-14)

    def test_gain_profile_matches_kernel_slope(self, leader_design):
        r = leader_design
        # the interior nodes use the one-sided second-order stencil directly
        v, h, m = r.kernel.values, r.kernel.h, r.kernel.m
        j = 40
        slope = (3.0 * v[m, j] - 4.0 * v[m - 1, j] + v[m - 2, j]) / (2.0 * h)
        assert r.gains.k_x.values[j] == pytest.approx(-slope, abs=1e-14)

    def test_gains_file_round_trip(self, leader_design, tmp_path):
        path = tmp_path / "gains.txt"
        write_gains_file(leader_design.gains, path)
        first = path.read_text()
        loaded = read_gains_file(path)
        write_gains_file(loaded, path)
        assert path.read_text() == first
        assert np.array_equal(loaded.k_v, leader_design.gains.k_v)
        assert np.array_equal(loaded.k_x.values, leader_design.gains.k_x.values)
        assert np.array_equal(loaded.S, leader_design.gains.S)
        assert loaded.k_1 == leader_design.gains.k_1

    def test_gains_file_mode_line(self, leader_design, tmp_path):
        path = tmp_path / "gains.txt"
        write_gains_file(dataclasses.replace(leader_design.gains, mode=MODE_LEADERLESS), path)
        assert read_gains_file(path).mode == MODE_LEADERLESS
        path.write_text(path.read_text().replace(MODE_LEADERLESS, "sideways"))
        with pytest.raises(ParseError) as info:
            read_gains_file(path)
        assert info.value.line == 2 and "unknown mode 'sideways'" in str(info.value)

    @pytest.mark.parametrize(
        "edit, line, message",
        [
            (lambda ls: ls[:210], 210, "missing [r_x]"),
            (lambda ls: ls[:301], 211, "[r_x] has 90 rows"),
            (lambda ls: ls[:2] + ls[3:], 411, "missing k_1"),
            (lambda ls: [*ls[:2], "k_1 = abc", *ls[3:]], 3, "'abc' is not a finite number"),
            (lambda ls: [*ls[:2], "k_1 = nan", *ls[3:]], 3, "'nan' is not a finite number"),
            (lambda ls: [*ls[:50], "0.2 inf", *ls[51:]], 51, "'inf' is not a finite number"),
            (lambda ls: [*ls[:7], "grid_points = 199", *ls[8:]], 9, "[k_x] has 201 rows"),
            (lambda ls: [*ls[:4], "k_v = 1 2", *ls[5:]], 7, "k_v, b_y and S disagree in size"),
        ],
        ids=[
            "missing-section", "truncated", "missing-key", "non-numeric", "nan", "inf-in-table",
            "length", "short-k_v",
        ],
    )
    def test_malformed_gains_file_rejected(self, leader_design, tmp_path, edit, line, message):
        path = tmp_path / "gains.txt"
        write_gains_file(leader_design.gains, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 412 and lines[7] == "grid_points = 200" and lines[8] == "[k_x]"
        path.write_text("\n".join(edit(lines)) + "\n")
        with pytest.raises(ParseError) as info:
            read_gains_file(path)
        assert info.value.line == line
        assert message in str(info.value)


class TestCertificates:
    def test_zero_feedback_fails(self, leader_design):
        r = leader_design
        cert = certify_stability(
            MODE_LEADER, r.exo.S, r.decoupling.q_tilde_at_1, np.zeros(3),
            r.graph.leader_follower, 5.0,
        )
        assert not cert.passed
        assert cert.alpha_ev <= 0.0

    def test_benchmark_leader_certificate(self, leader_design):
        cert = leader_design.certificate
        assert cert.passed
        assert cert.alpha_ev > 0.9
        assert cert.overall_alpha == pytest.approx(min(cert.alpha_ev, 5.0))
        assert cert.target_pde_top_eig == -5.0

    def test_benchmark_leaderless_certificate(self, leaderless_design):
        cert = leaderless_design.certificate
        assert cert.mode == MODE_LEADERLESS
        assert cert.passed
        assert cert.closed_loop_eigs.size == 9

    def test_per_eigenvalue_blocks_hurwitz(self, leader_design):
        r = leader_design
        g = r.decoupling.q_tilde_at_1
        for lam in np.linalg.eigvals(r.graph.leader_follower):
            block = r.exo.S - lam * np.outer(g, r.gains.k_v)
            assert np.linalg.eigvals(block).real.max() < 0

    def test_negative_mu_c_fails_certificate(self, leader_design):
        r = leader_design
        cert = certify_stability(
            MODE_LEADER, r.exo.S, r.decoupling.q_tilde_at_1, r.gains.k_v,
            r.graph.leader_follower, -5.0,
        )
        assert not cert.passed


class TestRankChecks:
    def test_benchmark_leader(self, leader_design):
        assert internal_model_rank_check(MODE_LEADER, leader_design.graph)

    def test_edgeless_graph(self):
        from coopreg.comm_graph import CommTopology

        graph = laplacian(CommTopology(adjacency=np.zeros((3, 3))))
        assert not internal_model_rank_check(MODE_LEADER, graph)

    def test_benchmark_leaderless_rank(self, leaderless_design):
        r = leaderless_design
        assert internal_model_rank_check(MODE_LEADERLESS, r.graph, r.theta)
        from coopreg.comm_graph import leaderless_rank_matrix

        h_tilde = leaderless_rank_matrix(r.theta)
        assert h_tilde.shape == (4, 3)
        assert np.linalg.matrix_rank(h_tilde) == 3


class TestSyncSteadyState:
    def test_homogeneous_problem_vanishes(self):
        from coopreg.synthesis import _neumann_bvp

        s, _ = frequency_blocks([np.pi])
        a_mat = 5.0 * np.eye(2) + s.T
        out = _neumann_bvp(a_mat, np.zeros((2, 101)), np.zeros(2), np.zeros(2))
        assert np.abs(out).max() < 1e-12

    def test_benchmark_maps(self, leaderless_design):
        r = leaderless_design
        ss = sync_steady_state(
            r.exo.S, r.gains.k_v, r.decoupling.q_tilde_at_1, r.theta, 5.0,
            r.output_transformed,
        )
        # coupling equation solved exactly
        sylvester = ss.pi @ ss.f_eps - r.exo.S @ ss.pi + np.kron(
            r.theta.l12.reshape(1, -1),
            np.outer(r.decoupling.q_tilde_at_1, r.gains.k_v),
        )
        assert np.abs(sylvester).max() < 1e-10
        # every agent sees the same asymptotic read-out map
        spread = np.abs(ss.y_map - ss.y_map[0]).max()
        assert spread <= 1e-8 * max(1.0, np.abs(ss.y_map).max())

    def test_benchmark_bvp_residuals(self, leaderless_design):
        r = leaderless_design
        ss = sync_steady_state(
            r.exo.S, r.gains.k_v, r.decoupling.q_tilde_at_1, r.theta, 5.0,
            r.output_transformed,
        )
        m = r.kernel.m
        coarse = np.linspace(0.0, 1.0, m + 1)
        fine = np.linspace(0.0, 1.0, 2 * m + 1)
        for rows, w_mat in ((ss.sigma1, r.exo.S), (ss.sigma2, ss.f_eps)):
            a_mat = 5.0 * np.eye(w_mat.shape[0]) + w_mat.T
            for i in range(rows.shape[0]):
                table = np.stack(
                    [make_interp_spline(coarse, rows[i, c], k=5)(fine) for c in range(rows.shape[1])]
                )
                h_fine = 0.5 / m
                second = (table[:, 2:] - 2.0 * table[:, 1:-1] + table[:, :-2]) / h_fine**2
                residual = second - a_mat @ table[:, 1:-1]
                assert np.abs(residual).max() < 1e-3

    def test_zero_feedback_is_resonant(self, leaderless_design):
        r = leaderless_design
        with pytest.raises(ResonantSpectrum):
            sync_steady_state(
                r.exo.S, np.zeros(3), r.decoupling.q_tilde_at_1, r.theta, 5.0,
                r.output_transformed,
            )


class TestResonanceCheck:
    def test_clear_separation_passes(self):
        s, _ = frequency_blocks([np.pi])
        check_resonance(s, 5.0)

    def test_constant_mode_with_zero_shift(self):
        with pytest.raises(ResonantSpectrum):
            check_resonance(np.zeros((1, 1)), 0.0)

    def test_harmonic_against_shifted_string_spectrum(self):
        # -mu_c - pi^2 = 0 requires mu_c = -pi^2; then 0 in sigma(S) resonates
        with pytest.raises(ResonantSpectrum):
            check_resonance(np.zeros((1, 1)), -np.pi**2)
