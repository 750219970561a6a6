"""Decoupling equations, nonblocking test, Riccati solve, gains, certificates."""

import dataclasses
import functools
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import make_interp_spline

from coopreg.backstepping import (
    OutputOperator,
    TriangularKernel,
    solve_kernel,
    transform_output_weight,
)
from coopreg.cli import certificate_payload, run_synthesis
from coopreg.comm_graph import laplacian
from coopreg.errors import (
    NotControllable,
    NumericalBlowup,
    ParseError,
    ResonantSpectrum,
    SingularSystem,
)
from coopreg.grid import GridFunction
from coopreg.scenario import load_scenario
from coopreg.signal_model import check_controllable, frequency_blocks
from coopreg.synthesis import (
    MODE_LEADER,
    MODE_LEADERLESS,
    RegulatorGains,
    assemble_gains,
    certify_stability,
    check_controllable_pair,
    check_resonance,
    closed_loop_matrix,
    internal_model_rank_check,
    read_gains_file,
    solve_are,
    solve_decoupling,
    sync_steady_state,
    write_gains_file,
)

from _support import (
    column_operator,
    dense_neumann_bvp,
    krylov_ratio,
    numerator_at,
    numerator_by_ode,
    random_connected_topology,
    unpack,
)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def regulator_gains(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 40))

    def vector(size):
        return np.array(draw(st.lists(FINITE, min_size=size, max_size=size)))

    return RegulatorGains(
        k_v=vector(n),
        k_1=draw(FINITE),
        k_x=GridFunction(vector(m + 1)),
        r_x=GridFunction(vector(m + 1)),
        b_y=vector(n),
        S=vector(n * n).reshape(n, n),
        mu_c=draw(FINITE),
        mode=draw(st.sampled_from([None, MODE_LEADER, MODE_LEADERLESS])),
    )


def bits(value) -> np.ndarray:
    """The IEEE bit patterns, so -0.0 and 0.0 differ."""
    return np.asarray(value, dtype=float).view(np.uint64)


def zero_kernel(m: int) -> TriangularKernel:
    return TriangularKernel(np.zeros((m + 1) * (m + 2) // 2))


def constant_output(c: float, m: int, cb=(0.0, 0.0), points=()) -> OutputOperator:
    return OutputOperator(
        GridFunction.constant(c, m), point_weights=points, boundary_weights=cb
    )


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
        k = unpack(r.kernel)
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

    def test_pullback_closed_form(self):
        # q~ = 1 solves q~'' - q~ = -1 with Neumann data 0; under a constant kernel c
        # the pullback is 1 - int_zeta^1 c ds = 1 - c (1 - zeta), exact under the trapezoid rule
        m, c = 80, 1.5
        kernel = TriangularKernel(np.full((m + 1) * (m + 2) // 2, c))
        dec = solve_decoupling(np.zeros((1, 1)), np.ones(1), constant_output(-1.0, m), 1.0, kernel)
        assert np.allclose(dec.q_tilde, 1.0, atol=1e-14)
        assert np.allclose(dec.q[0], 1.0 - c * (1.0 - kernel.nodes), atol=1e-14)

    @pytest.mark.parametrize("m", [64, 200, 800])
    @pytest.mark.parametrize("name", ["four_agent_leader.cfg", "four_agent_leaderless.cfg"])
    def test_pullback_matches_column_operator(self, name, m):
        scenario = load_scenario(files("coopreg").joinpath(f"scenarios/{name}"))
        plant, exo, mu_c = scenario.plant(m), scenario.exo_model(), scenario.numerics.mu_c
        kernel = solve_kernel(plant.a, plant.q0, mu_c, m)
        output = transform_output_weight(plant.output, kernel)
        dec = solve_decoupling(exo.S, exo.b_y, output, mu_c, kernel)
        # in float64 the dense product alone rounds by up to 7e-16 of its largest
        # entry at m = 800, in a summation order that moves with the BLAS thread
        # count, so the reference is formed in extended precision
        q_tilde = dec.q_tilde.astype(np.longdouble)
        expected = q_tilde - q_tilde @ column_operator(kernel).astype(np.longdouble)
        assert np.abs(dec.q - expected).max() <= 1e-15 * np.abs(expected).max()


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


def judged_by_theorem(s, b_y, op, mu_c, kernel) -> bool:
    """The design's verdict on (S, q~(1)), held to the Krylov oracle.

    The verdict is (S, b_y) controllable and check_controllable_pair; a
    passing verdict needs a Krylov ratio of at least 1e-9, a failing one at
    most 1e-2.
    """
    decoupling = solve_decoupling(s, b_y, op, mu_c, kernel)
    characterized = check_controllable(s, b_y) and check_controllable_pair(
        s, b_y, decoupling.q_tilde_at_1, mu_c
    )[0]
    ratio = krylov_ratio(s, decoupling)
    if characterized:
        assert ratio >= 1e-9
    else:
        assert ratio <= 1e-2
    return characterized


@functools.cache
def leader_blocking_zero(m: int = 64, closed_form: bool = False):
    """The leader file, its kernel at m, and the c_b1 (about 0.0808) at which the
    design's n_h(0) = 0, or with ``closed_form`` the oracle's n(0) = 0.

    Both are affine in c_b1, so two evaluations locate the zero.  n_h(0) is
    -beta sinh(beta) u(1) for the scalar decoupling problem, S = 0 and b_y = 1.
    """
    scenario = load_scenario(files("coopreg").joinpath("scenarios/four_agent_leader.cfg"))
    plant, mu_c = scenario.plant(m), scenario.numerics.mu_c
    kernel = solve_kernel(plant.a, plant.q0, mu_c, m)

    def n0(c_b1):
        output = transform_output_weight(with_c_b1(plant.output, c_b1), kernel)
        if closed_form:
            return numerator_at(0.0, output, mu_c).real
        return solve_decoupling(np.zeros((1, 1)), np.ones(1), output, mu_c, kernel).q_tilde_at_1[0]

    c_star = -n0(0.0) / (n0(1.0) - n0(0.0))
    assert c_star == pytest.approx(0.0808, abs=1e-4)
    return scenario, kernel, c_star


def with_c_b1(output: OutputOperator, c_b1: float) -> OutputOperator:
    return dataclasses.replace(output, boundary_weights=(output.boundary_weights[0], c_b1))


@st.composite
def decoupled_pairs(draw):
    """(S, b_y, transformed output, mu_c, kernel) at m = 64.

    Either random frequency blocks, injection and output weights under a zero
    kernel, or the leader file with c_b1 within 1e-3 relative of its lambda = 0
    blocking zero, down to 1e-16.
    """
    m = 64
    if draw(st.booleans()):
        scenario, kernel, c_star = leader_blocking_zero(m)
        offset = draw(st.floats(-1e-3, 1e-3) | st.floats(-16, -3).map(lambda e: 10.0**e))
        sign = draw(st.sampled_from([1.0, -1.0]))
        output = with_c_b1(scenario.plant(m).output, c_star * (1 + sign * offset))
        exo, mu_c = scenario.exo_model(), scenario.numerics.mu_c
        return exo.S, exo.b_y, transform_output_weight(output, kernel), mu_c, kernel
    frequency = st.sampled_from([0.0, 0.5, 1.0, np.pi, 2.0 * np.pi, 7.5])
    s, _ = frequency_blocks(draw(st.lists(frequency, min_size=1, max_size=3, unique=True)))
    injection = st.just(0.0) | st.floats(0.1, 2.0) | st.floats(-2.0, -0.1)
    b_y = np.array(draw(st.lists(injection, min_size=len(s), max_size=len(s))))
    weight = st.floats(-2.0, 2.0)
    points = draw(st.lists(st.tuples(weight, st.floats(0.05, 0.95)), max_size=2))
    op = constant_output(draw(weight), m, cb=(draw(weight), draw(weight)), points=tuple(points))
    return s, b_y, op, draw(st.floats(0.5, 10.0)), zero_kernel(m)


class TestControllablePair:
    def test_benchmark_pair_is_controllable(self, leader_design):
        r = leader_design
        assert judged_by_theorem(r.exo.S, r.exo.b_y, r.output_transformed, 5.0, r.kernel)

    def test_zero_injection_fails(self, leader_design):
        r = leader_design
        assert check_controllable_pair(r.exo.S, r.exo.b_y, r.decoupling.q_tilde_at_1, 5.0)[0]
        # w^T b_y = 0 for every left eigenvector w: a failing verdict, read without a division
        silent = solve_decoupling(r.exo.S, np.zeros(3), r.output_transformed, 5.0, r.kernel)
        passed, evidence = check_controllable_pair(r.exo.S, np.zeros(3), silent.q_tilde_at_1, 5.0)
        assert not passed
        assert [v for _, v in evidence] == [0.0, 0.0, 0.0]
        assert not judged_by_theorem(r.exo.S, np.zeros(3), r.output_transformed, 5.0, r.kernel)

    @pytest.mark.parametrize("m", [64, 200, 800])
    @pytest.mark.parametrize("name", ["four_agent_leader.cfg", "four_agent_leaderless.cfg"])
    def test_numerator_is_second_order_image_of_closed_form(self, name, m):
        r = run_synthesis(load_scenario(files("coopreg").joinpath(f"scenarios/{name}")), m=m)
        # | |n_h| - |n| | m^2 measures 1.67 (lambda = 0) and 1.85 (+-i pi) at every m
        for lam, abs_n_h in r.nonblocking:
            closed = numerator_at(lam, r.output_transformed, r.scenario.numerics.mu_c)
            assert 1.5 <= abs(abs_n_h - abs(closed)) * m**2 <= 2.0

    @pytest.mark.parametrize("closed_form", [False, True], ids=["discrete-zero", "closed-form-zero"])
    @pytest.mark.parametrize("m", [64, 200])
    def test_c_b1_scan_around_blocking_zero(self, m, closed_form):
        scenario, kernel, c_star = leader_blocking_zero(m, closed_form)
        exo, mu_c = scenario.exo_model(), scenario.numerics.mu_c
        verdicts = {}
        for offset in [sign * 10.0**e for e in range(-16, 0) for sign in (1.0, -1.0)]:
            output = with_c_b1(scenario.plant(m).output, c_star * (1 + offset))
            op = transform_output_weight(output, kernel)
            verdicts[offset] = judged_by_theorem(exo.S, exo.b_y, op, mu_c, kernel)
        blocked = {offset for offset, passed in verdicts.items() if not passed}
        # |n_h(0)| is about 0.22 |offset|: the design's own zero blocks up to 1e-6 relative,
        # and the oracle's sits 3e-4 (m = 64) and 3e-5 (m = 200) off it, where all c_b1 pass
        assert blocked == (set() if closed_form else {o for o in verdicts if abs(o) <= 1e-6})

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
        assert not judged_by_theorem(s, b_y, op, mu_c, zero_kernel(m))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(pair=decoupled_pairs())
    def test_characterization_agrees_with_krylov_rank(self, pair):
        judged_by_theorem(*pair)


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


class TestGains:
    def test_trivial_assembly(self):
        m = 64
        from coopreg.synthesis import DecouplingSolution

        dec = DecouplingSolution(q_tilde=np.zeros((2, m + 1)), q=np.zeros((2, m + 1)))
        gains = assemble_gains(
            zero_kernel(m), dec, q1=0.7, k_v=np.zeros(2), b_y=np.ones(2),
            s=np.zeros((2, 2)), mu_c=1.0, mode=MODE_LEADER,
        )
        assert gains.k_1 == 0.7
        assert gains.mode == MODE_LEADER
        assert np.abs(gains.k_x.values).max() == 0.0
        assert np.abs(gains.r_x.values).max() == 0.0

    def test_benchmark_boundary_gain(self, leader_design):
        assert leader_design.gains.k_1 == pytest.approx(0.25, abs=1e-12)

    def test_feedback_gain_is_riccati_times_boundary_profile(self, leader_design):
        r = leader_design
        assert np.array_equal(r.gains.k_v, r.riccati_q @ r.decoupling.q_tilde_at_1)

    def test_coupling_weight_is_negative_projection(self, leader_design):
        r = leader_design
        manual = -(r.gains.k_v @ r.decoupling.q)
        assert np.allclose(manual, r.gains.r_x.values, atol=1e-14)

    def test_gain_profile_matches_kernel_slope(self, leader_design):
        r = leader_design
        # the interior nodes use the one-sided second-order stencil directly
        v, h, m = unpack(r.kernel), r.kernel.h, r.kernel.m
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

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(gains=regulator_gains())
    def test_gains_file_round_trip_is_bit_exact(self, tmp_path_factory, gains):
        path = tmp_path_factory.mktemp("gains") / "gains.txt"
        write_gains_file(gains, path)
        loaded = read_gains_file(path)
        assert loaded.mode == gains.mode
        for name in ("k_v", "k_1", "b_y", "S", "mu_c"):
            assert np.array_equal(bits(getattr(loaded, name)), bits(getattr(gains, name))), name
        for name in ("k_x", "r_x"):
            assert np.array_equal(bits(getattr(loaded, name).values), bits(getattr(gains, name).values))

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
            (lambda ls: [*ls[:7], "grid_points = -1", "[k_x]", "[r_x]"], 8,
             "grid_points = -1 is not a whole number >= 1"),
            (lambda ls: [*ls[:7], "grid_points = 0", "[k_x]", ls[9], "[r_x]", ls[211]], 8,
             "grid_points = 0 is not a whole number >= 1"),
            (lambda ls: [*ls[:4], "k_v = 1 2", *ls[5:]], 7, "k_v, b_y and S disagree in size"),
            (lambda ls: [*ls[:3], "k_1 = 1", *ls[3:]], 4, "duplicate key k_1"),
            (lambda ls: [*ls, "[k_x]"], 413, "duplicate section [k_x]"),
            (lambda ls: [*ls[:3], "foo = 1", *ls[3:]], 4, "unknown key foo"),
            (lambda ls: [*ls, "[foo]"], 413, "unknown section [foo]"),
            (lambda ls: [*ls[:9], "7 " + ls[9].split()[1], *ls[10:]], 10,
             "[k_x] z = 7 is not grid node 0"),
            (lambda ls: [*ls[:300], "0.4451 " + ls[300].split()[1], *ls[301:]], 301,
             "[r_x] z = 0.4451 is not grid node 0.445"),
        ],
        ids=[
            "missing-section", "truncated", "missing-key", "non-numeric", "nan", "inf-in-table",
            "length", "negative-grid", "zero-grid", "short-k_v", "duplicate-key", "duplicate-section", "unknown-key",
            "unknown-section", "off-grid-z", "off-grid-z-r_x",
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
        eigs = certify_stability(r.exo.S, r.decoupling.q_tilde_at_1, np.zeros(3), r.graph.leader_follower)
        assert -eigs.real.max() <= 0.0

    def test_benchmark_leader_certificate(self, leader_design):
        payload = certificate_payload(leader_design)
        assert leader_design.passed and payload["passed"]
        assert leader_design.alpha_ev > 0.9
        assert payload["alpha_ev"] == leader_design.alpha_ev
        assert payload["overall_alpha"] == pytest.approx(min(leader_design.alpha_ev, 5.0))
        assert payload["target_pde_top_eig"] == -5.0

    def test_benchmark_leaderless_certificate(self, leaderless_design):
        assert certificate_payload(leaderless_design)["mode"] == MODE_LEADERLESS
        assert leaderless_design.passed
        assert leaderless_design.closed_loop_eigs.size == 9

    @pytest.mark.parametrize("mode", [MODE_LEADER, MODE_LEADERLESS])
    def test_alpha_is_worst_per_eigenvalue_block_on_random_graphs(self, request, mode):
        # sigma(I (x) S - C (x) q~(1) k_v^T) is the union over lambda in sigma(C)
        # of sigma(S - lambda q~(1) k_v^T); a scaled k_v makes both verdicts occur
        leader = mode == MODE_LEADER
        r = request.getfixturevalue("leader_design" if leader else "leaderless_design")
        g = r.decoupling.q_tilde_at_1
        rng = np.random.default_rng(7)
        verdicts = set()
        for scale in np.random.default_rng(8).uniform(-1.0, 2.0, 200):
            graph = laplacian(random_connected_topology(rng, with_leader=leader))
            coupling = graph.leader_follower if leader else graph.synchronization
            k_v = r.gains.k_v * scale
            alpha_ev = -certify_stability(r.exo.S, g, k_v, coupling).real.max()
            lams = np.linalg.eigvals(coupling)
            want = -max(
                np.linalg.eigvals(r.exo.S - lam * np.outer(g, k_v)).real.max() for lam in lams
            )
            # a repeated eigenvalue of the coupling makes both spectra only
            # sqrt(eps)-accurate, so it gets the looser bound
            gaps = np.abs(lams[:, None] - lams[None, :])
            np.fill_diagonal(gaps, np.inf)
            simple = gaps.min() > 1e-6 * np.abs(lams).max()
            assert abs(alpha_ev - want) <= (1e-10 if simple else 1e-6) * abs(want)
            assert (alpha_ev > 0) == (want > 0)
            verdicts.add(bool(alpha_ev > 0))
        assert verdicts == {True, False}

    def test_per_eigenvalue_blocks_hurwitz(self, leader_design):
        r = leader_design
        g = r.decoupling.q_tilde_at_1
        for lam in np.linalg.eigvals(r.graph.leader_follower):
            block = r.exo.S - lam * np.outer(g, r.gains.k_v)
            assert np.linalg.eigvals(block).real.max() < 0

    def test_negative_mu_c_fails_certificate(self, leader_scenario):
        numerics = dataclasses.replace(leader_scenario.numerics, mu_c=-5.0)
        result = run_synthesis(dataclasses.replace(leader_scenario, numerics=numerics), m=64)
        hurwitz = result.hypotheses[-1]
        assert hurwitz.name == "closed-loop matrix Hurwitz"
        assert result.alpha_ev > 0 and not hurwitz.passed
        assert "mu_c = -5" in hurwitz.evidence
        assert not result.passed
        assert not certificate_payload(result)["passed"]

    def test_overflowing_closed_loop_matrix_raises(self, leader_design):
        # finite weights whose Kronecker product with q~(1) k_v^T overflows
        r = leader_design
        coupling = np.full((4, 4), 1e308)
        with np.errstate(all="raise"), pytest.raises(NumericalBlowup, match="overflows"):
            certify_stability(r.exo.S, r.decoupling.q_tilde_at_1, r.gains.k_v, coupling)


class TestRankChecks:
    def test_benchmark_leader(self, leader_design):
        assert internal_model_rank_check(MODE_LEADER, leader_design.graph)[0]

    def test_edgeless_graph(self):
        from coopreg.comm_graph import CommTopology

        graph = laplacian(CommTopology(adjacency=np.zeros((3, 3))))
        assert not internal_model_rank_check(MODE_LEADER, graph)[0]

    def test_benchmark_leaderless_rank(self, leaderless_design):
        r = leaderless_design
        assert internal_model_rank_check(MODE_LEADERLESS, r.graph)[0]
        h_tilde = r.graph.laplacian[:, 1:]
        assert h_tilde.shape == (4, 3)
        assert np.linalg.matrix_rank(h_tilde) == 3


class TestNeumannBvp:
    @pytest.mark.parametrize(
        "m, a_mat",
        [
            (8, 4.0 * np.eye(3) + np.random.default_rng(8).normal(size=(3, 3))),
            (33, 5.0 * np.eye(2) + frequency_blocks([np.pi])[0].T),
            (40, np.array([[6.0, 1.0], [0.0, 6.0]])),   # one Jordan block
        ],
        ids=["random", "rotation", "jordan"],
    )
    def test_matches_dense_ghost_node_system(self, m, a_mat):
        from coopreg.synthesis import _neumann_bvp

        rng = np.random.default_rng(m)
        n = a_mat.shape[0]
        rhs = rng.normal(size=(n, m + 1))
        gamma0, gamma1, jump = rng.normal(size=(3, n))
        deltas = [(0.37, jump)]
        got = _neumann_bvp(a_mat, rhs, gamma0, gamma1, deltas)
        want = dense_neumann_bvp(a_mat, rhs, gamma0, gamma1, deltas)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_singular_problem_raises(self):
        from coopreg.synthesis import _neumann_bvp

        # A = 0 leaves the constants in the kernel of the Neumann operator
        with pytest.raises(SingularSystem):
            _neumann_bvp(np.zeros((2, 2)), np.zeros((2, 17)), np.zeros(2), np.zeros(2))


class TestSyncSteadyState:
    def test_homogeneous_problem_vanishes(self):
        from coopreg.synthesis import _neumann_bvp

        s, _ = frequency_blocks([np.pi])
        a_mat = 5.0 * np.eye(2) + s.T
        out = _neumann_bvp(a_mat, np.zeros((2, 101)), np.zeros(2), np.zeros(2))
        assert np.abs(out).max() < 1e-12

    def test_benchmark_maps(self, leaderless_design):
        r = leaderless_design
        ss = sync_steady_state(r.exo.S, r.gains.k_v, 5.0, r.output_transformed)
        m = r.kernel.m
        assert ss.sigma1.shape == (3, m + 1) and ss.y_map.shape == (3,)
        # sigma1'' = (mu_c I + S^T) sigma1 with sigma1'(0) = 0 and sigma1'(1) = k_v
        a_mat = 5.0 * np.eye(3) + r.exo.S.T
        want = dense_neumann_bvp(a_mat, np.zeros((3, m + 1)), np.zeros(3), r.gains.k_v)
        assert np.abs(ss.sigma1 - want).max() <= 1e-12 * np.abs(want).max()
        # the output functional (no point weights here) read state by state
        out = r.output_transformed
        assert out.point_weights == ()
        read = np.trapezoid(ss.sigma1 * out.smooth_weight.values, dx=1.0 / m, axis=1)
        cb0, cb1 = out.boundary_weights
        read += cb0 * ss.sigma1[:, 0] + cb1 * ss.sigma1[:, -1]
        assert np.abs(ss.y_map - read).max() <= 1e-12 * np.abs(read).max()

    def test_benchmark_bvp_residuals(self, leaderless_design):
        r = leaderless_design
        ss = sync_steady_state(r.exo.S, r.gains.k_v, 5.0, r.output_transformed)
        m = r.kernel.m
        coarse = np.linspace(0.0, 1.0, m + 1)
        fine = np.linspace(0.0, 1.0, 2 * m + 1)
        table = np.stack([make_interp_spline(coarse, row, k=5)(fine) for row in ss.sigma1])
        h_fine = 0.5 / m
        second = (table[:, 2:] - 2.0 * table[:, 1:-1] + table[:, :-2]) / h_fine**2
        residual = second - (5.0 * np.eye(3) + r.exo.S.T) @ table[:, 1:-1]
        assert np.abs(residual).max() < 1e-3

    def test_resonant_target_spectrum_raises(self, leaderless_design):
        # the disturbance mode 0 of S meets -mu_c - pi^2 at mu_c = -pi^2
        r = leaderless_design
        with pytest.raises(ResonantSpectrum):
            sync_steady_state(r.exo.S, r.gains.k_v, -np.pi**2, r.output_transformed)


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
