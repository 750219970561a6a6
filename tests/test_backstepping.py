"""Kernel equations, inverse kernel, transforms, output-weight pushforward."""

import subprocess
import sys
import tracemalloc
import warnings
from importlib.resources import files

import numpy as np
import pytest

from coopreg.backstepping import (
    OutputOperator,
    TriangularKernel,
    _kernel_levels,
    invert_kernel,
    solve_kernel,
    transform_output_weight,
)
from coopreg.cli import run_synthesis
from coopreg.errors import GridMismatch, SingularSystem
from coopreg.grid import GridFunction, cumulative_trapezoid, hat_row, uniform_nodes
from coopreg.scenario import load_scenario
from coopreg.simulator import AgentSpec, SimTrace, transform_state_trace
from coopreg.synthesis import solve_decoupling

from _support import (
    composed_output_weight,
    dense_kernel_table,
    dense_output_row,
    first_output,
    kernel_iteration_map,
    kernel_residual,
    kernel_residual_rows,
    pack,
    random_smooth_profile,
    reciprocity_map,
    triangular_inverse_kernel,
    unpack,
)


def benchmark_kernel(m=200):
    return solve_kernel(lambda z: z + 1.0, q0=3.0, mu_c=5.0, m=m)


def constant_kernel(c: float, m: int) -> TriangularKernel:
    return TriangularKernel(np.full((m + 1) * (m + 2) // 2, c))


def packed_bytes(m: int) -> int:
    """Bytes of the packed float triangle of an m-interval kernel."""
    return 8 * (m + 1) * (m + 2) // 2


def traced_peak(call) -> int:
    """Peak bytes tracemalloc sees allocated while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def forward(k: TriangularKernel, profiles) -> np.ndarray:
    """x~ of each profile, as ``transform_state_trace`` computes it for a recorded trace."""
    x = np.asarray(profiles, dtype=float)[None]
    trace = SimTrace(
        times=np.zeros(1), reference=np.zeros(1), outputs=np.zeros((1, x.shape[1])),
        inputs=np.zeros((1, x.shape[1])), states_v=np.zeros(x.shape[:2] + (0,)), states_x=x,
    )
    n = x.shape[1]
    _, x_tilde = transform_state_trace(trace, k, np.zeros((0, k.m + 1)), np.zeros((n, n)))
    return x_tilde[0]


class TestCumulativeTrapezoid:
    @pytest.mark.parametrize("shape, axis", [((401,), -1), ((401, 201), 0), ((401, 201), 1)])
    def test_bit_identical_to_scipy(self, shape, axis):
        from scipy.integrate import cumulative_trapezoid as scipy_cumulative_trapezoid

        y = np.random.default_rng(7).standard_normal(shape)
        expected = scipy_cumulative_trapezoid(y, dx=0.0125, axis=axis, initial=0.0)
        assert np.array_equal(cumulative_trapezoid(y, dx=0.0125, axis=axis), expected)

    def test_package_import_leaves_out_scipy_integrate(self):
        probe = (
            "import sys, coopreg, coopreg.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.special', 'scipy.optimize') "
            "if m in sys.modules))"
        )
        res = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert res.stdout.strip() == "[]"


class TestHatRow:
    @pytest.mark.parametrize("m", [32, 49, 200, 800])
    def test_interpolates_linear_profiles(self, m):
        # the row sums to 1 and reproduces a + b z at any z in (0, 1)
        rng = np.random.default_rng(m)
        a, b = rng.normal(size=2)
        for z in rng.random(50):
            row = hat_row(z, m)
            assert row.sum() == pytest.approx(1.0, abs=1e-15)
            assert row @ (a + b * uniform_nodes(m)) == pytest.approx(a + b * z, abs=1e-14)
            assert np.count_nonzero(row) <= 2

    @pytest.mark.parametrize("m", [32, 49, 200, 800])
    def test_unit_weight_on_nodes(self, m):
        # j / m is rounded, so z m misses j by up to a few ulps of m
        for j in range(m + 1):
            assert np.abs(hat_row(j / m, m) - np.eye(m + 1)[j]).max() <= 2.0 * np.spacing(m)

    @pytest.mark.parametrize("m", [32, 49, 200, 800])
    def test_stays_inside_the_grid_below_one(self, m):
        row = hat_row(np.nextafter(1.0, 0.0), m)
        assert row.shape == (m + 1,)
        assert set(np.flatnonzero(row)) <= {m - 1, m}
        assert row[m] == pytest.approx(1.0, abs=1e-12)


class TestSolveKernel:
    def test_vanishing_data_gives_zero_kernel(self):
        k = solve_kernel(lambda z: 0.0 * z, q0=0.0, mu_c=0.0, m=64)
        assert np.abs(k.packed).max() == 0.0

    def test_benchmark_diagonal_identity(self):
        k = benchmark_kernel()
        z = k.nodes
        exact = 3.0 - 0.5 * (6.0 * z + 0.5 * z**2)
        assert np.abs(k.diagonal() - exact).max() < 1e-12
        assert k.diagonal()[-1] == pytest.approx(-0.25, abs=1e-12)

    def test_interior_residual_second_order(self):
        r100 = kernel_residual(benchmark_kernel(100), lambda z: z + 1.0, 5.0)
        r200 = kernel_residual(benchmark_kernel(200), lambda z: z + 1.0, 5.0)
        assert r200 < 5e-3
        assert np.log2(r100 / r200) >= 1.8

    @pytest.mark.parametrize("m", [32, 33, 64, 200, 800])
    @pytest.mark.parametrize(
        "a, q0", [(lambda z: z + 1.0, 3.0), (lambda z: np.sin(3.0 * z), -1.0)],
        ids=["benchmark", "sine"],
    )
    def test_residual_equals_row_loop(self, a, q0, m):
        k = solve_kernel(a, q0, 5.0, m)
        assert kernel_residual(k, a, 5.0) == kernel_residual_rows(k, a, 5.0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_residual_of_coarse_tables_equals_row_loop(self, m):
        k = TriangularKernel(pack(np.random.default_rng(m).standard_normal((m + 1, m + 1))))
        expected = kernel_residual_rows(k, lambda z: z + 1.0, 5.0)
        assert kernel_residual(k, lambda z: z + 1.0, 5.0) == expected
        assert (expected == 0.0) == (m < 5)

    def test_robin_edge_condition(self):
        k = benchmark_kernel()
        v, h = unpack(k), k.h
        i = np.arange(2, k.m + 1)
        slope = (-3.0 * v[i, 0] + 4.0 * v[i, 1] - v[i, 2]) / (2.0 * h)
        assert np.abs(slope - 3.0 * v[i, 0]).max() < 2e-3

    def test_deterministic(self):
        k1, k2 = benchmark_kernel(100), benchmark_kernel(100)
        assert np.array_equal(k1.packed, k2.packed)

    def test_accepts_grid_function_coefficient(self):
        prof = GridFunction(uniform_nodes(400) + 1.0)
        k = solve_kernel(prof, q0=3.0, mu_c=5.0, m=100)
        assert k.diagonal()[-1] == pytest.approx(-0.25, abs=1e-10)

    @pytest.mark.parametrize(
        "a, q0, mu_c",
        [
            (lambda z: z + 1.0, 3.0, 5.0),
            (lambda z: z + 1.0, 0.0, 5.0),
            (lambda z: np.sin(3.0 * z), -1.0, 5.0),
            (GridFunction(uniform_nodes(400) + 1.0), 3.0, 5.0),
            (lambda z: z + 1.0, 3.0, -1.6e4),
        ],
        ids=["benchmark", "q0 zero", "q0 negative", "grid function", "mu_c -1.6e4"],
    )
    def test_march_is_fixed_point_of_iteration_map(self, a, q0, mu_c):
        m = 64
        lattice = np.zeros((2 * m + 1, m + 1))
        for q, level in enumerate(_kernel_levels(a, q0, mu_c, m)):
            lattice[q : 2 * m + 1 - q, q] = level
        change = kernel_iteration_map(a, q0, mu_c, lattice) - lattice
        assert np.abs(change).max() <= 1e-12 * np.abs(lattice).max()
        k = solve_kernel(a, q0, mu_c, m)
        ii, jj = np.tril_indices(m + 1)
        assert np.array_equal(k.entries(ii, jj), lattice[ii + jj, ii - jj])

    def test_under_resolved_grid_raises_singular_system(self):
        with pytest.raises(SingularSystem, match="grid_points >= 71"):
            solve_kernel(lambda z: z + 1.0, q0=3.0, mu_c=2e4, m=64)
        k = solve_kernel(lambda z: z + 1.0, q0=3.0, mu_c=1e4, m=64)
        assert np.all(np.isfinite(k.packed))

    @pytest.mark.parametrize("m", [16, 31, 64.0, 64.5, "64"])
    def test_grid_must_be_an_integer_above_the_floor(self, m):
        with pytest.raises(ValueError, match=f"at least 32 intervals, got {m}$"):
            solve_kernel(lambda z: z + 1.0, q0=3.0, mu_c=5.0, m=m)

    def test_accepts_numpy_integer_grid(self):
        k = solve_kernel(lambda z: z + 1.0, q0=3.0, mu_c=5.0, m=np.int64(64))
        assert np.array_equal(k.packed, benchmark_kernel(64).packed)

    @pytest.mark.parametrize("m", [32, 64, 200, 800])
    @pytest.mark.parametrize(
        "a, q0, mu_c",
        [(lambda z: z + 1.0, 3.0, 5.0), (lambda z: np.sin(3.0 * z), -1.0, -900.0)],
        ids=["benchmark", "sine"],
    )
    def test_packed_entries_equal_the_dense_writer(self, a, q0, mu_c, m):
        dense = dense_kernel_table(a, q0, mu_c, m)
        assert np.array_equal(np.isnan(dense), ~np.tri(m + 1, dtype=bool))
        k = solve_kernel(a, q0, mu_c, m)
        assert np.array_equal(k.packed.view(np.uint64), pack(dense).view(np.uint64))
        ii, jj = np.tril_indices(m + 1)
        assert np.array_equal(k.entries(ii, jj).view(np.uint64), dense[ii, jj].view(np.uint64))

    def test_march_out_of_float_range_raises_without_warnings(self):
        # h^2 max|mu_c + a| = 3.75 passes the grid guard, but the prefix
        # product of the level recurrence underflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystem, match="floating-point range"):
                solve_kernel(lambda z: z + 1.0, q0=3.0, mu_c=-2.4e6, m=800)

    def test_partial_march_leaves_error_state(self):
        # the march ignores float errors one level at a time, never across a yield
        before = np.geterr()
        levels = _kernel_levels(lambda z: z + 1.0, 3.0, 5.0, 64)
        for _ in zip(range(32), levels):
            assert np.geterr() == before
        levels.close()
        assert np.geterr() == before


class TestTriangularKernel:
    @pytest.mark.parametrize("i, j", [(2, 5), (0, 1), (9, 0), (3, -1), (-1, 0)])
    def test_off_triangle_reads_rejected(self, i, j):
        k = constant_kernel(1.0, 8)
        with pytest.raises(IndexError, match="triangle"):
            k.entries(i, j)

    @pytest.mark.parametrize("j", [-1, 9])
    def test_off_triangle_columns_rejected(self, j):
        with pytest.raises(IndexError, match="column"):
            constant_kernel(1.0, 8).column(j)

    @pytest.mark.parametrize("m", [1, 2, 8, 33])
    def test_column_diagonal_and_entries_read_the_packed_order(self, m):
        table = np.random.default_rng(m).standard_normal((m + 1, m + 1))
        k = TriangularKernel(pack(table))
        assert k.m == m
        for j in range(m + 1):
            col = k.column(j)
            assert np.array_equal(col, table[j:, j]) and col.flags.c_contiguous
            assert not col.flags.writeable and np.shares_memory(col, k.packed)
        assert np.array_equal(k.diagonal(), np.diagonal(table))
        assert np.array_equal(unpack(k), np.tril(table))

    @pytest.mark.parametrize("i, j", [(3, 1), (0, 0), (8, 8), (8, 0)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_triangle_must_be_finite(self, i, j, bad):
        table = np.ones((9, 9))
        table[np.triu_indices(9, 1)] = bad
        TriangularKernel(pack(table))  # nothing above the diagonal is stored
        table[i, j] = bad
        with pytest.raises(ValueError, match="must be finite"):
            TriangularKernel(pack(table))

    @pytest.mark.parametrize(
        "shape, message",
        [
            ((0,), "at least 2 x 2"), ((1,), "at least 2 x 2"), ((2,), "length 2 is not"),
            ((4,), "length 4 is not"), ((3, 3), "one-dimensional"), ((), "one-dimensional"),
        ],
    )
    def test_table_shape_checked(self, shape, message):
        with pytest.raises(ValueError, match=message):
            TriangularKernel(np.ones(shape))

    def test_owns_one_copy_of_the_table(self):
        m = 800
        packed = benchmark_kernel(m).packed
        peak = traced_peak(lambda: TriangularKernel(packed))
        assert peak < 1.25 * packed_bytes(m)

    def test_constructor_leaves_the_callers_table_alone(self):
        packed = np.ones(45)
        k = TriangularKernel(packed)
        assert packed.flags.writeable and not k.packed.flags.writeable
        assert np.array_equal(packed, np.ones(45))
        assert not np.shares_memory(packed, k.packed)

    @pytest.mark.parametrize("m", [64, 800])
    def test_solve_kernel_hands_over_its_table(self, m):
        v = benchmark_kernel(m).packed
        assert not v.flags.writeable
        assert v.shape == ((m + 1) * (m + 2) // 2,)
        copied = TriangularKernel(v).packed
        assert np.array_equal(copied, v)
        assert not np.shares_memory(copied, v)

    @pytest.mark.parametrize(
        "make", [lambda: benchmark_kernel(64), lambda: constant_kernel(1.0, 8)],
        ids=["solved", "constructed"],
    )
    def test_table_cannot_be_made_writeable(self, make):
        k = make()
        with pytest.raises(ValueError):
            k.packed.flags.writeable = True

    def test_solve_kernel_keeps_one_table(self):
        m = 800
        peak = traced_peak(lambda: benchmark_kernel(m))
        assert peak <= 1.1 * packed_bytes(m)

    def test_design_peaks_below_one_square_table(self):
        # the whole design at m = 800 holds no (m + 1)^2 float table (5.13 MB)
        scenario = load_scenario(files("coopreg").joinpath("scenarios/four_agent_leader.cfg"))
        peak = traced_peak(lambda: run_synthesis(scenario, m=800))
        assert peak < 3.2e6


class TestInverseKernel:
    def test_zero_kernel(self):
        ki = invert_kernel(constant_kernel(0.0, 32), np.eye(33))
        assert np.abs(ki).max() == 0.0

    def test_diagonal_carries_over(self):
        k = benchmark_kernel(100)
        ki = invert_kernel(k, np.eye(k.m + 1))
        assert np.allclose(np.diagonal(ki), k.diagonal(), atol=1e-14)

    def test_satisfies_trapezoid_reciprocity(self):
        k = benchmark_kernel(200)
        ki = TriangularKernel(pack(invert_kernel(k, np.eye(k.m + 1))))
        gap = np.abs(reciprocity_map(k, ki) - unpack(ki)).max()
        assert gap <= 1e-13 * np.abs(ki.packed).max()

    @pytest.mark.parametrize("width", [60, 70])
    def test_rows_of_another_grid_raise_grid_mismatch(self, width):
        with pytest.raises(GridMismatch, match="kernel grid 64"):
            invert_kernel(benchmark_kernel(64), np.ones((2, width)))

    def test_vanishing_closure_factor_raises_singular_system(self):
        # h k(z, z)/2 = 1 on a 32-interval grid
        with pytest.raises(SingularSystem, match="closure factor"):
            invert_kernel(constant_kernel(64.0, 32), np.eye(33))

    @pytest.mark.parametrize("m", [64, 200, 800])
    @pytest.mark.parametrize("name", ["four_agent_leader.cfg", "four_agent_leaderless.cfg"])
    def test_matches_lapack_triangular_solve(self, name, m):
        scenario = load_scenario(files("coopreg").joinpath(f"scenarios/{name}"))
        plant = scenario.plant(m)
        k = solve_kernel(plant.a, plant.q0, scenario.numerics.mu_c, m)
        expected = triangular_inverse_kernel(k)
        gap = np.abs(invert_kernel(k, np.eye(k.m + 1)) - expected).max()
        assert gap <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize(
        "q0, mu_c, m", [(1e300, 5.0, 200), (3.0, 1e4, 64)], ids=["q0 1e300", "mu_c 1e4"]
    )
    def test_overflow_raises_where_lapack_overflows(self, q0, mu_c, m):
        k = solve_kernel(lambda z: z + 1.0, q0=q0, mu_c=mu_c, m=m)
        assert not np.isfinite(triangular_inverse_kernel(k)).all()
        with pytest.raises(SingularSystem, match="inverse kernel overflows"):
            invert_kernel(k, np.eye(k.m + 1))

    @pytest.mark.parametrize("m", [32, 64, 200, 800])
    @pytest.mark.parametrize("name", ["four_agent_leader.cfg", "four_agent_leaderless.cfg"])
    def test_rows_match_lapack_table(self, name, m):
        scenario = load_scenario(files("coopreg").joinpath(f"scenarios/{name}"))
        plant = scenario.plant(m)
        k = solve_kernel(plant.a, plant.q0, scenario.numerics.mu_c, m)
        table = triangular_inverse_kernel(k)
        rng = np.random.default_rng(m)
        blocks = [rng.standard_normal((n, m + 1)) for n in range(1, 6)]
        blocks.append(np.array([hat_row(z, m) for z in rng.uniform(0.01, 0.99, 4)]))
        for rows in blocks:
            expected = rows @ table
            gap = np.abs(invert_kernel(k, rows) - expected).max()
            assert gap <= 1e-13 * np.abs(expected).max()

    def test_reads_rows_without_a_square_table(self, monkeypatch):
        m = 800
        k = benchmark_kernel(m)
        rows = np.random.default_rng(3).standard_normal((3, m + 1))
        monkeypatch.setattr(np.linalg, "solve", None)
        assert traced_peak(lambda: invert_kernel(k, rows)) < 8 * (m + 1) ** 2

    def test_pulls_back_without_a_square_table(self, monkeypatch):
        m = 800
        k = benchmark_kernel(m)
        op = OutputOperator(GridFunction(-uniform_nodes(m)), boundary_weights=(1.0, 1.0))
        op = transform_output_weight(op, k)
        s = np.array([[0.0, 1.0], [-1.0, 0.0]])
        monkeypatch.setattr(np, "tril", None)
        peak = traced_peak(lambda: solve_decoupling(s, np.ones(2), op, 5.0, k))
        assert peak < 8 * (m + 1) ** 2

    def test_composition_is_identity(self):
        m = 200
        k = benchmark_kernel(m)
        ki = TriangularKernel(pack(invert_kernel(k, np.eye(m + 1))))
        rng = np.random.default_rng(7)
        bound = 10.0 / m**2
        profiles = np.stack([random_smooth_profile(rng, m, 6) for _ in range(10)])
        x_tilde = forward(k, profiles)
        # inverse transform x = x~ + int_0^z k_I(z, .) x~
        back = x_tilde + x_tilde @ ki.integral_operator().T
        for prof, prof_back in zip(profiles, back):
            rel = np.linalg.norm(prof_back - prof) / np.linalg.norm(prof)
            assert rel < bound


class TestTransforms:
    def test_zero_kernel_is_identity(self):
        m = 50
        prof = GridFunction(np.sin(3 * uniform_nodes(m)))
        out = forward(constant_kernel(0.0, m), [prof.values])[0]
        assert np.array_equal(out, prof.values)

    def test_zero_profile_maps_to_zero(self):
        out = forward(constant_kernel(2.0, 50), [np.zeros(51)])[0]
        assert np.abs(out).max() == 0.0

    def test_constant_kernel_closed_form(self):
        m, c = 80, 1.5
        ones = GridFunction.constant(1.0, m)
        fwd = forward(constant_kernel(c, m), [ones.values])[0]
        assert np.allclose(fwd, 1.0 - c * ones.nodes, atol=1e-14)
        # inverse transform x = x~ + int_0^z k_I(z, .) x~ with k_I = c
        inv = ones.values + constant_kernel(c, m).integral_operator() @ ones.values
        assert np.allclose(inv, 1.0 + c * ones.nodes, atol=1e-14)


class TestOutputOperator:
    def test_point_locations_must_be_interior(self):
        with pytest.raises(ValueError):
            OutputOperator(
                GridFunction.constant(0.0, 10), point_weights=((1.0, 1.0),)
            )

    def test_apply_combines_all_terms(self):
        m = 100
        op = OutputOperator(
            GridFunction(-uniform_nodes(m)),
            point_weights=((2.0, 0.3),),
            boundary_weights=(1.0, 1.0),
        )
        zero = GridFunction.constant(0.0, m)
        agent = AgentSpec(delta_lambda=zero, delta_a=zero)
        y = first_output(agent, op, uniform_nodes(m))
        # exact: int -z*z = -1/3, point 2*0.3, borders 0 and 1
        assert y == pytest.approx(-1.0 / 3.0 + 0.6 + 1.0, abs=1e-4)

    @pytest.mark.parametrize("m", [32, 200])
    def test_row_matches_interp_reference(self, m):
        # two point weights, one on the node z = 0.5, and both boundary samples
        op = OutputOperator(
            GridFunction(np.cos(3.0 * uniform_nodes(m))),
            point_weights=((2.0, 0.3), (-1.5, 0.5)),
            boundary_weights=(0.4, -1.3),
        )
        zero = GridFunction.constant(0.0, m)
        expected = dense_output_row(op, AgentSpec(delta_lambda=zero, delta_a=zero), m)
        assert np.abs(op.row() - expected).max() <= 1e-15 * np.abs(expected).max()


class TestTransformOutputWeight:
    def test_zero_inverse_kernel_keeps_operator(self):
        m = 60
        op = OutputOperator(
            GridFunction(-uniform_nodes(m)),
            point_weights=((2.0, 0.25),),
            boundary_weights=(1.0, 1.0),
        )
        out = transform_output_weight(op, constant_kernel(0.0, m))
        assert np.array_equal(out.smooth_weight.values, op.smooth_weight.values)
        assert out.point_weights == op.point_weights
        assert out.boundary_weights == op.boundary_weights

    def test_pure_boundary_weight_reads_top_row(self):
        m = 100
        k = benchmark_kernel(m)
        ki = invert_kernel(k, np.eye(m + 1))
        op = OutputOperator(GridFunction.constant(0.0, m), boundary_weights=(0.0, 1.0))
        out = transform_output_weight(op, k)
        assert np.allclose(out.smooth_weight.values, ki[m, :], atol=1e-14)

    def test_point_weight_adds_truncated_row(self):
        m = 100
        k = benchmark_kernel(m)
        ki = invert_kernel(k, np.eye(m + 1))
        op = OutputOperator(GridFunction.constant(0.0, m), point_weights=((2.0, 0.5),))
        out = transform_output_weight(op, k)
        expected = 2.0 * ki[50, :] * (k.nodes < 0.5)
        assert np.allclose(out.smooth_weight.values, expected, atol=1e-14)

    def test_benchmark_weight_converges_under_refinement(self):
        def transformed(m):
            op = OutputOperator(
                GridFunction(-uniform_nodes(m)), boundary_weights=(1.0, 1.0)
            )
            return transform_output_weight(op, benchmark_kernel(m)).smooth_weight.values

        coarse, fine = transformed(100), transformed(200)
        assert np.abs(fine[::2] - coarse).max() < 1e-4

    @pytest.mark.parametrize("m", [64, 200, 800])
    @pytest.mark.parametrize("name", ["four_agent_leader.cfg", "four_agent_leaderless.cfg"])
    def test_matches_composition_with_inverse_table(self, name, m):
        scenario = load_scenario(files("coopreg").joinpath(f"scenarios/{name}"))
        plant = scenario.plant(m)
        k = solve_kernel(plant.a, plant.q0, scenario.numerics.mu_c, m)
        expected = composed_output_weight(plant.output, k)
        out = transform_output_weight(plant.output, k).smooth_weight.values
        assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("m", [64, 200, 800])
    def test_point_and_boundary_weights_match_composition(self, m):
        # one point weight sits on the node z = 0.5
        op = OutputOperator(
            GridFunction(np.cos(3.0 * uniform_nodes(m))),
            point_weights=((2.0, 0.3), (-1.5, 0.5), (0.7, 0.81)),
            boundary_weights=(0.4, -1.3),
        )
        k = benchmark_kernel(m)
        expected = composed_output_weight(op, k)
        out = transform_output_weight(op, k).smooth_weight.values
        assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_overflowing_weight_raises_singular_system(self):
        m = 64
        op = OutputOperator(GridFunction.constant(0.0, m), boundary_weights=(0.0, 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystem, match="transformed output weight overflows"):
                transform_output_weight(op, constant_kernel(2.0, m))
