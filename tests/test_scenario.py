"""Scenario parsing, validation, serialization, expressions, and the CLI."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopreg.backstepping import solve_kernel
from coopreg.cli import main, write_snapshot_csv
from coopreg.errors import ParseError, SchemaError, ToolkitError
from coopreg.expressions import Expression
from coopreg.scenario import load_scenario, loads, serialize
from coopreg.simulator import SimTrace, simulate
from coopreg.synthesis import MODE_LEADER, write_gains_file

from _support import unpack


def _grammar_expressions():
    """Pairs (expression source, the same expression as Python text).

    In the Python text `^` is `**` and each literal is an array of the
    evaluation point's shape, as the compiled expression treats it.
    """
    space = st.sampled_from(["", " "])
    number = st.from_regex(r"\A([0-9]{1,3}(\.[0-9]{0,2})?|\.[0-9]{1,2})([eE][+-]?[0-9]{1,2})?\Z")
    leaves = st.sampled_from([("z", "z"), ("pi", "pi"), ("e", "e")]) | number.map(
        lambda lit: (lit, f"_c({lit!r})")
    )

    def extend(inner):
        binary = st.tuples(inner, st.sampled_from("+-*/^"), space, inner).map(
            lambda t: (
                f"{t[0][0]}{t[2]}{t[1]}{t[2]}{t[3][0]}",
                f"{t[0][1]}{t[1].replace('^', '**')}{t[3][1]}",
            )
        )
        unary = st.tuples(st.sampled_from("+-"), inner).map(
            lambda t: (t[0] + t[1][0], t[0] + t[1][1])
        )
        call = st.tuples(st.sampled_from(["", "sin", "cos", "exp"]), inner).map(
            lambda t: (f"{t[0]}({t[1][0]})", f"{t[0]}({t[1][1]})")
        )
        return binary | unary | call

    return st.recursive(leaves, extend, max_leaves=10)


class TestExpressions:
    @pytest.mark.parametrize(
        "source, z, expected",
        [
            ("z + 1", 0.5, 1.5),
            ("2*z^2 + z", 2.0, 10.0),
            ("-z^2", 3.0, -9.0),
            ("sin(pi*z)", 0.5, 1.0),
            ("cos(0*z)", 0.3, 1.0),
            ("exp(z)/e", 1.0, 1.0),
            ("3*(z - 1)", 0.0, -3.0),
            ("--z", 2.0, 2.0),
            ("2^z^2", 2.0, 16.0),
            ("01", 0.3, 1.0),
            ("00.5", 0.3, 0.5),
            ("1.e1", 0.3, 10.0),
            (".5", 0.3, 0.5),
            ("z^-z^2", 2.0, 0.0625),
        ],
    )
    def test_values(self, source, z, expected):
        assert Expression(source)(z) == pytest.approx(expected, abs=1e-12)

    def test_vectorized_evaluation(self):
        nodes = np.linspace(0.0, 1.0, 11)
        out = Expression("2*z")(nodes)
        assert np.allclose(out, 2.0 * nodes)

    def test_constant_broadcasts(self):
        nodes = np.linspace(0.0, 1.0, 5)
        assert np.array_equal(Expression("3")(nodes), np.full(5, 3.0))

    @pytest.mark.parametrize(
        "source",
        [
            "", "z +", "foo(z)", "sin z", "(z", "z)", "1 2", "z $ 2",
            "z**2", "1_0", "0x1", "1j", "sin(z, z)", "exp(z,)", "z(1)", "z.real", "[z]",
            "z < 1", "True", "__import__('os')", "\uff53\uff49\uff4e(z)", "(sin)(z)",
        ],
    )
    def test_rejects_malformed(self, source):
        with pytest.raises(ParseError):
            Expression(source)

    def test_equality_by_source(self):
        assert Expression("z+1") == Expression("z+1")
        assert Expression("z+1") != Expression("z + 1")

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_grammar_expressions())
    def test_agrees_with_python_evaluation(self, pair):
        source, python_text = pair
        for z in (np.linspace(0.0, 1.0, 33), np.asarray(0.37)):
            names = {
                "__builtins__": {},
                "z": z,
                "_c": lambda lit, z=z: np.full_like(z, float(lit)),
                "pi": np.full_like(z, math.pi),
                "e": np.full_like(z, math.e),
                "sin": np.sin,
                "cos": np.cos,
                "exp": np.exp,
            }
            with np.errstate(all="ignore"):
                got = np.broadcast_to(Expression(source)(z), z.shape)
                want = np.broadcast_to(eval(python_text, names), z.shape)
            finite = np.isfinite(want)
            assert np.array_equal(np.isfinite(got), finite), source
            assert np.array_equal(got[~finite], want[~finite], equal_nan=True), source
            assert np.allclose(got[finite], want[finite], rtol=1e-12, atol=0.0), source


class TestParsing:
    def test_benchmark_file_values(self, leader_scenario):
        s = leader_scenario
        assert s.mode == MODE_LEADER
        assert (s.q0, s.q1) == (3.0, 0.0)
        assert (s.c_b0, s.c_b1) == (1.0, 1.0)
        assert s.adjacency == (
            (0.0, 0.0, 1.0, 0.0),
            (1.0, 0.0, 0.0, 1.0),
            (1.0, 0.0, 0.0, 0.0),
            (0.0, 0.0, 1.0, 0.0),
        )
        assert s.leader_links == (1.0, 0.0, 0.0, 0.0)
        assert s.reference_frequencies == (np.pi,)
        assert s.disturbance_frequencies == (0.0,)
        assert s.w0 == (2.0, 0.0, 1.0)
        assert s.numerics.mu_c == 5.0
        assert s.numerics.nu == 0.382
        assert s.numerics.riccati_a == 150.0
        assert s.numerics.b_y == (1.0, 1.0, 1.0)
        assert s.agents[0].v0 == (1.0, 3.5, 0.5)
        assert s.agents[1].v0 == (0.1, 2.0, 0.8)
        assert s.agents[2].v0 == (1.7, 0.8, 0.3)
        assert s.agents[3].v0 == (0.5, 0.7, 0.9)
        assert s.agents[3].delta_c_b0 == -0.05
        assert s.agents[3].delta_c_b1 == 0.1
        assert s.agents[1].P == ((0.0, 0.0, -3.0),)

    def test_agent_read_out_keeps_reference_columns(self, leader_scenario_text):
        text = leader_scenario_text.replace("p = 0 0 3", "p = 1 0 3", 1)
        assert np.array_equal(loads(text).exo_model().read_outs[0], [[1.0, 0.0, 3.0]])

    def test_round_trip(self, leader_scenario, leaderless_scenario):
        for s in (leader_scenario, leaderless_scenario):
            assert loads(serialize(s)) == s

    def test_round_trip_with_points_and_override(self, leader_scenario_text):
        text = leader_scenario_text.replace(
            "[output]", "[output]\npoints = 2 @ 0.3, -1.5 @ 0.7"
        ).replace("w0 = 2 0 1", "w0 = 2 0 1\np = 1 0 0")
        s = loads(text)
        assert s.points == ((2.0, 0.3), (-1.5, 0.7))
        assert s.p_override == (1.0, 0.0, 0.0)
        assert loads(serialize(s)) == s

    def test_hash_inside_text_value_kept(self, leader_scenario_text):
        text = leader_scenario_text.replace(
            "sample_every = 10", "sample_every = 10\nout_dir = runs/#1  # trailing comment"
        )
        assert loads(text).outputs.out_dir == "runs/#1"

    @pytest.mark.parametrize("out_dir", ["#1", "runs #1", " runs", "runs\n1", ""])
    def test_serialize_rejects_unwritable_text(self, leader_scenario, out_dir):
        outputs = dataclasses.replace(leader_scenario.outputs, out_dir=out_dir)
        with pytest.raises(ValueError, match="cannot be written"):
            serialize(dataclasses.replace(leader_scenario, outputs=outputs))

    def test_empty_file(self):
        with pytest.raises(ParseError):
            loads("")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ParseError) as info:
            loads("mode = leaderless\n[plant]\nbogus line\n")
        assert info.value.line == 3

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError):
            loads("mode = leaderless\nmode = leader-follower\n")

    def test_agent_count_mismatch_names_both_fields(self, leader_scenario_text):
        text = leader_scenario_text[: leader_scenario_text.index("[agent 4]")]
        with pytest.raises(SchemaError) as info:
            loads(text)
        message = str(info.value)
        assert "adjacency" in message and "agent" in message

    def test_all_violations_collected(self, leader_scenario_text):
        text = (
            leader_scenario_text.replace("mode = leader-follower", "mode = sideways")
            .replace("q0 = 3", "q0 = three")
            .replace("b_y = 1 1 1", "b_y = 1 1")
        )
        with pytest.raises(SchemaError) as info:
            loads(text)
        assert len(info.value.violations) >= 3

    def test_unknown_key_flagged(self, leader_scenario_text):
        for line in ("warp = 9", "kernel_tol = 1e-10", "kernel_max_iter = 200"):
            with pytest.raises(SchemaError) as info:
                loads(leader_scenario_text.replace("mu_c = 5", f"mu_c = 5\n{line}"))
            key = line.split(" = ")[0]
            assert any(repr(key) in v for v in info.value.violations)

    def test_multiline_matrix_continuation(self):
        text = (
            "mode = leaderless\n"
            "[plant]\na = z\nq0 = 0\nq1 = 0\n"
            "[graph]\n"
            "adjacency =\n  0 1\n  1 0\n"
            "[exosystem]\nreference_frequencies = 0\n"
            "[agent 1]\nv0 = 0\n"
            "[agent 2]\nv0 = 0\n"
        )
        s = loads(text)
        assert s.adjacency == ((0.0, 1.0), (1.0, 0.0))

    def test_point_weight_scenario_full_pipeline(self, leader_scenario_text):
        from coopreg.cli import run_synthesis
        from coopreg.simulator import error_metrics, simulate

        text = leader_scenario_text.replace(
            "[output]", "[output]\npoints = 0.5 @ 0.4"
        )
        scenario = loads(text)
        design = run_synthesis(scenario, m=64)
        assert design.passed
        trace = simulate(
            scenario.resolve(m=64, horizon=8.0), design.gains
        )
        metrics = error_metrics(trace, scenario.mode)
        assert metrics.tail_error < 0.1

    def test_resolved_initial_profiles(self, leader_scenario):
        resolved = leader_scenario.resolve(m=50)
        assert np.array_equal(
            resolved.agents[3].initial_profile.values, np.full(51, 3.0)
        )
        assert resolved.agents[1].g1[:, 0] == pytest.approx(
            3.0 * np.linspace(0.0, 1.0, 51) + 1.0
        )
        assert resolved.v0[0] == (1.0, 3.5, 0.5)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "coopreg.cli", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory, leader_scenario_text):
    path = tmp_path_factory.mktemp("cfg") / "lead.cfg"
    path.write_text(leader_scenario_text.replace("grid_points = 200", "grid_points = 64"))
    return path


class TestResolvedScenario:
    """A resolved scenario built or replaced in Python checks itself, as ``resolve`` does."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        ("probe", "violations"),
        [
            ({"n_steps": 0}, ["n_steps = 0 must be an integer of at least 1"]),
            ({"n_steps": 2.0}, ["n_steps = 2.0 must be an integer of at least 1"]),
            ({"sample_every": 0}, ["sample_every = 0 must be an integer of at least 1"]),
            ({"dt": -1e-3}, ["dt = -0.001 must be positive"]),
            ({"dt": float("nan")}, ["dt = nan must be positive"]),
            ({"blowup_bound": float("nan")}, ["blowup_bound = nan must be positive"]),
            ({"w0": (1.0, 0.0)}, ["w0 has 2 entries but needs 3, one per signal state"]),
            ({"w0": (math.inf, 0.0, 1.0)}, ["w0 = inf 0 1 must be finite"]),
            ({"v0": ((0.0, 0.0, 0.0),) * 3}, ["v0 has 3 rows but needs 4, one per agent"]),
            (
                {"v0": ((math.nan, 0.0, 0.0),) + ((0.0, 0.0, 0.0),) * 3},
                ["v0 = nan 0 0 ; 0 0 0 ; 0 0 0 ; 0 0 0 must be finite"],
            ),
            (
                {"dt": 0.0, "sample_every": -2, "w0": ()},
                [
                    "dt = 0.0 must be positive",
                    "sample_every = -2 must be an integer of at least 1",
                    "w0 has 0 entries but needs 3, one per signal state",
                ],
            ),
        ],
        ids=["n_steps_0", "n_steps_float", "sample_every_0", "dt_-1e-3", "dt_nan",
             "blowup_nan", "w0_2_entries", "w0_inf", "v0_3_rows", "v0_nan", "three_at_once"],
    )
    def test_rejects_what_simulate_cannot_step(self, leader_scenario, probe, violations):
        resolved = leader_scenario.resolve(m=64, horizon=0.01)
        with pytest.raises(SchemaError) as info:
            dataclasses.replace(resolved, **probe)
        assert info.value.violations == violations

    def test_snapshots_checked_on_the_step_grid(self, leader_scenario):
        resolved = leader_scenario.resolve(m=64, horizon=0.01)
        assert dataclasses.replace(resolved, snapshot_times=(0.0, 0.005, 0.01)).n_steps == 10
        with pytest.raises(SchemaError, match=r"snapshot_times \[0.02\] must be whole numbers "
                           r"of steps dt = 0.001 in \[0, horizon = 0.01\]"):
            dataclasses.replace(resolved, snapshot_times=(0.02,))


class TestCli:
    def test_synthesize_writes_artifacts(self, scenario_file, tmp_path):
        out = tmp_path / "syn"
        res = run_cli("synthesize", "--scenario", str(scenario_file), "--out", str(out))
        assert res.returncode == 0, res.stderr
        payload = json.loads((out / "certificate.json").read_text())
        assert payload["passed"] is True
        assert payload["error"] is None
        assert (out / "gains.txt").exists()

    def test_simulate_trace_columns_and_reproducibility(self, scenario_file, tmp_path):
        out = tmp_path / "sim"
        res = run_cli("synthesize", "--scenario", str(scenario_file), "--out", str(out))
        assert res.returncode == 0, res.stderr
        for sub in ("a", "b"):
            res = run_cli(
                "simulate", "--scenario", str(scenario_file),
                "--gains", str(out / "gains.txt"),
                "--out", str(out / sub), "--horizon", "0.5",
            )
            assert res.returncode == 0, res.stderr
        a = (out / "a" / "trace.csv").read_bytes()
        b = (out / "b" / "trace.csv").read_bytes()
        assert a == b
        header = a.decode().splitlines()[0]
        assert header == "t,r,y_1,y_2,y_3,y_4,e_1,e_2,e_3,e_4,u_1,u_2,u_3,u_4"
        metrics = (out / "a" / "metrics.txt").read_text()
        assert metrics.startswith("settling_time = ")

    def test_check_passes_on_benchmark(self, scenario_file):
        res = run_cli("check", "--scenario", str(scenario_file))
        assert res.returncode == 0, res.stdout + res.stderr
        assert "overall: PASS" in res.stdout

    @pytest.mark.filterwarnings("error")
    def test_check_hurwitz_row_names_mu_c(self, scenario_file, tmp_path, capsys):
        # F is Hurwitz at mu_c = -1, but the target system is not stable
        cfg = tmp_path / "unstable_target.cfg"
        cfg.write_text(scenario_file.read_text().replace("mu_c = 5", "mu_c = -1"))
        assert main(["check", "--scenario", str(cfg), "--grid-points", "64"]) == 1
        row = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("closed-loop matrix Hurwitz")
        )
        assert "max Re eig(F) < 0 < mu_c" in row
        assert "  FAIL  alpha_ev = " in row and row.endswith("mu_c = -1")

    def test_failed_design_writes_failed_certificate(self, scenario_file, tmp_path):
        text = scenario_file.read_text().replace(
            "adjacency = 0 0 1 0 ; 1 0 0 1 ; 1 0 0 0 ; 0 0 1 0",
            "adjacency = 0 0 0 0 ; 0 0 0 0 ; 0 0 0 0 ; 0 0 0 0",
        ).replace("leader_links = 1 0 0 0", "leader_links = 0 0 0 0")
        bad = tmp_path / "edgeless.cfg"
        bad.write_text(text)
        out = tmp_path / "fail"
        res = run_cli("synthesize", "--scenario", str(bad), "--out", str(out))
        assert res.returncode == 1
        payload = json.loads((out / "certificate.json").read_text())
        assert payload["passed"] is False
        assert payload["error"] == "NonPositiveBound"

    @pytest.mark.parametrize("mu_c", ["10000", "20000", "1e6"])
    def test_unusable_kernel_fails_cleanly(self, scenario_file, tmp_path, capsys, mu_c):
        cfg = tmp_path / "stiff.cfg"
        cfg.write_text(scenario_file.read_text().replace("mu_c = 5", f"mu_c = {mu_c}"))
        code = main(["check", "--scenario", str(cfg), "--grid-points", "64"])
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        row = next(line for line in captured.out.splitlines() if line.startswith("design pipeline"))
        assert "  FAIL  SingularSystem: " in row
        out = tmp_path / "out"
        code = main([
            "synthesize", "--scenario", str(cfg), "--grid-points", "64", "--out", str(out),
        ])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        payload = json.loads((out / "certificate.json").read_text())
        assert payload["passed"] is False
        assert payload["error"] == "SingularSystem"
        assert not (out / "gains.txt").exists()

    def test_designed_gains_of_other_mode_rejected(self, leader_design, leaderless_scenario):
        assert leader_design.gains.mode == MODE_LEADER
        resolved = leaderless_scenario.resolve(m=leader_design.m, horizon=0.1)
        with pytest.raises(ToolkitError, match="gains designed for leader-follower mode"):
            simulate(resolved, leader_design.gains)

    @pytest.mark.parametrize(
        ("edit", "code", "message"),
        [
            # reaction 3000 puts lambda_max(L) beyond 2 / dt: the step names the largest usable dt
            (("delta_a = 0.2*(z + 1)", "delta_a = 3000"), 1,
             "SingularStep: Crank-Nicolson matrix is not positive definite: dt = 0.001 must "
             "stay below 2 / lambda_max(L) = 0.000666"),
            # diffusion 1 + 1e300: the symmetrized off-diagonals stay finite
            (("delta_lambda = 0.2", "delta_lambda = 1e300"), 0, ""),
        ],
        ids=["reaction_beyond_dt_limit", "stiff_diffusion"],
    )
    def test_simulate_stiff_agent(
        self, leader_scenario_text, leader_design, tmp_path, edit, code, message
    ):
        # agent 1 of the leader file edited; the gains are the unmodified file's design
        old, new = edit
        text = leader_scenario_text.replace(f"\n{old}\n", f"\n{new}\n", 1)
        assert f"\n{new}\n" in text.split("[agent 2]")[0].split("[agent 1]")[1]
        cfg, gains = tmp_path / "edited.cfg", tmp_path / "gains.txt"
        cfg.write_text(text)
        write_gains_file(leader_design.gains, gains)
        res = subprocess.run(
            [sys.executable, "-m", "coopreg.cli", "simulate", "--scenario", str(cfg),
             "--gains", str(gains), "--out", str(tmp_path / "run"), "--horizon", "2"],
            capture_output=True, text=True, env={**os.environ, "PYTHONWARNINGS": "error"},
        )
        assert res.returncode == code, res.stderr
        assert message in res.stderr
        assert "Traceback" not in res.stderr and "Warning" not in res.stderr
        if code == 0:
            trace = np.loadtxt(tmp_path / "run" / "trace.csv", delimiter=",", skiprows=1)
            assert np.isfinite(trace).all()

    def test_check_fails_on_disconnected_graph(self, scenario_file, tmp_path):
        text = scenario_file.read_text().replace(
            "adjacency = 0 0 1 0 ; 1 0 0 1 ; 1 0 0 0 ; 0 0 1 0",
            "adjacency = 0 0 0 0 ; 0 0 0 0 ; 0 0 0 0 ; 0 0 0 0",
        ).replace("leader_links = 1 0 0 0", "leader_links = 0 0 0 0")
        undriven = text.replace("b_y = 1 1 1", "b_y = 0 0 0")
        for text, failing in (
            (text, ["graph connectivity"]),
            (undriven, ["graph connectivity", "internal-model rank", "signal-model controllability"]),
        ):
            bad = tmp_path / "disconnected.cfg"
            bad.write_text(text)
            res = run_cli("check", "--scenario", str(bad))
            assert res.returncode == 1
            assert "overall: FAIL" in res.stdout
            rows = {line.split("  ")[0]: line for line in res.stdout.splitlines()}
            for name in failing:
                assert "  FAIL  " in rows[name], res.stdout

    def test_check_reports_a_tiny_decoupled_pair(self, scenario_file, tmp_path, capsys):
        # q~(1) is about 2.6e-301: its squares underflow, its largest entry does not
        text = scenario_file.read_text()
        assert "b_y = 1 1 1" in text
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(text.replace("b_y = 1 1 1", "b_y = 1e-300 1e-300 1e-300"))
        assert main(["check", "--scenario", str(cfg), "--grid-points", "64"]) == 1
        row = next(line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("decoupled-pair controllability"))
        evidence = float(row.rpartition("max |q_tilde(1)| = ")[2])
        assert 1e-301 < evidence < 1e-300, row

    @pytest.mark.parametrize(
        "name, edit, evidence",
        [
            ("four_agent_leader.cfg", ("adjacency = 0 0 1 0 ;", "adjacency = 0 0 1e308 0 ;"),
             "FAIL  min sv = 0 over scale 1.41e+308"),
            ("four_agent_leader.cfg", None, "PASS  min sv = 0.252 over scale 3.02"),
            ("four_agent_leaderless.cfg", None, "PASS  rank = 3, min sv = 0.686"),
        ],
        ids=["heavy-edge", "leader", "leaderless"],
    )
    def test_check_reports_internal_model_rank_evidence(self, tmp_path, capsys, name, edit, evidence):
        text = files("coopreg").joinpath(f"scenarios/{name}").read_text()
        if edit is not None:
            assert text.count(edit[0]) == 1
            text = text.replace(*edit)
        cfg = tmp_path / "rank.cfg"
        cfg.write_text(text)
        assert main(["check", "--scenario", str(cfg), "--grid-points", "64"]) == (edit is not None)
        row = next(line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("internal-model rank"))
        assert row.endswith(evidence), row

    @pytest.mark.parametrize(
        "case, edits",
        [
            ("leader", []),
            ("leaderless", None),
            ("nu above margin", [("nu = 0.382", "nu = 0.5")]),
            (
                "edgeless",
                [
                    ("adjacency = 0 0 1 0 ; 1 0 0 1 ; 1 0 0 0 ; 0 0 1 0",
                     "adjacency = 0 0 0 0 ; 0 0 0 0 ; 0 0 0 0 ; 0 0 0 0"),
                    ("leader_links = 1 0 0 0", "leader_links = 0 0 0 0"),
                ],
            ),
            ("undriven", [("b_y = 1 1 1", "b_y = 0 0 0")]),
            ("resonant", [("mu_c = 5", "mu_c = 0")]),
            ("weak leader link", [("leader_links = 1 0 0 0", "leader_links = 1e-10 0 0 0")]),
        ],
    )
    def test_check_and_synthesize_share_verdict(self, scenario_file, tmp_path, capsys, case, edits):
        from importlib.resources import files

        if edits is None:
            text = files("coopreg").joinpath("scenarios/four_agent_leaderless.cfg").read_text()
            text = text.replace("grid_points = 200", "grid_points = 64")
        else:
            text = scenario_file.read_text()
            for old, new in edits:
                assert old in text
                text = text.replace(old, new)
        cfg = tmp_path / "case.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        synthesize_code = main(["synthesize", "--scenario", str(cfg), "--out", str(out)])
        passed = json.loads((out / "certificate.json").read_text())["passed"]
        capsys.readouterr()
        check_code = main(["check", "--scenario", str(cfg)])
        check_passed = "overall: PASS" in capsys.readouterr().out
        assert synthesize_code == check_code
        assert passed == check_passed == (check_code == 0)

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("synthesize", "--dt"),
            ("synthesize", "--horizon"),
            ("simulate", "--grid-points"),
            ("check", "--out"),
            ("check", "--dt"),
            ("check", "--horizon"),
        ],
    )
    def test_unread_flag_rejected(self, scenario_file, capsys, command, flag):
        gains = ["--gains", "gains.txt"] if command == "simulate" else []
        with pytest.raises(SystemExit) as info:
            main([command, "--scenario", str(scenario_file), *gains, flag, "1"])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["--scenario", "--gains"])
    def test_missing_input_file_exits_1(
        self, scenario_file, leader_design, tmp_path, capsys, missing
    ):
        paths = {"--scenario": scenario_file, "--gains": tmp_path / "gains.txt"}
        write_gains_file(leader_design.gains, paths["--gains"])
        paths[missing] = tmp_path / "absent.txt"
        code = main([
            "simulate", "--scenario", str(paths["--scenario"]),
            "--gains", str(paths["--gains"]), "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("FileNotFoundError: ") and "absent.txt" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.filterwarnings("error")
    def test_undecodable_scenario_rejected(self, scenario_file, tmp_path, capsys):
        data = scenario_file.read_bytes() + b"\xff"
        cfg = tmp_path / "binary.cfg"
        cfg.write_bytes(data)
        assert main(["check", "--scenario", str(cfg)]) == 1
        err = capsys.readouterr().err
        line = data.count(b"\n") + 1
        assert f"ParseError: line {line}: {cfg}: byte 0xff is not utf-8 text" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            ("gains.txt", lambda data: data.replace(b"# regulator", "# régulator".encode()),
             "line 1: {path}: byte 0xc3 is not ascii text"),
            ("certificate.json", lambda data: b'{"passed": tru', "line 1: {path}: Expecting value"),
            ("certificate.json", lambda data: b"[1, 2]", "{path} holds a JSON list, not an object"),
            ("certificate.json", lambda data: b"\xff\xfe", "line 1: {path}: byte 0xff is not ascii text"),
        ],
        ids=["gains-utf8", "certificate-truncated", "certificate-list", "certificate-bom"],
    )
    def test_unreadable_design_file_rejected(
        self, scenario_file, leader_design, tmp_path, capsys, name, edit, message
    ):
        gains = tmp_path / "gains.txt"
        write_gains_file(leader_design.gains, gains)
        path = tmp_path / name
        path.write_bytes(edit(path.read_bytes() if path.exists() else b""))
        out = tmp_path / "out"
        code = main([
            "simulate", "--scenario", str(scenario_file), "--gains", str(gains), "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"ParseError: {message.format(path=path)}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_snapshot_profiles_written(self, scenario_file, tmp_path):
        text = scenario_file.read_text().replace(
            "sample_every = 10", "sample_every = 10\nsnapshot_times = 0.1"
        )
        snap = tmp_path / "snap.cfg"
        snap.write_text(text)
        out = tmp_path / "snapout"
        res = run_cli("synthesize", "--scenario", str(snap), "--out", str(out))
        assert res.returncode == 0, res.stderr
        res = run_cli(
            "simulate", "--scenario", str(snap), "--gains", str(out / "gains.txt"),
            "--out", str(out), "--horizon", "0.2",
        )
        assert res.returncode == 0, res.stderr
        lines = (out / "profiles_t0.1.csv").read_text().splitlines()
        assert lines[0] == "z,x_1,x_2,x_3,x_4"
        assert len(lines) == 66  # header + 65 nodes

    def test_snapshot_times_alike_to_six_digits_get_their_own_files(self, tmp_path):
        # :g prints 1000.001 and 1000.002 alike, as 1000; 0.1 keeps its :g name
        times = (0.1, 1000.001, 1000.002)
        empty = np.zeros((0, 4))
        snapshots = {t: np.full((4, 65), t) for t in times}
        write_snapshot_csv(SimTrace(empty[:, 0], empty[:, 0], empty, empty, snapshots), tmp_path)
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "profiles_t0.1.csv", "profiles_t1000.001.csv", "profiles_t1000.002.csv"
        ]
        for t in times:
            table = np.loadtxt(tmp_path / f"profiles_t{t!r}.csv", delimiter=",", skiprows=1)
            assert table.shape == (65, 5) and (table[:, 1:] == t).all()

    def test_kernel_csv_dump(self, scenario_file, tmp_path):
        out = tmp_path / "dump"
        res = run_cli(
            "synthesize", "--scenario", str(scenario_file), "--out", str(out),
            "--kernel-csv",
        )
        assert res.returncode == 0
        lines = (out / "kernel.csv").read_text().splitlines()
        assert lines[0] == "i,j,z,zeta,value"
        assert len(lines) == 1 + 65 * 66 // 2
        # rows run over (i, j <= i) row-major, each value the kernel entry to the bit
        table = np.loadtxt(out / "kernel.csv", delimiter=",", skiprows=1)
        i, j = np.tril_indices(65)
        assert np.array_equal(table[:, 0], i) and np.array_equal(table[:, 1], j)
        nodes = np.linspace(0.0, 1.0, 65)
        assert np.array_equal(table[:, 2], nodes[i]) and np.array_equal(table[:, 3], nodes[j])
        scenario = load_scenario(scenario_file)
        plant = scenario.plant(64)
        kernel = solve_kernel(plant.a, plant.q0, scenario.numerics.mu_c, 64)
        assert np.array_equal(table[:, 4], unpack(kernel)[i, j])

    def test_leaderless_cli_round(self, tmp_path):
        from importlib.resources import files

        text = files("coopreg").joinpath("scenarios/four_agent_leaderless.cfg").read_text()
        cfg = tmp_path / "leaderless.cfg"
        cfg.write_text(text.replace("grid_points = 200", "grid_points = 64"))
        out = tmp_path / "out"
        res = run_cli("synthesize", "--scenario", str(cfg), "--out", str(out))
        assert res.returncode == 0, res.stderr
        res = run_cli("check", "--scenario", str(cfg))
        assert res.returncode == 0, res.stdout + res.stderr
        assert "rank H_tilde = N - 1" in res.stdout
        res = run_cli(
            "simulate", "--scenario", str(cfg), "--gains", str(out / "gains.txt"),
            "--out", str(out), "--horizon", "0.5",
        )
        assert res.returncode == 0, res.stderr
        assert "tail_sync_error" in (out / "metrics.txt").read_text()

    @pytest.mark.parametrize("name", ["four_agent_leader.cfg", "four_agent_leaderless.cfg"])
    def test_simulate_reports_step_rate_and_peak(self, name, tmp_path):
        from importlib.resources import files

        cfg = tmp_path / name
        cfg.write_text(files("coopreg").joinpath(f"scenarios/{name}").read_text())
        assert main(["synthesize", "--scenario", str(cfg), "--out", str(tmp_path / "design")]) == 0
        assert main([
            "simulate", "--scenario", str(cfg), "--gains", str(tmp_path / "design" / "gains.txt"),
            "--out", str(tmp_path / "run"), "--horizon", "0.5",
        ]) == 0
        metrics = {}
        for line in (tmp_path / "run" / "metrics.txt").read_text().splitlines():
            key, _, value = line.partition(" = ")
            metrics[key] = float(value)
        fields = ("steps_per_s", "peak_state", "peak_ratio", "peak_time")
        assert all(np.isfinite(metrics[key]) for key in fields)
        assert metrics["steps_per_s"] > 0.0
        assert 0.0 < metrics["peak_ratio"] < 1.0
        assert 0.0 <= metrics["peak_time"] <= 0.5

    def test_default_margin_used_when_nu_missing(self, leader_scenario_text):
        from coopreg.cli import run_synthesis

        text = leader_scenario_text.replace("nu = 0.382\n", "")
        design = run_synthesis(loads(text), m=64)
        assert design.nu == pytest.approx(design.spectral_bound)
        assert design.passed


_EXTREME_KEYS = [
    ("plant", "q0"), ("plant", "q1"), ("numerics", "mu_c"), ("numerics", "riccati_a"),
    ("numerics", "nu"), ("output", "c_b0"), ("output", "c_b1"), ("numerics", "b_y"),
    ("exosystem", "w0"), ("agent 1", "delta_q0"), ("agent 1", "delta_q1"),
    ("agent 1", "delta_c_b0"), ("agent 1", "delta_c_b1"), ("agent 1", "g2"),
    ("agent 1", "g3"), ("agent 1", "g4"),
]


def _set_key(text: str, section: str, key: str, value: str) -> str:
    """``text`` with every entry of ``key`` in ``[section]`` set to ``value``;
    a missing key is added at the top of the section."""
    head = f"[{section}]\n"
    start = text.index(head) + len(head)
    end = text.find("\n[", start) + 1 or len(text)
    body = text[start:end]
    old = re.search(rf"(?m)^{key} = (.*)$", body)
    if old is None:
        body = f"{key} = {value}\n{body}"
    else:
        entries = " ".join([value] * len(old.group(1).split()))
        body = f"{body[: old.start()]}{key} = {entries}{body[old.end():]}"
    return text[:start] + body + text[end:]


@pytest.mark.parametrize("value", ["1e300", "-1e300", "1e-300", "0"])
@pytest.mark.parametrize("section, key", _EXTREME_KEYS, ids=[k for _, k in _EXTREME_KEYS])
@pytest.mark.parametrize("name", ["four_agent_leader.cfg", "four_agent_leaderless.cfg"])
def test_finite_extreme_values_never_trace_back(name, section, key, value, tmp_path, capsys):
    # every finite scenario ends in exit 0 or 1 with named errors only
    text = files("coopreg").joinpath(f"scenarios/{name}").read_text()
    text = _set_key(text.replace("grid_points = 200", "grid_points = 64"), section, key, value)
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        codes = [main(["check", "--scenario", str(cfg), "--grid-points", "64"])]
        if codes == [0]:
            codes.append(main(["synthesize", "--scenario", str(cfg), "--out", str(tmp_path / "d")]))
            if codes == [0, 0]:
                codes.append(main([
                    "simulate", "--scenario", str(cfg), "--gains", str(tmp_path / "d" / "gains.txt"),
                    "--out", str(tmp_path / "run"), "--horizon", "0.05",
                ]))
    captured = capsys.readouterr()
    assert set(codes) <= {0, 1}
    assert "Traceback" not in captured.err and "Warning" not in captured.err


@pytest.mark.filterwarnings("error")
def test_empty_reference_frequencies_rejected(leader_scenario_text, tmp_path, capsys):
    # with the reference gone the signal state is the one disturbance mode
    text = leader_scenario_text.replace("reference_frequencies = pi", "reference_frequencies =")
    text = text.replace("w0 = 2 0 1", "w0 = 1").replace("b_y = 1 1 1", "b_y = 1")
    text = re.sub(r"(?m)^p = \S+ \S+ (\S+)$", r"p = \1", text)
    text = re.sub(r"(?m)^v0 = \S+ \S+ (\S+)$", r"v0 = \1", text)
    with pytest.raises(SchemaError) as info:
        loads(text)
    assert [v.split(" =")[0] for v in info.value.violations] == [
        "[exosystem] reference_frequencies"
    ]
    cfg = tmp_path / "no_reference.cfg"
    cfg.write_text(text)
    assert main(["check", "--scenario", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "[exosystem] reference_frequencies =  must be nonempty" in err
    assert "Traceback" not in err and "Warning" not in err


def test_readme_lists_every_scenario_key():
    from pathlib import Path

    from coopreg.scenario import _KEYS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    listed = set()
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if line.startswith("| ") and cells[1].startswith("`"):
            name = {"top level": "", "agent N": "agent"}.get(cells[0], cells[0])
            listed.add((name, cells[1].strip("`"), cells[2]))
    assert listed == {(row.section, row.key, row.kind) for row in _KEYS}


@pytest.mark.filterwarnings("error")
def test_check_samples_agent_profiles(scenario_file, tmp_path, capsys):
    cfg = tmp_path / "pole.cfg"
    cfg.write_text(scenario_file.read_text().replace("x0 = 2\n", "x0 = 1/z\n"))
    assert main(["check", "--scenario", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert "[agent 2] x0 = 1/z is not finite at z = 0" in captured.err
    assert "overall: PASS" not in captured.out
    assert "Traceback" not in captured.err and "Warning" not in captured.err


@pytest.mark.filterwarnings("error")
def test_grid_suggestion_is_readable(scenario_file, tmp_path, capsys):
    cfg = tmp_path / "stiff.cfg"
    cfg.write_text(scenario_file.read_text().replace("mu_c = 5\n", "mu_c = 1e300\n"))
    assert main(["check", "--scenario", str(cfg)]) == 1
    captured = capsys.readouterr()
    row = next(line for line in captured.out.splitlines() if line.startswith("design pipeline"))
    assert row.endswith("at grid_points = 64; use grid_points >= 5e+149")
    assert "Traceback" not in captured.err and "Warning" not in captured.err


def test_grid_suggestion_rounds_up(scenario_file, tmp_path, capsys):
    # h^2 max|mu_c + a| <= 4 needs grid_points >= sqrt(609596002) / 2, i.e. 12,345
    cfg = tmp_path / "stiff.cfg"
    cfg.write_text(scenario_file.read_text().replace("mu_c = 5\n", "mu_c = 609596000\n"))
    assert main(["check", "--scenario", str(cfg)]) == 1
    row = next(
        line for line in capsys.readouterr().out.splitlines() if line.startswith("design pipeline")
    )
    assert float(row.rpartition("use grid_points >= ")[2]) >= 12345


@pytest.mark.parametrize(
    "edits, row",
    [
        ({"a = z + 1": "a = 1e308", "mu_c = 5": "mu_c = 1e308"},
         "FAIL  SingularSystem: mu_c + a leaves the floating-point range"),
        ({"riccati_a = 150": "riccati_a = 1e308"}, "FAIL  NewtonDivergence: "),
        ({"riccati_a = 150": "riccati_a = 1e300"}, "FAIL  NewtonDivergence: "),
    ],
    ids=["a-mu_c-overflow", "riccati_a-1e308", "riccati_a-1e300"],
)
@pytest.mark.filterwarnings("error")
def test_overflowing_design_fails_cleanly_on_shipped_grid(
    leader_scenario_text, tmp_path, capsys, edits, row
):
    text = leader_scenario_text
    for old, new in edits.items():
        assert f"\n{old}\n" in text
        text = text.replace(f"\n{old}\n", f"\n{new}\n", 1)
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(text)
    assert main(["check", "--scenario", str(cfg)]) == 1
    captured = capsys.readouterr()
    design = next(line for line in captured.out.splitlines() if line.startswith("design pipeline"))
    assert row in design and "grid_points" not in design
    assert "Traceback" not in captured.err and "Warning" not in captured.err
