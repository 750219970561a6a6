"""Scenario parsing, validation, serialization, expressions, and the CLI."""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from coopreg.cli import main
from coopreg.errors import ParseError, SchemaError, ToolkitError
from coopreg.expressions import Expression
from coopreg.scenario import loads, serialize
from coopreg.simulator import simulate
from coopreg.synthesis import MODE_LEADER, write_gains_file


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
        "source", ["", "z +", "foo(z)", "sin z", "(z", "z)", "1 2", "z $ 2"]
    )
    def test_rejects_malformed(self, source):
        with pytest.raises(ParseError):
            Expression(source)

    def test_equality_by_source(self):
        assert Expression("z+1") == Expression("z+1")
        assert Expression("z+1") != Expression("z + 1")


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
        assert design.certificate.passed
        trace = simulate(
            scenario.resolve(m=64, horizon=8.0), design.gains, certified=True
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

    def test_schema_error_exit_code(self, scenario_file, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(scenario_file.read_text().replace("q0 = 3", "q0 = oops"))
        res = run_cli("check", "--scenario", str(bad))
        assert res.returncode == 1
        assert "q0" in res.stderr

    @pytest.mark.parametrize("flag, value", [("--dt", "-1"), ("--horizon", "0")])
    def test_nonpositive_override_rejected(
        self, scenario_file, leader_design, tmp_path, capsys, flag, value
    ):
        gains = tmp_path / "gains.txt"
        write_gains_file(leader_design.gains, gains)
        out = tmp_path / "out"
        code = main([
            "simulate", "--scenario", str(scenario_file), "--gains", str(gains),
            "--out", str(out), flag, value,
        ])
        assert code == 1
        assert f"{flag[2:]} = " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dt, horizon", [("0.3", "1"), ("0.001", "inf"), ("inf", "1")])
    def test_horizon_not_multiple_of_dt_rejected(
        self, scenario_file, leader_design, tmp_path, capsys, dt, horizon
    ):
        gains = tmp_path / "gains.txt"
        write_gains_file(leader_design.gains, gains)
        out = tmp_path / "out"
        code = main([
            "simulate", "--scenario", str(scenario_file), "--gains", str(gains),
            "--out", str(out), "--dt", dt, "--horizon", horizon,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"horizon = {float(horizon)} is not a whole number of steps of dt = {float(dt)}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synthesize", "check"])
    def test_one_agent_leaderless_rejected(self, tmp_path, capsys, command):
        from importlib.resources import files

        text = files("coopreg").joinpath("scenarios/four_agent_leaderless.cfg").read_text()
        text = text[: text.index("[agent 2]")]
        for old, new in (
            ("adjacency = 0 0 1 0 ; 1 0 0 1 ; 1 0 0 0 ; 0 0 1 0", "adjacency = 0"),
            ("leader_links = 0 0 0 0", "leader_links = 0"),
        ):
            assert old in text
            text = text.replace(old, new)
        cfg = tmp_path / "one_agent.cfg"
        cfg.write_text(text)
        out = ["--out", str(tmp_path / "out")] if command == "synthesize" else []
        code = main([command, "--scenario", str(cfg), *out])
        assert code == 1
        err = capsys.readouterr().err
        assert "mode = leaderless needs at least 2 agents" in err
        assert "Traceback" not in err

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

    def test_gains_of_other_mode_rejected(self, scenario_file, tmp_path, capsys):
        from importlib.resources import files

        leaderless = files("coopreg").joinpath("scenarios/four_agent_leaderless.cfg")
        design = tmp_path / "design"
        assert main(["synthesize", "--scenario", str(scenario_file), "--out", str(design)]) == 0
        assert f"mode = {MODE_LEADER}" in (design / "gains.txt").read_text()
        capsys.readouterr()
        out = tmp_path / "run"
        code = main([
            "simulate", "--scenario", str(leaderless), "--gains", str(design / "gains.txt"),
            "--out", str(out), "--horizon", "0.1",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "gains designed for leader-follower mode run a leaderless scenario" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_designed_gains_of_other_mode_rejected(self, leader_design, leaderless_scenario):
        assert leader_design.gains.mode == MODE_LEADER
        resolved = leaderless_scenario.resolve(m=leader_design.m, horizon=0.1)
        with pytest.raises(ToolkitError, match="gains designed for leader-follower mode"):
            simulate(resolved, leader_design.gains)

    def test_rejected_simulate_leaves_no_output_dir(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "simulate", "--scenario", str(scenario_file),
            "--gains", str(tmp_path / "absent" / "gains.txt"), "--out", str(out),
        ])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("grid", ["10", "-5"])
    @pytest.mark.parametrize("command", ["synthesize", "check"])
    def test_grid_points_below_minimum_rejected(self, scenario_file, tmp_path, capsys, command, grid):
        out = ["--out", str(tmp_path)] if command == "synthesize" else []
        code = main([command, "--scenario", str(scenario_file), "--grid-points", grid, *out])
        assert code == 1
        err = capsys.readouterr().err
        assert "must be at least 32" in err
        assert "Traceback" not in err

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

    def test_nonfinite_gain_rejected_before_simulating(
        self, scenario_file, leader_design, tmp_path, capsys
    ):
        gains = tmp_path / "gains.txt"
        write_gains_file(leader_design.gains, gains)
        lines = gains.read_text().splitlines()
        assert lines[2].startswith("k_1 = ")
        lines[2] = "k_1 = nan"
        gains.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = main([
            "simulate", "--scenario", str(scenario_file), "--gains", str(gains), "--out", str(out),
        ])
        assert code == 1
        assert "ParseError: line 3: 'nan' is not a finite number" in capsys.readouterr().err
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
        assert design.certificate.passed


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("grid_points = 64", "grid_points = nan", "[numerics] grid_points: 'nan' is not"),
        ("grid_points = 64", "grid_points = inf", "[numerics] grid_points: 'inf' is not"),
        ("sample_every = 10", "sample_every = inf", "[outputs] sample_every: 'inf' is not"),
        ("q0 = 3", "q0 = nan", "[plant] q0: 'nan' is not"),
        ("w0 = 2 0 1", "w0 = nan 0 1", "[exosystem] w0: 'nan' is not"),
    ],
    ids=["grid_points-nan", "grid_points-inf", "sample_every-inf", "q0-nan", "w0-nan"],
)
def test_nonfinite_number_rejected(scenario_file, tmp_path, capsys, old, new, message):
    text = scenario_file.read_text()
    assert old in text
    cfg = tmp_path / "nonfinite.cfg"
    cfg.write_text(text.replace(old, new))
    assert main(["check", "--scenario", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{message} a finite number" in err


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
