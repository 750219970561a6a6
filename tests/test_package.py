"""Package-wide guards over the source tree."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coopreg"

# Independent oracles the tests check the program against, so nothing in the
# package or the benchmark calls them: the leaderless steady state
# (acceptance criteria) and the scenario writer that pins the parser by the
# round trip loads(serialize(s)) == s.
ORACLES = {"synthesis.sync_steady_state", "scenario.serialize"}


def _referenced_names(path: Path) -> set:
    """Identifiers a file uses: names, attributes, imports and dotted-path strings."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias) and path != PACKAGE / "__init__.py":
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # the benchmark patches functions named by strings like "Scenario.resolve"
            if re.fullmatch(r"[\w.]+", node.value):
                names.update(node.value.split("."))
    return names


def _public_definitions(path: Path):
    """Dotted names of a module's public functions and classes, and of their methods."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{method.name}", method.name


def test_every_public_definition_is_used():
    used = set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]:
        used |= _referenced_names(path)
    unused = [
        dotted
        for path in sorted(PACKAGE.glob("*.py"))
        for dotted, name in _public_definitions(path)
        if name not in used
    ]
    dead = sorted(set(unused) - ORACLES)
    assert not dead, f"public definitions nothing in src/ or bench/ uses: {', '.join(dead)}"


def test_design_path_loads_no_scipy(tmp_path):
    # import the package; check, synthesize and simulate both shipped scenarios;
    # run the target cascade; then list the scipy modules loaded: all of it
    # runs on numpy alone, so no scipy.sparse module either
    script = (
        "import json, sys, numpy as np, coopreg, coopreg.cli\n"
        "codes = []\n"
        "for i, path in enumerate(sys.argv[2:]):\n"
        "    args, out = ['--scenario', path, '--grid-points', '64'], f'{sys.argv[1]}/{i}'\n"
        "    codes.append(coopreg.cli.main(['check', *args]))\n"
        "    codes.append(coopreg.cli.main(['synthesize', *args, '--out', out]))\n"
        "    codes.append(coopreg.cli.main(['simulate', '--scenario', path, '--gains',\n"
        "                                   f'{out}/gains.txt', '--out', f'{out}/run', '--horizon', '2']))\n"
        "design = coopreg.cli.run_synthesis(coopreg.load_scenario(sys.argv[2]), m=64)\n"
        "cascade = coopreg.simulate_target_cascade(\n"
        "    design.gains, design.graph.leader_follower, design.decoupling.q_tilde_at_1,\n"
        "    np.ones((4, design.gains.n_w)), np.zeros((4, 65)), 1e-3, 10)\n"
        "codes.append(int(not np.isfinite(cascade.e_v).all()))\n"
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    scenarios = [
        str(PACKAGE / "scenarios" / f"four_agent_{mode}.cfg") for mode in ("leader", "leaderless")
    ]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path), *scenarios],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    codes, loaded = json.loads(res.stdout.splitlines()[-1])
    assert codes == [0] * 7, res.stdout + res.stderr
    assert loaded == []


@pytest.mark.parametrize("mode", ["leader", "leaderless"])
def test_design_runs_with_scipy_blocked(mode, tmp_path):
    # a fine-grid design, then its simulation, with scipy blocked: any scipy import fails them
    script = (
        "import sys; sys.modules['scipy'] = None; "
        "from coopreg.cli import entry_point; entry_point()"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    scenario = str(PACKAGE / "scenarios" / f"four_agent_{mode}.cfg")

    def run(*args):
        return subprocess.run(
            [sys.executable, "-c", script, *args, "--scenario", scenario],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )

    res = run("synthesize", "--grid-points", "800", "--out", str(tmp_path))
    assert res.returncode == 0, res.stdout + res.stderr
    assert "certificate: pass" in res.stdout
    res = run("simulate", "--gains", str(tmp_path / "gains.txt"), "--out", str(tmp_path / "run"),
              "--horizon", "2")
    assert res.returncode == 0, res.stdout + res.stderr
    assert (tmp_path / "run" / "trace.csv").is_file()
