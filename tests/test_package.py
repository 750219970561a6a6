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


def test_design_path_loads_no_sparse_module():
    # import the package and run one check, then list the scipy.sparse modules loaded
    script = (
        "import json, sys, coopreg, coopreg.cli\n"
        "code = coopreg.cli.main(['check', '--scenario', sys.argv[1], '--grid-points', '64'])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('scipy.sparse'))]))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", script, str(PACKAGE / "scenarios" / "four_agent_leader.cfg")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    code, loaded = json.loads(res.stdout.splitlines()[-1])
    assert code == 0, res.stdout + res.stderr
    assert loaded == []


def test_design_path_loads_no_scipy(tmp_path):
    # import the package, check and synthesize both shipped scenarios, then
    # list the scipy modules loaded: the design runs on numpy alone
    script = (
        "import json, sys, coopreg, coopreg.cli\n"
        "codes = []\n"
        "for i, path in enumerate(sys.argv[2:]):\n"
        "    args = ['--scenario', path, '--grid-points', '64']\n"
        "    codes.append(coopreg.cli.main(['check', *args]))\n"
        "    codes.append(coopreg.cli.main(['synthesize', *args, '--out', f'{sys.argv[1]}/{i}']))\n"
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
    assert codes == [0, 0, 0, 0], res.stdout + res.stderr
    assert loaded == []


@pytest.mark.parametrize("mode", ["leader", "leaderless"])
def test_design_runs_with_scipy_blocked(mode, tmp_path):
    # a fine-grid design with scipy blocked: any scipy import fails it
    script = (
        "import sys; sys.modules['scipy'] = None; "
        "from coopreg.cli import entry_point; entry_point()"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", script, "synthesize",
         "--scenario", str(PACKAGE / "scenarios" / f"four_agent_{mode}.cfg"),
         "--grid-points", "800", "--out", str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert res.returncode == 0, res.stdout + res.stderr
    assert "certificate: pass" in res.stdout
