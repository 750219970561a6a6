"""Command-line failure probes: one table of bad inputs, each run through ``main``.

A row names a shipped scenario, the edits made to it (and optionally to the
gains file of the shipped leader design), the command line, the exit code and
a message the run must print.  Every edit must apply exactly once, and any
warning or exception escaping ``main`` fails the row.  A new probe is one row.
"""

import re
import sys
from importlib.resources import files
from typing import NamedTuple

import pytest

from coopreg.cli import main
from coopreg.synthesis import write_gains_file

LEADER = "four_agent_leader.cfg"
LEADERLESS = "four_agent_leaderless.cfg"

CHECK = ("check", "--scenario", "{scenario}")
SYNTHESIZE = ("synthesize", "--scenario", "{scenario}", "--out", "{out}")
SIMULATE = ("simulate", "--scenario", "{scenario}", "--gains", "{gains}", "--out", "{out}")


class Probe(NamedTuple):
    id: str
    base: str           # shipped scenario file
    edits: tuple        # (old, new[, section]); old is a literal or a compiled pattern
    argv: tuple         # {scenario}, {gains}, {out} and {tmp} are filled in
    code: int
    stdout: str = ""    # expected in stdout
    stderr: str = ""    # expected in stderr
    no_out_dir: bool = False        # --out must be left absent
    out_files: tuple = ()           # files --out must hold
    gains_edits: tuple = ()         # edits of the leader design's gains file


# the p and v0 rows of each agent, two signal states wider
_WIDER = tuple(
    (re.compile(rf"^{key} = .*$", re.M), r"\g<0> 0 0", f"agent {i}")
    for i in range(1, 5)
    for key in ("p", "v0")
)
_INTERIOR_ROWS = re.compile(r"(?:^0\..*\n)+", re.M)   # profile rows strictly inside (0, 1)
_ALL_ROWS = re.compile(r"(?:^[0-9].*\n)+", re.M)
_NONPARABOLIC_AGENT = (("delta_lambda = 0.2\n", "delta_lambda = -2\n", "agent 1"),)
_SNAPSHOT_BETWEEN_STEPS = (("sample_every = 10", "sample_every = 10\nsnapshot_times = 0.0005"),)

PROBES = [
    # values the design cannot use: check names the failing row or key
    Probe("a-pole", LEADER, [("a = z + 1", "a = 1/z")], CHECK, 1,
          stdout="[plant] a = 1/z is not finite at z = 0"),
    Probe("a-overflow", LEADER, [("a = z + 1", "a = exp(1000*z)")], CHECK, 1,
          stdout="[plant] a = exp(1000*z) is not finite at z = 0.7"),
    Probe("a-literal", LEADER, [("a = z + 1", "a = 1e999")], CHECK, 1,
          stdout="[plant] a = 1e999 is not finite at z = 0"),
    Probe("c0-nan", LEADER, [("c0 = -z", "c0 = 1/(z-z)")], CHECK, 1,
          stdout="[output] c0 = 1/(z-z) is not finite at z = 0"),
    Probe("q0-huge", LEADER, [("q0 = 3", "q0 = 1e300")], CHECK, 1,
          stdout="FAIL  SingularSystem: inverse kernel overflows"),
    Probe("q0-negative-huge", LEADER, [("q0 = 3", "q0 = -1e300")], CHECK, 1,
          stdout="FAIL  SingularSystem: kernel march left the floating-point"),
    Probe("riccati_a-huge", LEADER, [("riccati_a = 150", "riccati_a = 1e300")], CHECK, 1,
          stdout="FAIL  NewtonDivergence: "),
    Probe("mu_c-huge", LEADER, [("mu_c = 5", "mu_c = 1e300")], CHECK, 1,
          stdout="FAIL  SingularSystem: kernel march needs"),
    Probe("reference-huge", LEADER,
          [("reference_frequencies = pi", "reference_frequencies = 1e300")], CHECK, 1,
          stdout="FAIL  n_w = 3"),
    Probe("c_b1-huge", LEADER, [("\nc_b1 = 1\n", "\nc_b1 = 1e300\n")], CHECK, 1,
          stdout="FAIL  SingularSystem: boundary-value solution overflows"),
    Probe("c_b1-1e308", LEADER, [("\nc_b1 = 1\n", "\nc_b1 = 1e308\n")], CHECK, 1,
          stdout="FAIL  SingularSystem: boundary-value solution overflows"),
    Probe("adjacency-huge", LEADER, [("adjacency = 0 0 1 0 ;", "adjacency = 0 0 1e308 0 ;")],
          CHECK, 1, stdout="FAIL  NumericalBlowup: closed-loop matrix overflows"),
    # c_b1 on the grid's own lambda = 0 blocking zero at m = 64: (S, q_tilde(1)) is uncontrollable
    *(
        Probe(f"blocking-zero-{argv[0]}", LEADER, [("\nc_b1 = 1\n", "\nc_b1 = 0.08078431929592556\n")],
              (*argv, "--grid-points", "64"), 1, stdout=stdout, stderr=stderr)
        for argv, stdout, stderr in (
            (CHECK, "FAIL  min |n| = 3.9", ""),
            (SYNTHESIZE, "", "synthesis failed: NotControllable"),
        )
    ),
    # values the scenario reader rejects
    Probe("q0-not-a-number", LEADER, [("q0 = 3", "q0 = oops")], CHECK, 1,
          stderr="[plant] q0: 'oops' is not a finite number"),
    Probe("grid_points-nan", LEADER, [("grid_points = 200", "grid_points = nan")], CHECK, 1,
          stderr="[numerics] grid_points: 'nan' is not a finite number"),
    Probe("grid_points-inf", LEADER, [("grid_points = 200", "grid_points = inf")], CHECK, 1,
          stderr="[numerics] grid_points: 'inf' is not a finite number"),
    Probe("sample_every-inf", LEADER, [("sample_every = 10", "sample_every = inf")], CHECK, 1,
          stderr="[outputs] sample_every: 'inf' is not a finite number"),
    Probe("q0-nan", LEADER, [("q0 = 3", "q0 = nan")], CHECK, 1,
          stderr="[plant] q0: 'nan' is not a finite number"),
    Probe("w0-nan", LEADER, [("w0 = 2 0 1", "w0 = nan 0 1")], CHECK, 1,
          stderr="[exosystem] w0: 'nan' is not a finite number"),
    Probe("leaderless-leader-links", LEADERLESS,
          [("leader_links = 0 0 0 0", "leader_links = 1 0 0 0")], CHECK, 1,
          stderr="[graph] leader_links = 1 0 0 0 must be zero if leaderless"),
    *(
        Probe(f"negative-leader-links-{argv[0]}", LEADER,
              [("leader_links = 1 0 0 0", "leader_links = -1 1 0 0")], argv, 1,
              stderr="[graph] leader_links = -1 1 0 0 must be nonnegative", no_out_dir=True)
        for argv in (CHECK, SYNTHESIZE, (*SIMULATE, "--horizon", "0.05"))
    ),
    *(
        Probe(f"one-agent-leaderless-{argv[0]}", LEADERLESS,
              [(re.compile(r"\[agent 2\].*", re.S), ""),
               ("adjacency = 0 0 1 0 ; 1 0 0 1 ; 1 0 0 0 ; 0 0 1 0", "adjacency = 0"),
               ("leader_links = 0 0 0 0", "leader_links = 0")],
              argv, 1, stderr="mode = leaderless needs at least 2 agents", no_out_dir=True)
        for argv in (SYNTHESIZE, CHECK)
    ),
    *(
        Probe(f"grid-points-{grid}-{argv[0]}", LEADER, [], (*argv, "--grid-points", grid), 1,
              stderr=f"grid_points = {grid} must be at least 32", no_out_dir=True)
        for argv in (SYNTHESIZE, CHECK)
        for grid in ("10", "-5")
    ),
    # command-line overrides simulate cannot step
    Probe("dt-negative", LEADER, [], (*SIMULATE, "--dt", "-1"), 1,
          stderr="dt = -1.0 must be positive", no_out_dir=True),
    Probe("horizon-zero", LEADER, [], (*SIMULATE, "--horizon", "0"), 1,
          stderr="horizon = 0.0 must be positive", no_out_dir=True),
    Probe("horizon-off-step", LEADER, [], (*SIMULATE, "--dt", "0.3", "--horizon", "1"), 1,
          stderr="horizon = 1.0 is not a whole number of steps of dt = 0.3", no_out_dir=True),
    Probe("horizon-inf", LEADER, [], (*SIMULATE, "--dt", "0.001", "--horizon", "inf"), 1,
          stderr="horizon = inf is not a whole number of steps of dt = 0.001", no_out_dir=True),
    Probe("dt-inf", LEADER, [], (*SIMULATE, "--dt", "inf", "--horizon", "1"), 1,
          stderr="horizon = 1.0 is not a whole number of steps of dt = inf", no_out_dir=True),
    Probe("horizon-past-array-length", LEADER, [], (*SIMULATE, "--horizon", "1e300"), 1,
          stderr=f"n_steps must be at most {sys.maxsize}", no_out_dir=True),
    Probe("snapshot-between-steps", LEADER, _SNAPSHOT_BETWEEN_STEPS,
          (*SIMULATE, "--horizon", "0.01"), 1,
          stderr="[outputs] snapshot_times [0.0005] must be whole numbers of steps dt = 0.001",
          no_out_dir=True),
    Probe("snapshot-outside-horizon", LEADER,
          [("sample_every = 10", "sample_every = 10\nsnapshot_times = -1 5")],
          (*SIMULATE, "--horizon", "0.2"), 1,
          stderr="[outputs] snapshot_times [-1.0, 5.0] must be whole numbers of steps dt = 0.001",
          no_out_dir=True),
    # arrays past a 57-bit address space: the allocation fails at once and ends in one line
    Probe("grid-points-1e17-synthesize", LEADER, [],
          (*SYNTHESIZE, "--grid-points", "100000000000000000"), 1,
          stderr="synthesis failed: MemoryError: Unable to allocate",
          out_files=("certificate.json",)),
    Probe("grid-points-1e17-check", LEADER, [], (*CHECK, "--grid-points", "100000000000000000"),
          1, stderr="MemoryError: Unable to allocate"),
    Probe("horizon-1e15", LEADER, [], (*SIMULATE, "--horizon", "1e15"), 1,
          stderr="MemoryError: Unable to allocate", no_out_dir=True),
    # agents simulate cannot run
    Probe("nonparabolic-agent", LEADER, _NONPARABOLIC_AGENT,
          (*SIMULATE, "--horizon", "0.01"), 1,
          stderr="[agent 1] delta_lambda = -2 must stay above -1 at z = 0", no_out_dir=True),
    # synthesize designs on the nominal plant alone: the files simulate rejects above still pass
    *(
        Probe(f"{name}-synthesize", LEADER, edits, (*SYNTHESIZE, "--grid-points", "64"), 0,
              stdout="certificate: pass")
        for name, edits in (("nonparabolic-agent", _NONPARABOLIC_AGENT),
                            ("snapshot-between-steps", _SNAPSHOT_BETWEEN_STEPS))
    ),
    Probe("agent-profile-pole", LEADER, [("x0 = 2\n", "x0 = 1/z\n", "agent 2")], SIMULATE, 1,
          stderr="[agent 2] x0 = 1/z is not finite at z = 0", no_out_dir=True),
    Probe("output-uncertainty-overflow-boundary", LEADER,
          [("\nc_b1 = 1\n", "\nc_b1 = 1.7e308\n"),
           ("\ndelta_c_b1 = 0.1\n", "\ndelta_c_b1 = 1.7e308\n", "agent 4")],
          SIMULATE, 1, stderr="agent output weight overflows", no_out_dir=True),
    Probe("output-uncertainty-overflow-point", LEADER,
          [("\nc_b1 = 1\n", "\nc_b1 = 1\npoints = 1.7e308 @ 0.3\n"),
           ("\ndelta_c_b1 = 0.1\n", "\ndelta_c_b1 = 0.1\ndelta_points = 1.7e308\n", "agent 4")],
          SIMULATE, 1, stderr="agent output weight overflows", no_out_dir=True),
    # the gains of the unmodified file drive a loop whose assembled step overflows
    Probe("overflowing-step-c_b1", LEADER, [("\nc_b1 = 1\n", "\nc_b1 = 1e308\n")],
          (*SIMULATE, "--horizon", "0.05"), 1,
          stderr="NumericalBlowup: closed-loop step overflows", no_out_dir=True),
    Probe("overflowing-step-adjacency", LEADER,
          [("adjacency = 0 0 1 0 ;", "adjacency = 0 0 1e308 0 ;")],
          (*SIMULATE, "--horizon", "0.05"), 1,
          stderr="NumericalBlowup: closed-loop step overflows", no_out_dir=True),
    # gains that do not fit the scenario
    Probe("gains-of-other-mode", LEADERLESS, [], (*SIMULATE, "--horizon", "0.1"), 1,
          stderr="gains designed for leader-follower mode run a leaderless scenario",
          no_out_dir=True),
    Probe("gains-of-other-signal-dimension", LEADER,
          [("disturbance_frequencies = 0\n", "disturbance_frequencies = 0 2\n"),
           ("w0 = 2 0 1\n", "w0 = 2 0 1 0 0\n"), ("b_y = 1 1 1\n", "b_y = 1 1 1 1 1\n"), *_WIDER],
          (*SIMULATE, "--horizon", "0.01"), 1,
          stderr="ToolkitError: gains designed for 3 signal states run a v0 of (4, 5)",
          no_out_dir=True),
    # gains files simulate cannot read
    Probe("gains-absent", LEADER, [],
          ("simulate", "--scenario", "{scenario}", "--gains", "{tmp}/absent/gains.txt",
           "--out", "{out}"), 1, stderr="FileNotFoundError: ", no_out_dir=True),
    Probe("gains-nonfinite", LEADER, [], SIMULATE, 1,
          stderr="ParseError: line 3: 'nan' is not a finite number", no_out_dir=True,
          gains_edits=[(re.compile(r"^k_1 = .*$", re.M), "k_1 = nan")]),
    Probe("gains-repeated-k_1", LEADER, [], (*SIMULATE, "--horizon", "0.01"), 1,
          stderr="ParseError: line 4: duplicate key k_1", no_out_dir=True,
          gains_edits=[(re.compile(r"^k_1 = .*\n", re.M), r"\g<0>\g<0>")]),
    Probe("gains-ungridded", LEADER, [], (*SIMULATE, "--horizon", "0.01"), 1,
          stderr="ParseError: line 8: grid_points = -1 is not a whole number >= 1", no_out_dir=True,
          gains_edits=[("grid_points = 200", "grid_points = -1"),
                       (_ALL_ROWS, "", "k_x"), (_ALL_ROWS, "", "r_x")]),
    # the z = 0 and z = 1 rows of each profile: a readable file below the grid floor
    Probe("gains-one-interval", LEADER, [], (*SIMULATE, "--horizon", "0.01"), 1,
          stderr="grid_points = 1 must be at least 32", no_out_dir=True,
          gains_edits=[("grid_points = 200", "grid_points = 1"),
                       (_INTERIOR_ROWS, "", "k_x"), (_INTERIOR_ROWS, "", "r_x")]),
]


def _edited(probe_id: str, text: str, edits) -> str:
    """``text`` with each edit applied; an edit that does not match exactly once fails."""
    for old, new, *section in edits:
        start, end = 0, len(text)
        if section:
            head = f"[{section[0]}]\n"
            start = text.find(head) + len(head) if head in text else end
            end = text.find("\n[", start) + 1 or end
        region = text[start:end]
        if isinstance(old, re.Pattern):
            region, count = old.subn(new, region)
        else:
            count = region.count(old)
            region = region.replace(old, new)
        if count != 1:
            where = f" in [{section[0]}]" if section else ""
            pytest.fail(f"{probe_id}: edit {old!r} -> {new!r}{where} matched {count} times, "
                        "not once")
        text = text[:start] + region + text[end:]
    return text


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("probe", PROBES, ids=[probe.id for probe in PROBES])
def test_cli_probe(probe, request, tmp_path, capsys):
    scenario = tmp_path / "scenario.cfg"
    base = files("coopreg").joinpath(f"scenarios/{probe.base}").read_text()
    scenario.write_text(_edited(probe.id, base, probe.edits))
    gains = tmp_path / "gains.txt"
    if "{gains}" in probe.argv:
        write_gains_file(request.getfixturevalue("leader_design").gains, gains)
        gains.write_text(_edited(probe.id, gains.read_text(), probe.gains_edits))
    out = tmp_path / "out"
    argv = [arg.format(scenario=scenario, gains=gains, out=out, tmp=tmp_path) for arg in probe.argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == probe.code, f"{probe.id}: exit {code}\n{captured.out}{captured.err}"
    assert probe.stdout in captured.out, f"{probe.id}: stdout\n{captured.out}"
    assert probe.stderr in captured.err, f"{probe.id}: stderr\n{captured.err}"
    assert "Traceback" not in captured.err and "Warning" not in captured.err
    assert not (probe.no_out_dir and out.exists()), f"{probe.id}: {out} was created"
    assert all((out / name).is_file() for name in probe.out_files), f"{probe.id}: {out} lacks a file"
