"""Command-line front end: synthesize, simulate, check.

``run_synthesis`` is the one place that evaluates the design hypotheses
(graph connectivity, internal-model rank, spectral margin, signal-model
spectrum and controllability, spectrum separation, nonblocking transfer,
decoupled-pair controllability, Hurwitz closed loop) and it runs the design
pipeline.  ``synthesize`` persists the gains and the certificate, ``simulate``
runs the closed loop from a gains file, and ``check`` prints the hypothesis
rows.  ``synthesize`` and ``check`` share one verdict, ``SynthesisResult.passed``:
every row passed.
Exit status is 0 exactly when everything requested passed.
"""

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import backstepping, comm_graph, signal_model, simulator, synthesis
from .errors import (
    NonPositiveBound,
    NotControllable,
    ParseError,
    ResonantSpectrum,
    SchemaError,
    ToolkitError,
    read_text,
)
from .scenario import Scenario, load_scenario
from .synthesis import MODE_LEADER

_FMT = "{:.17g}".format


class Hypothesis(NamedTuple):
    """One design hypothesis: its condition, the verdict and its evidence."""

    name: str
    condition: str
    passed: bool
    evidence: str


@dataclass
class SynthesisResult:
    """Everything the design pipeline produced, for reuse by simulate/check."""

    scenario: Scenario
    m: int
    graph: comm_graph.GraphMatrices
    coupling: np.ndarray
    nu: float
    spectral_bound: float
    exo: signal_model.ExoModel
    kernel: backstepping.TriangularKernel
    output_transformed: backstepping.OutputOperator
    decoupling: synthesis.DecouplingSolution
    riccati_q: np.ndarray
    gains: synthesis.RegulatorGains
    closed_loop_eigs: np.ndarray
    nonblocking: list
    hypotheses: list    # the design's rows, its only verdict

    @property
    def alpha_ev(self) -> float:
        return -float(self.closed_loop_eigs.real.max())

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.hypotheses)


def run_synthesis(scenario: Scenario, m: int | None = None) -> SynthesisResult:
    """Hypotheses, then kernel -> decoupling -> nonblocking -> Riccati -> gains -> eigenvalues.

    Every structural hypothesis is evaluated before the first fatal one is
    raised.  A ToolkitError raised past the grid check carries the rows in its
    ``hypotheses`` attribute, closed by one failing ``design pipeline`` row.
    """
    m = scenario.grid(m)
    rows = []
    try:
        return _design(scenario, m, rows)
    except ToolkitError as exc:
        failure = f"{type(exc).__name__}: {exc}"
        exc.hypotheses = (*rows, Hypothesis("design pipeline", "synthesis completes", False, failure))
        raise


def _design(scenario: Scenario, m: int, rows: list) -> SynthesisResult:
    num = scenario.numerics
    mode = scenario.mode
    leader = mode == MODE_LEADER
    topology = scenario.topology()
    graph = comm_graph.laplacian(topology)
    coupling = graph.leader_follower if leader else graph.synchronization
    fatal = []

    def hypothesis(name, condition, passed, evidence, error=None):
        """Record one row; a failure is fatal when ``error`` names its exception type."""
        rows.append(Hypothesis(name, condition, bool(passed), evidence))
        if not passed and error is not None:
            fatal.append(error(f"{name} fails: need {condition}; {evidence}"))

    hypothesis(
        "graph connectivity",
        "reference node reaches every agent" if leader else "some agent reaches every other agent",
        comm_graph.is_connected(topology, with_root_zero=leader),
        f"{topology.n_agents} agents",
        NonPositiveBound,
    )
    condition = "H nonsingular" if leader else "rank H_tilde = N - 1"
    hypothesis("internal-model rank", condition, *synthesis.internal_model_rank_check(mode, graph))
    try:
        spectral_bound = comm_graph.spectral_lower_bound(coupling)
        nu = num.nu if num.nu is not None else spectral_bound
        # one part in a thousand of slack tolerates a nu quoted to three decimals
        passed = 0.0 < nu <= spectral_bound * (1.0 + 1e-3) + 1e-12
        margin = (passed, f"nu = {nu:.6g}, bound = {spectral_bound:.6g}")
    except NonPositiveBound as exc:
        margin = (False, str(exc))
    hypothesis("spectral margin", "0 < nu <= min Re eig(coupling)", *margin, NonPositiveBound)
    try:
        exo = scenario.exo_model()
        spectrum = (True, f"max |Re| = {np.abs(np.linalg.eigvals(exo.S).real).max():.2e}")
    except ValueError as exc:  # the signal model rejects its own matrix S
        exo, spectrum = None, (False, str(exc))
    hypothesis(
        "signal-model spectrum",
        "sigma(S) on the imaginary axis, S diagonalizable",
        *spectrum,
        lambda message: SchemaError([message]),
    )
    if exo is not None:
        controllable = signal_model.check_controllable(exo.S, exo.b_y)
        hypothesis(
            "signal-model controllability",
            "(S, b_y) controllable",
            controllable,
            f"n_w = {exo.n_w}",
            NotControllable,
        )
        try:
            synthesis.check_resonance(exo.S, num.mu_c)
            separation = (True, f"mu_c = {num.mu_c:g}")
        except ResonantSpectrum as exc:
            separation = (False, str(exc))
        hypothesis("spectrum separation", "sigma_c and sigma(S) disjoint", *separation, ResonantSpectrum)
    if fatal:
        raise fatal[0]

    plant = scenario.plant(m)
    kernel = backstepping.solve_kernel(plant.a, plant.q0, num.mu_c, m=m)
    output_transformed = backstepping.transform_output_weight(plant.output, kernel)
    decoupling = synthesis.solve_decoupling(
        exo.S, exo.b_y, output_transformed, num.mu_c, kernel
    )

    nonblocking_ok, nonblocking = synthesis.check_controllable_pair(
        exo.S, output_transformed, num.mu_c
    )
    hypothesis(
        "nonblocking transfer",
        f"|n(lambda)| > {synthesis.NONBLOCKING_TOL:g} on sigma(S)",
        nonblocking_ok,
        f"min |n| = {min(v for _, v in nonblocking):.4g}",
    )
    hypothesis(
        "decoupled-pair controllability",
        "(S, q_tilde(1)) controllable",
        controllable and nonblocking_ok,
        f"max |q_tilde(1)| = {np.abs(decoupling.q_tilde_at_1).max():.4g}",
        NotControllable,
    )
    if fatal:
        raise fatal[0]

    riccati_q = synthesis.solve_are(
        exo.S, decoupling.q_tilde_at_1, nu, num.riccati_a
    )
    k_v = riccati_q @ decoupling.q_tilde_at_1
    gains = synthesis.assemble_gains(kernel, decoupling, plant.q1, k_v, exo.b_y, exo.S, num.mu_c, mode)
    result = SynthesisResult(
        scenario=scenario,
        m=m,
        graph=graph,
        coupling=coupling,
        nu=nu,
        spectral_bound=spectral_bound,
        exo=exo,
        kernel=kernel,
        output_transformed=output_transformed,
        decoupling=decoupling,
        riccati_q=riccati_q,
        gains=gains,
        closed_loop_eigs=synthesis.certify_stability(exo.S, decoupling.q_tilde_at_1, k_v, coupling),
        nonblocking=nonblocking,
        hypotheses=rows,
    )
    hypothesis(
        "closed-loop matrix Hurwitz",
        "max Re eig(F) < 0 < mu_c",
        min(result.alpha_ev, num.mu_c) > 0,
        f"alpha_ev = {result.alpha_ev:.4g}, mu_c = {num.mu_c:g}",
    )
    return result


def certificate_payload(result: SynthesisResult | None, error: Exception | None = None) -> dict:
    if error is not None:
        return {"passed": False, "error": type(error).__name__, "detail": str(error)}
    mu_c = result.scenario.numerics.mu_c
    riccati_residual = synthesis.riccati_residual(
        result.exo.S, result.riccati_q, result.decoupling.q_tilde_at_1,
        result.nu, result.scenario.numerics.riccati_a,
    )
    rank_row = next(row for row in result.hypotheses if row.name == "internal-model rank")
    return {
        "passed": result.passed,
        "mode": result.scenario.mode,
        "alpha_ev": result.alpha_ev,
        "target_pde_top_eig": -mu_c,
        "overall_alpha": min(result.alpha_ev, mu_c),
        "nu": result.nu,
        "spectral_bound": result.spectral_bound,
        "closed_loop_eigenvalues": [
            [float(l.real), float(l.imag)] for l in np.sort_complex(result.closed_loop_eigs)
        ],
        "internal_model_rank_ok": rank_row.passed,
        "nonblocking": [
            {"eigenvalue": [float(l.real), float(l.imag)], "abs_numerator": float(v)}
            for l, v in result.nonblocking
        ],
        "riccati_residual": riccati_residual,
        "grid_points": result.m,
        "error": None,
    }


def write_certificate(payload: dict, path: Path):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_csv(path: Path, header: list, columns: list, fmt="%.17g"):
    table = np.column_stack(columns)
    np.savetxt(path, table, fmt=fmt, delimiter=",", header=",".join(header), comments="")


def write_trace_csv(trace: simulator.SimTrace, path: Path):
    n = trace.n_agents
    header = ["t", "r"] + [f"{name}_{i + 1}" for name in "yeu" for i in range(n)]
    columns = [trace.times, trace.reference, trace.outputs, trace.tracking_errors, trace.inputs]
    _write_csv(path, header, columns)


def write_snapshot_csv(trace: simulator.SimTrace, out_dir: Path):
    """One ``profiles_t<t>.csv`` per snapshot, t printed by ``:g`` if exact, else by repr."""
    for t_snap, profiles in sorted(trace.snapshots.items()):
        name = f"{t_snap:g}" if float(f"{t_snap:g}") == t_snap else repr(t_snap)
        header = ["z"] + [f"x_{i + 1}" for i in range(profiles.shape[0])]
        nodes = np.linspace(0.0, 1.0, profiles.shape[1])
        _write_csv(out_dir / f"profiles_t{name}.csv", header, [nodes, profiles.T])


def write_metrics(metrics: simulator.ErrorMetrics, trace: simulator.SimTrace, path: Path):
    lines = [
        f"settling_time = {_FMT(metrics.settling_time)}",
        f"tail_error = {_FMT(metrics.tail_error)}",
        f"decay_rate = {_FMT(metrics.decay_rate)}",
        f"tail_sync_error = {_FMT(metrics.tail_sync_error)}",
    ]
    lines += [
        f"{key} = {_FMT(trace.metadata[key])}"
        for key in ("steps_per_s", "peak_state", "peak_ratio", "peak_time")
    ]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_kernel_csv(kernel: backstepping.TriangularKernel, path: Path):
    i, j = np.tril_indices(kernel.m + 1)
    nodes = kernel.nodes
    columns = [i, j, nodes[i], nodes[j], kernel.values[i, j]]
    _write_csv(path, ["i", "j", "z", "zeta", "value"], columns, fmt=["%d", "%d"] + ["%.17g"] * 3)


def cmd_synthesize(args) -> int:
    scenario = load_scenario(args.scenario)
    m = scenario.grid(args.grid_points)  # a grid below the floor writes nothing
    out = _out_dir(args, scenario)
    try:
        result = run_synthesis(scenario, m=m)
    except ToolkitError as exc:
        write_certificate(certificate_payload(None, error=exc), out / "certificate.json")
        print(f"synthesis failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    synthesis.write_gains_file(result.gains, out / "gains.txt")
    payload = certificate_payload(result)
    write_certificate(payload, out / "certificate.json")
    if args.kernel_csv:
        write_kernel_csv(result.kernel, out / "kernel.csv")
    status = "pass" if payload["passed"] else "fail"
    print(
        f"certificate: {status} (alpha_ev = {payload['alpha_ev']:.4g}, "
        f"overall alpha = {payload['overall_alpha']:.4g})"
    )
    print(f"wrote {out / 'gains.txt'} and {out / 'certificate.json'}")
    return 0 if payload["passed"] else 1


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    gains = synthesis.read_gains_file(args.gains)
    resolved = scenario.resolve(m=gains.m, dt=args.dt, horizon=args.horizon)
    cert_path = Path(args.gains).parent / "certificate.json"
    if cert_path.exists() and not _certificate_passed(cert_path):
        print("warning: simulating with gains whose certificate failed", file=sys.stderr)
    try:
        trace = simulator.simulate(resolved, gains)
    except ToolkitError as exc:
        print(f"simulation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    metrics = simulator.error_metrics(trace, scenario.mode)
    out = _out_dir(args, scenario)
    write_trace_csv(trace, out / "trace.csv")
    write_metrics(metrics, trace, out / "metrics.txt")
    write_snapshot_csv(trace, out)
    print(
        f"simulated {resolved.n_steps} steps; tail error {metrics.tail_error:.4g}, "
        f"settling time {metrics.settling_time:.4g}"
    )
    print(f"wrote {out / 'trace.csv'} and {out / 'metrics.txt'}")
    return 0


def _certificate_passed(path: Path) -> bool:
    """The ``passed`` flag of a certificate; a file that is not a JSON object is a ParseError."""
    try:
        payload = json.loads(read_text(path, "ascii"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg}", line=exc.lineno) from None
    if not isinstance(payload, dict):
        raise ParseError(f"{path} holds a JSON {type(payload).__name__}, not an object")
    return bool(payload.get("passed"))


def cmd_check(args) -> int:
    scenario = load_scenario(args.scenario)
    try:
        rows = run_synthesis(scenario, m=args.grid_points).hypotheses
    except ToolkitError as exc:
        rows = getattr(exc, "hypotheses", None)
        if rows is None:
            raise
    scenario.agent_specs(args.grid_points)  # simulate samples the agents' profiles too
    width = max(len(r.name) for r in rows)
    cond_width = max(len(r.condition) for r in rows)
    all_ok = all(r.passed for r in rows)
    for name, condition, passed, evidence in rows:
        status = "PASS" if passed else "FAIL"
        print(f"{name:<{width}}  {condition:<{cond_width}}  {status}  {evidence}")
    print(f"overall: {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


def _out_dir(args, scenario: Scenario) -> Path:
    path = Path(args.out or scenario.outputs.out_dir or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coop-reg",
        description=(
            "Design and simulate cooperative output-regulation controllers "
            "for networks of boundary-controlled parabolic agents."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize", help="design gains and write the certificate")
    p_syn.set_defaults(func=cmd_synthesize)
    p_sim = sub.add_parser("simulate", help="run the closed loop from a gains file")
    p_sim.set_defaults(func=cmd_simulate)
    p_chk = sub.add_parser("check", help="evaluate every design hypothesis")
    p_chk.set_defaults(func=cmd_check)
    for p in (p_syn, p_sim, p_chk):
        p.add_argument("--scenario", required=True, help="scenario file path")
    for p in (p_syn, p_sim):
        p.add_argument("--out", default=None, help="output directory")
    for p in (p_syn, p_chk):
        p.add_argument("--grid-points", type=int, default=None, help="override grid intervals")
    p_syn.add_argument("--kernel-csv", action="store_true", help="also dump the kernel table")
    p_sim.add_argument("--gains", required=True, help="gains file from synthesize")
    p_sim.add_argument("--dt", type=float, default=None, help="override time step")
    p_sim.add_argument("--horizon", type=float, default=None, help="override horizon")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (OSError, ToolkitError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
