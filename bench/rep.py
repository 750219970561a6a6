"""One benchmark repetition, run in a fresh interpreter by ``bench/run.py``.

Usage (normally only ``run.py`` starts it):

    python3 bench/rep.py --workload leader_track --seed 1 --rep 0 \
        --launched-ns <CLOCK_MONOTONIC ns> --workdir <dir> [--trace] [--size small]

The repetition imports coopreg from ``src/`` of the checkout, loads and
resolves the workload's scenarios (set-up), runs the workload through
``coopreg.cli.main`` or the package's public functions, checks the outputs
against the acceptance thresholds and prints one JSON object as its last
stdout line.  With ``--setup-only`` it stops after set-up.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402  (the bench's own module, next to this file)

LEADER = "four_agent_leader.cfg"
LEADERLESS = "four_agent_leaderless.cfg"

# Problem size per workload.  "full" is the benchmark; "small" is the
# self-test size (m = 64, 400 leader steps).  The small oracle keeps 1000
# steps: its tolerance 5(1/m^2 + dt) is the one criterion 5 states for
# 2000-step runs, and runs of a few hundred steps at m = 64 can exceed it.
SIZES = {
    "full": {
        "leader_track": {"m": 200, "dt": None, "horizon": None},
        "fine_design": {"m": 800},
        "oracle_cross": {"m": 200, "dt": 1e-3, "steps": 2000, "draws": 4},
    },
    "small": {
        "leader_track": {"m": 64, "dt": 0.05, "horizon": 20.0},
        "fine_design": {"m": 64},
        "oracle_cross": {"m": 64, "dt": 1e-3, "steps": 1000, "draws": 2},
    },
}
SCENARIOS = {
    "leader_track": (LEADER,),
    "fine_design": (LEADER, LEADERLESS),
    "oracle_cross": (LEADER,),
}
ORACLE_SAMPLE_EVERY = 5
TAIL_START = 16.0  # leader_track: tail window t >= 16 of the 20 s horizon


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SCENARIOS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rep", type=int, default=0)
    ap.add_argument("--launched-ns", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter_ns()
    import coopreg
    import coopreg.cli
    t_import = time.perf_counter_ns()
    if not Path(coopreg.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"coopreg was imported from {coopreg.__file__}, not from this checkout")

    size = SIZES[args.size][args.workload]
    scenario_dir = ROOT / "src" / "coopreg" / "scenarios"
    paths = [scenario_dir / name for name in SCENARIOS[args.workload]]
    recorder = spans.Recorder(args.rep)
    if args.trace:
        recorder.install(["scenario.load_scenario", "scenario.resolve"])
    loaded = [coopreg.load_scenario(p) for p in paths]
    resolved = [
        s.resolve(m=size["m"], dt=size.get("dt"), horizon=size.get("horizon")) for s in loaded
    ]
    recorder.uninstall()
    t_setup_ns = monotonic_ns()

    result = {
        "workload": args.workload,
        "rep": args.rep,
        "setup_s": (t_setup_ns - args.launched_ns) / 1e9,
        "import_ms": (t_import - t0) / 1e6,
    }
    if args.setup_only:
        result.update(ok=True, env=environment())
        print(json.dumps(result))
        return 0

    # Stage timers: the end-to-end metrics need design and simulate time.
    # The traced run wraps every layer boundary instead.
    info_of = {
        "simulator.simulate": lambda a: {"steps": a[0].n_steps},
        "simulator.simulate_target_cascade": lambda a: {"steps": a[6]},
    }
    names = list(spans.NAMED_SPANS) + list(spans.AGGREGATE_SPANS) if args.trace else spans.STAGE_SPANS
    recorder.install(names, info_of)
    workdir = Path(args.workdir)
    run = WORKLOADS[args.workload]
    try:
        with recorder.span("bench.workload"), contextlib.redirect_stdout(io.StringIO()):
            outcome = run(coopreg, loaded, resolved, size, workdir, args)
        error = None
    except Exception as exc:  # a raising repetition is a failed one, not a lost one
        outcome, error = {"checks": {}, "counts": {}, "dev": {}}, f"{type(exc).__name__}: {exc}"
    finally:
        recorder.uninstall()
    if error is None:
        try:
            outcome = outcome()  # checks run untimed by the layer spans, inside wall_s
        except Exception as exc:
            outcome, error = {"checks": {}, "counts": {}, "dev": {}}, f"check raised {type(exc).__name__}: {exc}"
    t_done_ns = monotonic_ns()

    records = recorder.records()
    stats = spans.summarize(records)
    sims = [r for r in records if r["name"] == "simulator.simulate"]
    cascades = [r for r in records if r["name"] == "simulator.simulate_target_cascade"]
    counts = dict(outcome["counts"])
    counts["sim_steps"] = sum(r["info"]["steps"] for r in sims)
    counts["cascade_steps"] = sum(r["info"]["steps"] for r in cascades)
    result.update(
        ok=error is None and all(outcome["checks"].values()),
        error=error,
        checks=outcome["checks"],
        counts=counts,
        dev=outcome["dev"],
        wall_s=(t_done_ns - args.launched_ns) / 1e9,
        design_s=stats.get("cli.run_synthesis", {}).get("ms", 0.0) / 1e3,
        sim_s=stats.get("simulator.simulate", {}).get("ms", 0.0) / 1e3,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        env=environment(),
    )
    if args.trace:
        result["span_stats"] = stats
        result["spans"] = records
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------------
# workloads: each runs the work and returns a closure that checks it


def leader_track(coopreg, loaded, resolved, size, workdir, args):
    """README command pair on the shipped leader scenario: synthesize, simulate."""
    scenario = str(ROOT / "src" / "coopreg" / "scenarios" / LEADER)
    design, run = workdir / "design", workdir / "run"
    extra = [] if args.size == "full" else ["--grid-points", str(size["m"])]
    sim_extra = [] if args.size == "full" else ["--dt", str(size["dt"]), "--horizon", str(size["horizon"])]
    rc_syn = coopreg.cli.main(["synthesize", "--scenario", scenario, "--out", str(design), *extra])
    rc_sim = coopreg.cli.main(
        ["simulate", "--scenario", scenario, "--gains", str(design / "gains.txt"), "--out", str(run), *sim_extra]
    )

    def check():
        cert = json.loads((design / "certificate.json").read_text())
        times, outputs, errors = read_trace(run / "trace.csv", n_agents=loaded[0].n_agents)
        decay = read_metrics(run / "metrics.txt")["decay_rate"]
        tail = max(abs(e) for t, row in zip(times, errors) if t >= TAIL_START for e in row)
        gains = coopreg.read_gains_file(design / "gains.txt")
        m = gains.m
        checks = {
            "synthesize_exit_0": rc_syn == 0,
            "simulate_exit_0": rc_sim == 0,
            **certificate_checks(cert, loaded[0]),
            "tail_error_below_0.1": tail < 0.1,
            "decay_rate_positive": decay > 0.0,
        }
        counts = {
            "trace_rows": len(times),
            "gains_bytes": (design / "gains.txt").stat().st_size,
            "kernel_cells_computed": kernel_cells(m),
        }
        dev = {
            "gains.max_rel_dev": gains_deviation(coopreg, gains, LEADER, m),
            "alpha_ev.rel_dev": alpha_deviation(cert["alpha_ev"], LEADER, m),
            "trace.max_rel_dev": trace_deviation(outputs, m, args.size),
        }
        return {"checks": checks, "counts": counts, "dev": dev}

    return check


def fine_design(coopreg, loaded, resolved, size, workdir, args):
    """Grid refinement of a design: synthesize both scenarios at --grid-points."""
    m = size["m"]
    rcs, outs = [], []
    for name in SCENARIOS["fine_design"]:
        out = workdir / Path(name).stem
        scenario = str(ROOT / "src" / "coopreg" / "scenarios" / name)
        rcs.append(coopreg.cli.main(["synthesize", "--scenario", scenario, "--grid-points", str(m), "--out", str(out)]))
        outs.append(out)

    def check():
        checks, dev = {}, {"gains.max_rel_dev": 0.0, "alpha_ev.rel_dev": 0.0, "trace.max_rel_dev": None}
        gains_bytes = 0
        for name, scenario, rc, out in zip(SCENARIOS["fine_design"], loaded, rcs, outs):
            tag = Path(name).stem
            cert = json.loads((out / "certificate.json").read_text())
            checks[f"{tag}.synthesize_exit_0"] = rc == 0
            for key, ok in certificate_checks(cert, scenario).items():
                checks[f"{tag}.{key}"] = ok
            gains = coopreg.read_gains_file(out / "gains.txt")
            gains_bytes += (out / "gains.txt").stat().st_size
            dev["gains.max_rel_dev"] = max_or_none(dev["gains.max_rel_dev"], gains_deviation(coopreg, gains, name, m))
            dev["alpha_ev.rel_dev"] = max_or_none(dev["alpha_ev.rel_dev"], alpha_deviation(cert["alpha_ev"], name, m))
        counts = {"gains_bytes": gains_bytes, "kernel_cells_computed": len(outs) * kernel_cells(m)}
        return {"checks": checks, "counts": counts, "dev": dev}

    return check


def oracle_cross(coopreg, loaded, resolved, size, workdir, args):
    """Criterion-5 structural oracle: transformed trace vs target cascade."""
    import numpy as np
    from coopreg import simulator

    m, dt, n_steps = size["m"], size["dt"], size["steps"]
    design = coopreg.cli.run_synthesis(loaded[0], m=m)
    coupling = design.graph.leader_follower
    base = resolved[0]
    n_agents, n_w = len(base.agents), design.exo.n_w
    rng = np.random.default_rng([args.seed, args.rep])
    discrepancies = []
    for _ in range(size["draws"]):
        x0 = [random_smooth_profile(rng, m) for _ in range(n_agents)]
        v0 = rng.normal(size=(n_agents, n_w))
        draw = dataclasses.replace(
            base,
            agents=nominal_agents(coopreg, m, x0, channels=base.agents[0].n_channels),
            dt=dt,
            n_steps=n_steps,
            sample_every=ORACLE_SAMPLE_EVERY,
            snapshot_times=(),
            blowup_bound=1e8,
            v0=tuple(tuple(row) for row in v0),
            w0=(0.0,) * n_w,
        )
        trace = coopreg.simulate(draw, design.gains, record_state=True)
        e_v, x_t = simulator.transform_state_trace(trace, design.kernel, design.decoupling.q_tilde, coupling)
        cascade = coopreg.simulate_target_cascade(
            design.gains, coupling, design.decoupling.q_tilde_at_1, e_v[0], x_t[0], dt, n_steps, ORACLE_SAMPLE_EVERY
        )
        discrepancies.append(cascade_discrepancy(coopreg, e_v, x_t, cascade))

    def check():
        payload = coopreg.cli.certificate_payload(design)
        tol = 5.0 * (1.0 / m**2 + dt)
        checks = {
            **certificate_checks(payload, loaded[0]),
            "cascade_discrepancy_within_5(1/m^2+dt)": max(discrepancies) <= tol,
        }
        counts = {"kernel_cells_computed": kernel_cells(m)}
        dev = {
            "gains.max_rel_dev": gains_deviation(coopreg, design.gains, LEADER, m),
            "alpha_ev.rel_dev": alpha_deviation(payload["alpha_ev"], LEADER, m),
            "trace.max_rel_dev": None,  # seeded inputs: no stored reference trace
        }
        return {"checks": checks, "counts": counts, "dev": dev}

    return check


WORKLOADS = {"leader_track": leader_track, "fine_design": fine_design, "oracle_cross": oracle_cross}


# --------------------------------------------------------------------------
# checks and reference comparison


def certificate_checks(cert: dict, scenario) -> dict:
    """Acceptance thresholds: certificate passed, Riccati residual <= 1e-8 a n_w."""
    n_w = len(scenario.w0)
    bound = 1e-8 * scenario.numerics.riccati_a * n_w
    return {
        "certificate_passed": bool(cert.get("passed")),
        "riccati_residual_ok": cert.get("riccati_residual") is not None and cert["riccati_residual"] <= bound,
    }


def read_trace(path: Path, n_agents: int):
    times, outputs, errors = [], [], []
    with open(path, encoding="ascii") as fh:
        next(fh)
        for line in fh:
            vals = [float(v) for v in line.split(",")]
            times.append(vals[0])
            outputs.append(vals[2 : 2 + n_agents])
            errors.append(vals[2 + n_agents : 2 + 2 * n_agents])
    return times, outputs, errors


def read_metrics(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        out[key.strip()] = float(value)
    return out


def kernel_cells(m: int) -> int:
    """Cells of the triangular kernel table, computed as (m+1)(m+2)/2."""
    return (m + 1) * (m + 2) // 2


def random_smooth_profile(rng, m: int, n_modes: int = 5):
    import numpy as np

    nodes = np.linspace(0.0, 1.0, m + 1)
    coeffs = rng.normal(size=n_modes)
    return sum(c * np.cos(np.pi * k * nodes) for k, c in enumerate(coeffs))


def nominal_agents(coopreg, m: int, profiles, channels: int):
    """Uncertainty-free agents with zero disturbance wiring."""
    import numpy as np

    zero = coopreg.GridFunction.constant(0.0, m)
    return tuple(
        coopreg.AgentSpec(
            delta_lambda=zero,
            delta_a=zero,
            g1=np.zeros((m + 1, channels)),
            g2=np.zeros(channels),
            g3=np.zeros(channels),
            g4=np.zeros(channels),
            initial_profile=coopreg.GridFunction(np.asarray(p, dtype=float)),
        )
        for p in profiles
    )


def cascade_discrepancy(coopreg, e_v, x_tilde, cascade) -> float:
    """Relative L2 distance between a transformed trace and a cascade trace."""
    import numpy as np
    from coopreg.grid import trapezoid_weights

    w = trapezoid_weights(x_tilde.shape[2] - 1)
    num = np.sum((e_v - cascade.e_v) ** 2) + np.sum((x_tilde - cascade.x_tilde) ** 2 @ w)
    den = np.sum(cascade.e_v**2) + np.sum(cascade.x_tilde**2 @ w)
    return float(np.sqrt(num / den))


def reference_gains_path(scenario: str, m: int) -> Path:
    return REFERENCE_DIR / f"gains_{Path(scenario).stem}_m{m}.txt"


def gains_deviation(coopreg, gains, scenario: str, m: int):
    """Max over gain fields of max|g - g_ref| / max|g_ref|; None without a reference."""
    import numpy as np

    path = reference_gains_path(scenario, m)
    if not path.exists():
        return None
    ref = coopreg.read_gains_file(path)
    worst = 0.0
    for name in ("k_v", "k_1", "b_y", "S", "mu_c", "k_x", "r_x"):
        a, b = getattr(gains, name), getattr(ref, name)
        a = np.asarray(getattr(a, "values", a), dtype=float)
        b = np.asarray(getattr(b, "values", b), dtype=float)
        if a.shape != b.shape:
            return float("inf")
        scale = float(np.abs(b).max()) or 1.0
        worst = max(worst, float(np.abs(a - b).max()) / scale)
    return worst


def alpha_deviation(alpha_ev: float, scenario: str, m: int):
    path = REFERENCE_DIR / "alpha_ev.json"
    ref = json.loads(path.read_text()).get(f"{Path(scenario).stem}_m{m}") if path.exists() else None
    if ref is None:
        return None
    return abs(alpha_ev - ref) / abs(ref)


def trace_deviation(outputs, m: int, size: str):
    """Max |y - y_ref| / max |y_ref| over leader_track's sampled outputs."""
    path = REFERENCE_DIR / "leader_track_outputs.json"
    if size != "full" or not path.exists():
        return None
    ref = json.loads(path.read_text())["outputs"]
    if len(ref) != len(outputs) or len(ref[0]) != len(outputs[0]):
        return float("inf")
    scale = max(abs(v) for row in ref for v in row) or 1.0
    return max(abs(a - b) for ra, rb in zip(outputs, ref) for a, b in zip(ra, rb)) / scale


def max_or_none(a, b):
    return None if a is None or b is None else max(a, b)


def environment() -> dict:
    """Library versions and BLAS threads as seen inside a repetition."""
    import ctypes
    import platform

    import numpy as np
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads, libs = {}, []
    try:  # the OpenBLAS libraries numpy and scipy loaded, as mapped into this process
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        pass
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(lib).name] = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


if __name__ == "__main__":
    sys.exit(main())
