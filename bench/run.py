"""coopreg benchmark: closed-loop repetitions, each in a fresh interpreter.

    python3 bench/run.py --workload leader_track --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all                   # every workload, one table

Run from the repository root; coopreg is imported from ``src/``.  One client
runs one repetition at a time (a closed loop) until ``--seconds`` have
passed, with at least MIN_REPS repetitions.  The untraced run (``--trace 0``)
reports the end-to-end metrics; the traced run (``--trace 1``) wraps the
layer boundaries and reports the per-layer metrics, the BLAS single-thread
baseline, the import breakdown and its own overhead.  The last stdout line
is one JSON object {"correct", "attempted", "failed", "metrics"}; the full
result with every span is written to ``.bench_out/<workload>-trace<0|1>.json``.
Workloads, metrics and the layer each metric should move: see README.md.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH_DIR))

import rep  # noqa: E402

MIN_REPS = 3
MIN_TRACED_REPS = 2  # each of traced and untraced, in the traced run
IMPORTTIME_LAUNCHES = 3
CHILD_TIMEOUT_S = 120
IMPORT_MODULES = (
    "coopreg", "coopreg.errors", "coopreg.grid", "coopreg.expressions", "coopreg.comm_graph",
    "coopreg.signal_model", "coopreg.backstepping", "coopreg.synthesis", "coopreg.simulator",
    "coopreg.scenario", "coopreg.cli", "scipy.integrate", "scipy.linalg", "scipy.sparse.linalg",
)
# Layer spans reported by the traced run on every workload, each with ms, self_ms and calls.
COMMON_SPANS = (
    "backstepping.solve_kernel", "backstepping.invert_kernel", "backstepping.transform_output_weight",
    "synthesis.solve_decoupling", "synthesis.check_controllable_pair", "synthesis.solve_are",
    "synthesis.certify_stability", "synthesis.assemble_gains", "comm_graph", "signal_model",
    "cli.run_synthesis",
)


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def child_env(**extra) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # coopreg comes from this checkout's src/ only
    env.update(extra)
    return env


def launch(argv, env=None) -> dict:
    """Run one ``rep.py`` child to completion; return its rc, last JSON line and stderr."""
    launched = monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "rep.py"), *argv, "--launched-ns", str(launched)],
        cwd=ROOT, env=env or child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    except BaseException:  # interrupted or terminated: leave no child behind
        proc.kill()
        proc.wait()
        raise
    payload = None
    lines = out.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            payload = json.loads(lines[-1])
        except json.JSONDecodeError:
            payload = None
    return {"rc": proc.returncode, "payload": payload, "stderr": err[-2000:]}


def run_rep(workload, seed, i, trace, size, env=None) -> dict:
    workdir = OUT_DIR / f"rep-{workload}-{os.getpid()}-{i}"
    argv = [
        "--workload", workload, "--seed", str(seed), "--rep", str(i),
        "--workdir", str(workdir), "--size", size, *(["--trace"] if trace else []),
    ]
    try:
        result = launch(argv, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def rep_failed(result) -> bool:
    payload = result["payload"]
    return result["rc"] != 0 or payload is None or not payload.get("ok")


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run_workload(workload, seed, seconds, trace, size, reps=None) -> dict:
    """Repetitions of one workload for ``seconds``; returns every sample and the summary.

    The traced run alternates traced and untraced repetitions, so that its
    overhead is measured against untraced ones of the same run.  ``reps``
    replaces the repetition launcher (the self-test injects failures with it).
    """
    reps = reps or (lambda i, traced: run_rep(workload, seed, i, traced, size))
    min_each = MIN_TRACED_REPS if trace else MIN_REPS
    start = monotonic_ns()
    untraced, traced, setup_samples = [], [], []
    i = 0
    while (
        (monotonic_ns() - start) / 1e9 < seconds
        or len(untraced) < min_each
        or (trace and len(traced) < min_each)
    ):
        traced_turn = trace and i % 2 == 0
        result = reps(i, traced_turn)
        (traced if traced_turn else untraced).append(result)
        if not traced_turn:
            # one more set-up sample per repetition, from a launch that stops after set-up
            setup_only = launch(["--workload", workload, "--rep", str(-1 - i), "--workdir", str(OUT_DIR),
                                 "--size", size, "--setup-only"])
            setup_samples += [r["payload"]["setup_s"] for r in (result, setup_only) if r["payload"]]
        i += 1

    attempted = untraced + traced
    failed = [r for r in attempted if rep_failed(r)]
    ok_untraced = [r["payload"] for r in untraced if not rep_failed(r)]
    ok_traced = [r["payload"] for r in traced if not rep_failed(r)]
    ok_any = ok_untraced + ok_traced
    summary = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "attempted": len(attempted),
        "failed": len(failed),
        "failures": [
            {"rc": r["rc"], "error": (r["payload"] or {}).get("error"),
             "checks": (r["payload"] or {}).get("checks"), "stderr": r["stderr"]}
            for r in failed
        ],
        "samples": {
            "setup_s": setup_samples,
            "wall_s": [p["wall_s"] for p in ok_untraced],
            "design_s": [p["design_s"] for p in ok_untraced],
            "peak_rss_mb": [p["peak_rss_mb"] for p in ok_untraced],
            "sim_steps_per_s": [p["counts"]["sim_steps"] / p["sim_s"] for p in ok_untraced if p["sim_s"] > 0],
        },
        "env": environment(next((r["payload"]["env"] for r in attempted if r["payload"]), {})),
    }
    if ok_any:
        summary["counts"] = ok_any[0]["counts"]
        summary["counts_repeat_exactly"] = all(p["counts"] == ok_any[0]["counts"] for p in ok_any)
        summary["dev"] = {k: max_dev([p["dev"][k] for p in ok_any]) for k in ok_any[0]["dev"]}
    if trace:
        layers = layer_metrics(ok_traced)
        layers["count.kernel_cells_computed"] = summary.get("counts", {}).get("kernel_cells_computed")
        traced_wall = median([p["wall_s"] for p in ok_traced])
        untraced_wall = median(summary["samples"]["wall_s"])
        if traced_wall is not None and untraced_wall is not None:
            layers["trace.overhead_s"] = traced_wall - untraced_wall
        layers.update(import_breakdown())
        layers["simulator.simulate.us_per_step_blas1"] = blas1_baseline(seed, size)
        summary["layers"] = layers
        summary["spans"] = [s for p in ok_traced for s in p["spans"]]
    return summary


def max_dev(values):
    return None if not values or any(v is None for v in values) else max(values)


def layer_metrics(payloads) -> dict:
    """Span totals per traced repetition, as medians over repetitions."""
    out = {}
    if not payloads:
        return out
    names = sorted({n for p in payloads for n in p["span_stats"]} | set(COMMON_SPANS))
    zero = {"ms": 0.0, "self_ms": 0.0, "calls": 0}
    for name in names:
        rows = [p["span_stats"].get(name, zero) for p in payloads]
        out[f"{name}.ms"] = median([r["ms"] for r in rows])
        out[f"{name}.self_ms"] = median([r["self_ms"] for r in rows])
        out[f"{name}.calls"] = rows[0]["calls"]  # zero calls: the span no longer sees its function
    out["setup.import_coopreg.ms"] = median([p["import_ms"] for p in payloads])
    for span, count, key in (
        ("simulator.simulate", "sim_steps", "simulator.simulate.us_per_step"),
        ("simulator.simulate_target_cascade", "cascade_steps", "simulator.cascade.us_per_step"),
    ):
        per_step = [1e3 * p["span_stats"][span]["ms"] / p["counts"][count] for p in payloads if p["counts"][count]]
        if per_step:
            out[key] = median(per_step)
    return out


def import_breakdown() -> dict:
    """setup.import.<module>.ms: cumulative ``-X importtime`` time, median of launches."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import coopreg, coopreg.cli"
    samples = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORTTIME_LAUNCHES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        seen = {}
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S.*)$", line)
            if match:
                seen.setdefault(match.group(3).strip(), int(match.group(2)) / 1e3)
        for module in IMPORT_MODULES:
            samples[module].append(seen.get(module, 0.0))  # absent: not imported, costs nothing
    return {f"setup.import.{m}.ms": statistics.median(v) for m, v in samples.items()}


def blas1_baseline(seed, size) -> float | None:
    """leader_track simulate with OPENBLAS_NUM_THREADS=1 in the child only, µs per step."""
    result = run_rep("leader_track", seed, 10_000, True, size, env=child_env(OPENBLAS_NUM_THREADS="1"))
    if rep_failed(result):
        return None
    p = result["payload"]
    return 1e3 * p["span_stats"]["simulator.simulate"]["ms"] / p["counts"]["sim_steps"]


def environment(child_env_record: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        **child_env_record,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# --------------------------------------------------------------------------
# reporting


def end_to_end(summary) -> dict:
    s = summary["samples"]
    return {
        "setup_s": (median(s["setup_s"]), "s"),
        "wall_s": (median(s["wall_s"]), "s"),
        "design_s": (median(s["design_s"]), "s"),
        "peak_rss_mb": (median(s["peak_rss_mb"]), "MB"),
        "sim_steps_per_s": (median(s["sim_steps_per_s"]), "1/s"),
        "failed_frac": (summary["failed"] / summary["attempted"], "1"),
    }


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def unit_of(name: str) -> str:
    if name.endswith((".ms", ".self_ms")):
        return "ms"
    if name.endswith(".calls"):
        return "count"
    if ".us_per_step" in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    return "count"


def print_report(summary, trace):
    e2e = end_to_end(summary)
    w = summary["workload"]
    print(f"== {w}  seed {summary['seed']}  size {summary['size']}  "
          f"{summary['attempted']} repetitions, {summary['failed']} failed")
    for name, (value, unit) in e2e.items():
        n = len(summary["samples"].get(name, []))
        if value is None:
            why = "no successful repetition" if summary["failed"] == summary["attempted"] else f"not exercised by {w}"
            print(f"  {name:<18} n/a  ({why})")
        else:
            print(f"  {name:<18} {value:.6g} {unit}" + (f"  (median of {n})" if n else ""))
    for key, value in summary.get("counts", {}).items():
        print(f"  count.{key:<30} {value}")
    print(f"  counts repeat exactly across repetitions: {summary.get('counts_repeat_exactly')}")
    for key, value in summary.get("dev", {}).items():
        print(f"  {key:<24} {'n/a (no reference for this workload)' if value is None else f'{value:.3g}'}")
    print("  env " + json.dumps(summary["env"], sort_keys=True))
    if trace:
        for key, value in sorted(summary["layers"].items()):
            print(f"  {key:<52} {'n/a' if value is None else f'{value:.6g}'} {unit_of(key)}")
    for f in summary["failures"]:
        print(f"  FAILED repetition: rc={f['rc']} error={f['error']} checks={f['checks']}", file=sys.stderr)
        if f["stderr"]:
            print(f["stderr"], file=sys.stderr)


def result_line(summary, trace) -> dict:
    """The last stdout line: the metrics BENCHMARK.json names for this mode."""
    names = [m["name"] for m in spec()["per_layer" if trace else "end_to_end"]]
    source = summary["layers"] if trace else {k: v for k, (v, _) in end_to_end(summary).items()}
    units = {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}
    metrics = {n: {"value": source.get(n), "unit": units[n]} for n in names}
    complete = all(isinstance(m["value"], (int, float)) for m in metrics.values())
    return {
        "correct": summary["failed"] == 0 and complete,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def preflight():
    """Fail fast, printing no result, when the program is not in this checkout."""
    if not (ROOT / "src" / "coopreg" / "__init__.py").is_file():
        sys.exit("bench: src/coopreg not found in this checkout; nothing to measure")
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import coopreg, coopreg.cli"
    # the first import also writes bytecode and warms the file cache, untimed
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("bench: cannot import coopreg from src/")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="coopreg benchmark")
    ap.add_argument("--workload", required=True, choices=[*rep.SCENARIOS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(rep.SIZES), default="full", help="small: self-test size")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    seconds = spec()["run_seconds"] if args.seconds is None else args.seconds

    preflight()
    OUT_DIR.mkdir(exist_ok=True)
    workloads = list(rep.SCENARIOS) if args.workload == "all" else [args.workload]
    lines = {}
    for workload in workloads:
        summary = run_workload(workload, args.seed, seconds, bool(args.trace), args.size)
        print_report(summary, bool(args.trace))
        (OUT_DIR / f"{workload}-trace{args.trace}.json").write_text(json.dumps(summary, indent=1) + "\n")
        lines[workload] = result_line(summary, bool(args.trace))
    if args.workload == "all":
        print(json.dumps(lines))
    else:
        print(json.dumps(lines[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
