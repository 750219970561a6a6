"""Self-test of the benchmark at small size (m = 64, a few hundred steps).

    python3 bench/selftest.py

Run from the repository root; takes about a minute.  It fails (exit 1) when

* a metric BENCHMARK.json names, or one of the report's end-to-end metrics,
  is missing, not a number, or has no unit;
* a layer span the workload must pass through records zero calls, as it
  would after the wrapped function moved or was renamed;
* a repetition that raised, exited non-zero or failed its correctness check
  is dropped instead of counted in failed_frac.
"""

import copy
import sys

import run

REPORT_METRICS = ("setup_s", "wall_s", "design_s", "peak_rss_mb", "failed_frac")
# Spans each workload must pass through, beside run.COMMON_SPANS.
WORKLOAD_SPANS = {
    "leader_track": (
        "scenario.load_scenario", "scenario.resolve", "synthesis.write_gains_file",
        "synthesis.read_gains_file", "cli.cmd_simulate", "cli.write_trace_csv",
        "simulator.simulate", "simulator.error_metrics",
    ),
    "fine_design": ("scenario.load_scenario", "scenario.resolve", "synthesis.write_gains_file"),
    "oracle_cross": (
        "scenario.load_scenario", "scenario.resolve", "simulator.simulate",
        "simulator.transform_state_trace", "backstepping.integral_operator",
        "simulator.simulate_target_cascade",
    ),
}
SIM_WORKLOADS = ("leader_track", "oracle_cross")


def check_line(line, kind, problems, where):
    for m in run.spec()[kind]:
        got = line["metrics"].get(m["name"])
        if got is None:
            problems.append(f"{where}: {m['name']} missing")
        elif not isinstance(got["value"], (int, float)) or not got.get("unit"):
            problems.append(f"{where}: {m['name']} = {got} has no number or no unit")
    if set(line["metrics"]) != {m["name"] for m in run.spec()[kind]}:
        problems.append(f"{where}: metrics other than BENCHMARK.json's {kind}")


def main() -> int:
    problems = []
    run.preflight()
    run.OUT_DIR.mkdir(exist_ok=True)
    for workload in WORKLOAD_SPANS:
        plain = run.run_workload(workload, seed=1, seconds=0, trace=False, size="small")
        if plain["failed"]:
            problems.append(f"{workload}: {plain['failed']} small repetitions failed: {plain['failures']}")
        check_line(run.result_line(plain, trace=False), "end_to_end", problems, f"{workload} untraced")
        report = run.end_to_end(plain)
        wanted = REPORT_METRICS + (("sim_steps_per_s",) if workload in SIM_WORKLOADS else ())
        for name in wanted:
            value, unit = report[name]
            if not isinstance(value, (int, float)) or not unit:
                problems.append(f"{workload}: report metric {name} = {value!r} {unit!r}")

        traced = run.run_workload(workload, seed=1, seconds=0, trace=True, size="small")
        check_line(run.result_line(traced, trace=True), "per_layer", problems, f"{workload} traced")
        for span in run.COMMON_SPANS + WORKLOAD_SPANS[workload]:
            if not traced["layers"].get(f"{span}.calls"):
                problems.append(f"{workload}: span {span} recorded zero calls")
        print(f"selftest: {workload} done", flush=True)

    # A failed repetition is counted, not dropped: one real repetition, one
    # that exits non-zero and one whose correctness check fails.
    real = run.run_rep("leader_track", 1, 0, False, "small")
    bad_check = copy.deepcopy(real)
    bad_check["payload"]["checks"]["certificate_passed"] = False
    bad_check["payload"]["ok"] = False
    crashed = {"rc": 1, "payload": None, "stderr": "Traceback (simulated crash)"}
    canned = iter([real, crashed, bad_check])
    summary = run.run_workload("leader_track", 1, 0, False, "small", reps=lambda i, traced: next(canned))
    frac = run.end_to_end(summary)["failed_frac"][0]
    line = run.result_line(summary, trace=False)
    if (summary["attempted"], summary["failed"]) != (3, 2) or abs(frac - 2 / 3) > 1e-12:
        problems.append(f"failed repetitions miscounted: {summary['attempted']} attempted, "
                        f"{summary['failed']} failed, failed_frac {frac}")
    if line["correct"] or line["failed"] != 2:
        problems.append(f"result line hides failures: {line}")

    for p in problems:
        print(f"selftest FAIL: {p}", file=sys.stderr)
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
