"""Write the seed reference that every benchmark run compares its outputs to.

    python3 bench/make_reference.py

Run from the repository root.  It synthesizes both shipped scenarios at
m = 200 and m = 800 and runs the leader_track simulation through
``coopreg.cli.main``, then stores under ``bench/reference/``:

* ``gains_<scenario>_m<m>.txt``: the gains files as written (bit exact);
* ``alpha_ev.json``: the certificate's alpha_ev per scenario and grid;
* ``leader_track_outputs.json``: the sampled outputs y_1..y_N of leader_track.

The files committed were made at the commit that introduced the benchmark.
Regenerate them only when an output change is intended and stated.
"""

import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import rep  # noqa: E402


def main() -> int:
    import coopreg.cli

    out = BENCH_DIR / "reference"
    scratch = ROOT / ".bench_out" / "reference-build"
    out.mkdir(exist_ok=True)
    alphas = {}
    for name in (rep.LEADER, rep.LEADERLESS):
        scenario = str(ROOT / "src" / "coopreg" / "scenarios" / name)
        for m in (200, 800):
            design = scratch / f"{Path(name).stem}_m{m}"
            rc = coopreg.cli.main(["synthesize", "--scenario", scenario, "--grid-points", str(m), "--out", str(design)])
            if rc != 0:
                raise SystemExit(f"synthesize failed on {name} at m={m}")
            shutil.copyfile(design / "gains.txt", rep.reference_gains_path(name, m))
            alphas[f"{Path(name).stem}_m{m}"] = json.loads((design / "certificate.json").read_text())["alpha_ev"]
    (out / "alpha_ev.json").write_text(json.dumps(alphas, indent=1) + "\n")

    scenario = str(ROOT / "src" / "coopreg" / "scenarios" / rep.LEADER)
    run = scratch / "leader_track"
    gains = scratch / f"{Path(rep.LEADER).stem}_m200" / "gains.txt"
    if coopreg.cli.main(["simulate", "--scenario", scenario, "--gains", str(gains), "--out", str(run)]) != 0:
        raise SystemExit("simulate failed on the leader scenario")
    n_agents = coopreg.load_scenario(scenario).n_agents
    _, outputs, _ = rep.read_trace(run / "trace.csv", n_agents)
    (out / "leader_track_outputs.json").write_text(json.dumps({"outputs": outputs}) + "\n")
    shutil.rmtree(scratch)
    return 0


if __name__ == "__main__":
    sys.exit(main())
