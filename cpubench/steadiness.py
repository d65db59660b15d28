"""A/A steadiness report: two sets of runs of one commit.

Usage, from the root of a checkout::

    python3 cpubench/steadiness.py

Each of the two sets runs every workload once per seed, :data:`RUNS`
seeds, rotating through the workloads (interleaved), as separate
processes of ``cpubench/run.py`` at ``BENCHMARK.json``'s
``run_seconds``.  For each workload and end-to-end metric the report
prints, per set, the median, the quartiles and the spread (IQR / median)
next to the metric's bound, then how far the second set's median moved
from the first's in the metric's worse direction.  Every run's
``host.steal_share``, its median burst time ``host.burst_s`` (how slow
the host ran, see ``hostclock.py``) and its work (flit hops simulated
while timed, a pure function of the seed) are printed, so a noisy
episode shows, and the spread of the work across seeds tells how much
of a metric's spread the seeds themselves cause.  A run per workload at :data:`HELD_OUT_SEED`,
a seed not used while the benchmark was written, must pass every check,
and one traced run per workload reports the tracing overhead.  Raw
results go to ``cpubench/out/steadiness.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

HELD_OUT_SEED = 8675309
SETS = 2
#: seeds per set
RUNS = 10
#: first seed of set k is SEED_BASE + k * RUNS
SEED_BASE = 100


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"workload": workload, "seed": seed, "correct": False,
                "attempted": 1, "failed": 1, "metrics": {}, "info": {}}
    info = {}
    for line in lines:
        if line.startswith("info "):
            info = json.loads(line[5:])
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "info": info, **result}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and IQR / median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """How much ``second`` is worse than ``first``, as a share of it."""
    if not first:
        return 0.0
    change = (second - first) / first
    return -change if better == "higher" else change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    results: list[dict] = []
    for k in range(SETS):
        for i in range(RUNS):
            seed = SEED_BASE + k * RUNS + i
            for workload in workloads:
                out = run_once(workload, seed, seconds, 0)
                out["set"] = k
                results.append(out)
                info = out["info"]
                print(f"set {k} seed {seed:4d} {workload:18s} "
                      f"correct={out['correct']} "
                      f"rounds={out['attempted']} "
                      f"steal={info.get('host.steal_share', float('nan')):.4f} "
                      f"burst={info.get('host.burst_s', float('nan')):.5f} "
                      f"work={info.get('work.flit_hops', 0)}", flush=True)

    ok = True
    print()
    print(f"{'workload':18s} {'metric':24s} {'set':>3s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
    for workload in workloads:
        runs = [r for r in results if r["workload"] == workload]
        work = [r["info"]["work.flit_hops"] for r in runs if r["info"]]
        if len(work) >= 3:
            median, q1, q3, share = spread(work)
            print(f"{workload:18s} {'work.flit_hops (seeds)':24s} "
                  f"{'all':>3s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{share:8.4f}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for k in range(SETS):
                values = [
                    r["metrics"][name]["value"]
                    for r in runs
                    if r["set"] == k and name in r["metrics"]
                ]
                if len(values) < 3:
                    print(f"{workload:18s} {name:24s} {k:3d}  too few runs")
                    ok = False
                    continue
                median, q1, q3, share = spread(values)
                medians.append(median)
                gate = (
                    "ok" if share <= bound / 3
                    else "within bound" if share <= bound else "TOO NOISY"
                )
                ok &= share <= bound
                print(f"{workload:18s} {name:24s} {k:3d} {median:12.6g} "
                      f"{q1:12.6g} {q3:12.6g} {share:8.4f} {bound:6.2f} "
                      f"{gate}")
            if len(medians) == SETS:
                drift = worse_by(medians[0], medians[1], metric["better"])
                verdict = "ok" if drift <= bound else "DRIFT"
                ok &= drift <= bound
                print(f"{workload:18s} {name:24s} second median worse by "
                      f"{drift:+.4f} (bound {bound}) {verdict}")
    failed_runs = [r for r in results if not r["correct"]]
    if failed_runs:
        ok = False
        print(f"{len(failed_runs)} run(s) failed their checks")

    print()
    for workload in workloads:
        held = run_once(workload, HELD_OUT_SEED, seconds, 0)
        held["set"] = "held-out"
        results.append(held)
        ok &= held["correct"]
        print(f"held-out seed {HELD_OUT_SEED} {workload:18s} "
              f"correct={held['correct']} failed={held['failed']}/"
              f"{held['attempted']}")
    for workload in workloads:
        traced = run_once(workload, SEED_BASE, seconds, 1)
        traced["set"] = "traced"
        results.append(traced)
        ok &= traced["correct"]
        overhead = traced["metrics"].get(
            "trace.overhead_share", {}).get("value", float("nan"))
        print(f"traced {workload:18s} correct={traced['correct']} "
              f"overhead={overhead:.3f}x untraced CPU-s "
              f"(median of interleaved rounds)")

    out = HERE / "out" / "steadiness.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"\n{'STEADY' if ok else 'NOT STEADY'}; raw runs in "
          f"{out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
