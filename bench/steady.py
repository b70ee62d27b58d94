"""Steadiness check: run each workload with several seeds and print, for
every end-to-end metric, its median, quartiles, spread and bound.

    python3 bench/steady.py                       # every workload, seeds 1..10
    python3 bench/steady.py --workloads verify-cli --seeds 5

Each run uses BENCHMARK.json's ``run_seconds``.  The spread is
(Q3 - Q1) / median over the runs, with quartiles from
``statistics.quantiles(values, n=4)``.  A metric is steady when its spread
stays within its bound; the target is a third of the bound.  Every run
must be correct with no failed case.
Raw results go to bench/results/steady-<workload>-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"


def run_once(spec: dict, workload: str, seed: int) -> dict:
    done = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload")
    args = parser.parse_args()
    RESULTS.mkdir(exist_ok=True)
    steady = True
    for workload in args.workloads.split(","):
        seeds = range(1, args.seeds + 1)
        runs = []
        for seed in seeds:
            start = time.perf_counter()
            result = run_once(spec, workload, seed)
            result["seed"], result["wall_s"] = seed, time.perf_counter() - start
            runs.append(result)
            print(f"  {workload} seed {seed}: {result['wall_s']:.1f} s, "
                  f"correct={result['correct']}, failed {result['failed']}/{result['attempted']}",
                  file=sys.stderr, flush=True)
        stamp = time.strftime("%Y%m%d-%H%M%S")
        (RESULTS / f"steady-{workload}-{stamp}.json").write_text(
            json.dumps(runs, indent=1), encoding="utf-8")
        correct = all(r["correct"] and r["failed"] == 0 for r in runs)
        print(f"{workload}: {len(runs)} runs, seeds {seeds.start}..{seeds.stop - 1}, "
              f"correct with no failed case: {correct}")
        steady &= correct
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread <= m["bound"] / 3 else ("wide" if spread <= m["bound"] else "OVER")
            steady &= spread <= m["bound"]
            print(f"  {m['name']:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {m['bound']:>6} {flag}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
