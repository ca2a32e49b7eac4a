#!/usr/bin/env python3
"""Steadiness check: two sets of repeated runs of the same code.

    python3 bench/steady.py --workload corpus --runs 10

Runs bench/run.py --trace 0 `runs` times in each of two sets, each run with
its own seed (set s, run i uses seed first_seed + s*runs + i), one run at a
time.  For every end-to-end metric it prints each set's median and
quartiles, the spread (q3 - q1)/median, and whether the spread is within the
metric's bound in BENCHMARK.json and whether the second set's median is no
worse than the first's by more than the bound.  It also checks that the
share of failed operations is the same in every run.  Exit status 0 when
everything holds, 1 otherwise.  Per-run results go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    out = json.loads(res.stdout.strip().splitlines()[-1])
    out["wall_s"] = time.perf_counter() - t0
    return out


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, or 'all'")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    names = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    ok = True
    report = {}
    for workload in names:
        sets = []
        for s in range(SETS):
            seeds = range(args.first_seed + s * args.runs, args.first_seed + (s + 1) * args.runs)
            sets.append([one_run(workload, seed, args.seconds) for seed in seeds])
        walls = [r["wall_s"] for runs in sets for r in runs]
        print(f"== {workload}: {SETS} sets x {args.runs} runs, "
              f"run wall {min(walls):.1f}-{max(walls):.1f} s")
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        if len(shares) != 1 or not all(r["correct"] for runs in sets for r in runs):
            ok = False
            print(f"   failed shares {sorted(shares)}; correct in every run: "
                  f"{all(r['correct'] for runs in sets for r in runs)}")
        report[workload] = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row, meds = [], []
            for runs in sets:
                vals = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                meds.append(med)
                row.append(f"{med:10.4g} [{q1:.4g}, {q3:.4g}] spread {spread:6.1%}")
                if spread > bound:
                    ok = False
                report[workload].setdefault(name, []).append(
                    {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals})
            drift = worse_by(meds[0], meds[1], metric["better"])
            agree = drift <= bound
            ok = ok and agree
            print(f"   {name:12s} bound {bound:5.0%}  " + " | ".join(row)
                  + f"  worse-by {drift:6.1%} {'agree' if agree else 'DISAGREE'}")
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"steady-{args.workload}.json").write_text(json.dumps(report, indent=1))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
