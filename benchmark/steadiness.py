"""Steadiness check: repeat workloads and compare each metric's spread with its bound.

    python3 benchmark/steadiness.py [--workloads a,b] [--runs 10] [--first-seed 1]

Runs ``run.py --trace 0`` RUNS times per workload, seed FIRST_SEED, FIRST_SEED+1,
..., with BENCHMARK.json's run_seconds, and prints per end-to-end metric the
median, the quartiles (statistics.quantiles, n=4), the spread
(Q3 - Q1) / median and the metric's bound.  Every spread must stay within
its bound (else the exit code is 1) and should stay below a third of it
(else the line is marked WIDE).
Raw values go to .bench_out/steadiness-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "bound": bound}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw, ok = {}, True
    for workload in args.workloads.split(","):
        runs = []
        for k in range(args.runs):
            result = run_once(workload, args.first_seed + k, spec["run_seconds"])
            ok = ok and result["correct"]
            runs.append(result)
            print(f"{workload} seed {args.first_seed + k}: "
                  + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                  flush=True)
        raw[workload] = runs
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in runs], bound)
            held = s["spread"] <= bound / 3
            ok = ok and s["spread"] <= bound
            print(f"  {workload:15s} {name:12s} median {s['median']:.5g}  "
                  f"Q1 {s['q1']:.5g}  Q3 {s['q3']:.5g}  spread {s['spread']:.4f}  "
                  f"bound {bound}  {'ok' if held else 'WIDE'}", flush=True)
    out = os.path.join(ROOT, ".bench_out", f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(out, "w") as fh:
        json.dump(raw, fh)
    print(f"raw results: {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
