#!/usr/bin/env python3
"""Steadiness check: run each workload N times, each with another seed.

    python3 perfbench/steady.py --runs 10 --sets 2

Each run lasts BENCHMARK.json's ``run_seconds``.  For every end-to-end
metric of BENCHMARK.json it prints, per workload and set, the median,
the quartiles (``statistics.quantiles(n=4)``) and the spread
(q3 - q1) / median against the metric's bound.  A spread passes when it
is within the bound and is marked ``steady`` when it is below a third
of it.  Each later set's median must not be worse than the first set's
by more than the bound.  Set s uses seeds s*N+1 .. s*N+N.  Runs go one
at a time, workloads interleaved per seed.  Exit status 0 when
everything passes; the summary is also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed operations")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    # values[set][workload][metric] -> list over runs
    values = [{w: {m: [] for m in metrics} for w in workloads} for _ in range(args.sets)]
    for s in range(args.sets):
        for i in range(args.runs):
            seed = s * args.runs + i + 1
            for w in workloads:
                start = time.monotonic()
                got = run_once(w, seed, seconds)
                for m in metrics:
                    values[s][w][m].append(got[m])
                print(f"set {s} seed {seed} {w:7s} {time.monotonic() - start:5.1f}s  "
                      + "  ".join(f"{m}={got[m]:.5g}" for m in metrics), flush=True)

    ok = True
    summary = {}
    print(f"\n{'workload':8s} {'metric':12s} set {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'spread':>7s} {'bound':>6s} verdict")
    for w in workloads:
        for name, m in metrics.items():
            bound = m["bound"]
            rows = [summarize(values[s][w][name]) for s in range(args.sets)]
            summary[f"{w}/{name}"] = rows
            for s, row in enumerate(rows):
                verdict = "steady" if row["spread"] < bound / 3 else \
                    "within bound" if row["spread"] <= bound else "TOO WIDE"
                if verdict == "TOO WIDE":
                    ok = False
                if s > 0:
                    first = rows[0]["median"]
                    worse = (row["median"] - first) / first
                    if m["better"] == "higher":
                        worse = -worse
                    row["worse_than_first"] = worse
                    if worse > bound:
                        ok = False
                    verdict += f"; {worse:+.3f} vs set 0" + \
                        (" REGRESSED" if worse > bound else "")
                print(f"{w:8s} {name:12s} {s:3d} {row['median']:11.5g} {row['q1']:11.5g} "
                      f"{row['q3']:11.5g} {row['spread']:7.3f} {bound:6.2f} {verdict}")

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump({"runs": args.runs, "sets": args.sets, "seconds": seconds,
                   "ok": ok, "metrics": summary},
                  fh, indent=1)
    print(f"\n{'PASS' if ok else 'FAIL'}; summary in {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
