#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of the same build.

    python3 perfbench/steady.py [--runs 10]

Run from the root of a checkout. For i in 0..runs it runs every workload
of BENCHMARK.json at its `run_seconds`, once for set A (seed 1+i) and
once for set B (seed 101+i), A B A B, so a drift of the host's speed
lands on both sets alike. It then prints, per (workload, end-to-end
metric), each set's median and quartiles (`statistics.quantiles(n=4)`),
the spread (q3 - q1) / median, and whether the sets agree within the
metric's bound: both spreads within the bound, the two medians apart by
no more than the bound (either way, as a share of A's median), and the
same share of failed operations. Raw results go to
`.bench_work/steady-<time>.json`. Exits 1 if any pair disagrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    if p.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {p.returncode}")
    out = json.loads(p.stdout.strip().splitlines()[-1])
    out["elapsed_s"] = time.time() - t0
    return out


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    a = ap.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]

    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(a.runs):
        for w in workloads:
            for side, seed in (("A", 1 + i), ("B", 101 + i)):
                r = run_once(w, seed, bench["run_seconds"])
                results[w][side].append(r)
                print(f"# {w} {side} seed={seed} correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} ({r['elapsed_s']:.0f} s)",
                      file=sys.stderr, flush=True)

    ok = True
    print(f"{'workload':16} {'metric':16} {'A median':>12} {'A q1..q3':>25} {'A spr':>6} "
          f"{'B median':>12} {'B spr':>6} {'B vs A':>7} {'bound':>5}  agree")
    for w in workloads:
        sides = results[w]
        for side in ("A", "B"):
            if not all(r["correct"] for r in sides[side]):
                ok = False
                print(f"{w}: set {side} has incorrect runs")
        share = {s: sum(r["failed"] for r in v) / sum(r["attempted"] for r in v)
                 for s, v in sides.items()}
        if share["A"] != share["B"]:
            ok = False
            print(f"{w}: failed share differs: A {share['A']} vs B {share['B']}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sa = summary([r["metrics"][name]["value"] for r in sides["A"]])
            sb = summary([r["metrics"][name]["value"] for r in sides["B"]])
            worse = (sb["median"] - sa["median"]) / sa["median"]
            if m["better"] == "higher":
                worse = -worse
            agree = abs(worse) <= bound and sa["spread"] <= bound and sb["spread"] <= bound
            ok &= agree
            print(f"{w:16} {name:16} {sa['median']:12.6g} "
                  f"{sa['q1']:12.6g}..{sa['q3']:<12.6g} {sa['spread']:6.3f} "
                  f"{sb['median']:12.6g} {sb['spread']:6.3f} {worse:+7.3f} {bound:5.2f}  "
                  f"{'yes' if agree else 'NO'}")
    os.makedirs(".bench_work", exist_ok=True)
    path = os.path.join(".bench_work", f"steady-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump(results, f)
    print(f"raw results: {path}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
