#!/usr/bin/env python3
"""Self-test of the benchmark: smoke sizes pass, and every check fires.

    python3 perfbench/selftest.py

Run from the root of a checkout (about two minutes once built). It runs
every workload at smoke size untraced and traced and requires correct
results with every metric of BENCHMARK.json present; then runs negative
cases that corrupt one output each (`--tamper`) and requires the run to
report `correct: false` with every operation failed; finally it runs the
benchmark in a directory holding only BENCHMARK.json and perfbench/ and
requires a non-zero exit without a result line. Exits 1 on any failure.
"""

import json
import os
import shutil
import subprocess
import sys

# (workload, --trace, --tamper): the shard probe runs in traced runs only.
NEGATIVE = [
    ("fig3-churn", 0, "ticks"),      # ticks != proactive + skipped + banked
    ("fig3-churn", 0, "sent"),       # engine sent != protocol sent
    ("fig3-churn", 0, "settled"),    # delivered + lost + dropped > sent
    ("fig3-churn", 0, "messages"),   # a token curve costs more than proactive
    ("fig3-churn", 1, "serial"),     # sharded probe result != serial recomputation
    ("live-durable", 0, "journal-byte"),  # one flipped byte in the prior journal
    ("live-durable", 0, "watch-line"),    # WATCH's last line != final stats line
    ("live-durable", 0, "trace-trailer"),  # TRACE trailer books do not close
]


def run(args, cwd="."):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--seed", "3",
           "--seconds", "1"] + args
    p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    out = json.loads(lines[-1]) if p.returncode == 0 and lines else None
    return p.returncode, out, p.stderr


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    failures = []

    def expect(cond, what):
        print(f"{'ok  ' if cond else 'FAIL'} {what}", flush=True)
        if not cond:
            failures.append(what)

    for w in (x["name"] for x in bench["workloads"]):
        for trace, metrics in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            rc, out, err = run(["--workload", w, "--trace", str(trace), "--smoke"])
            good = (rc == 0 and out is not None and out["correct"] and out["failed"] == 0
                    and out["attempted"] >= 1
                    and set(out["metrics"]) == {m["name"] for m in metrics})
            if good and trace == 0:
                good = all(v["value"] > 0 for v in out["metrics"].values())
            expect(good, f"{w} --trace {trace} smoke run is correct and complete"
                   + ("" if good else f": rc={rc} {out} {err[-500:]}"))
        spans = os.path.join(".bench_work", "spans", f"{w}-seed3.json")
        try:
            with open(spans) as f:
                recs = json.load(f)
            good = bool(recs) and all({"name", "start_ns", "end_ns", "parent"} <= set(r)
                                      and r["end_ns"] >= r["start_ns"] for r in recs)
        except (OSError, ValueError):
            good = False
        expect(good, f"{w} traced run wrote its spans to {spans}")

    for w, trace, tamper in NEGATIVE:
        rc, out, err = run(["--workload", w, "--trace", str(trace), "--smoke", "--tamper", tamper])
        good = (rc == 0 and out is not None and not out["correct"]
                and out["failed"] == out["attempted"])
        expect(good, f"{w}: the check for --tamper {tamper} fires"
               + ("" if good else f": rc={rc} {out}"))

    bare = os.path.join(".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    rc, out, err = run(["--workload", "fig3-churn", "--trace", "0"], cwd=bare)
    expect(rc != 0 and out is None,
           f"a directory with only the benchmark files exits non-zero (exit {rc})")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
