#!/usr/bin/env python3
"""The repository benchmark: one command over two workloads.

    python3 perfbench/run.py --workload fig3-churn|live-durable \
        --seed N --seconds S --trace 0|1 [--smoke] [--tamper WHAT]

Run from the root of a checkout. It builds `perfbench/` (its own cargo
workspace: the `perfbench` binary and the repository's `live` binary,
built from its own source) into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs the workload and prints, as the last line of
standard output, one JSON object with `correct`, `attempted`, `failed`
and `metrics`: every end-to-end metric of BENCHMARK.json with
`--trace 0`, every per-layer metric with `--trace 1`. All scratch files
live under `.bench_work/` in the checkout; spans of a traced run are kept
in `.bench_work/spans/`. See perfbench/README.md.

`--smoke` shrinks every workload to a few seconds; `--tamper WHAT`
corrupts one output on purpose so the self-test can show each check
fires.
"""

import argparse
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("fig3-churn", "live-durable")

# live-durable geometry (see README.md).
LIVE_FLAGS = ["--workers", "1", "--clients", "100000", "--round-ms", "100"]
PRIOR_SECONDS = 8.0
RESTART_REPS = 7


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


class Spans:
    """Spans (name, start, end, parent) around each layer call, in memory
    until the run ends."""

    def __init__(self, on):
        self.on = on
        self.origin = time.perf_counter_ns()
        self.spans = []
        self.open = []

    def __call__(self, name):
        return _Span(self, name)

    def write(self, path):
        if self.on:
            with open(path, "w") as f:
                json.dump(self.spans, f, indent=0)


class _Span:
    def __init__(self, rec, name):
        self.rec, self.name = rec, name

    def __enter__(self):
        rec = self.rec
        if rec.on:
            self.id = len(rec.spans)
            rec.spans.append({"id": self.id, "name": self.name,
                              "start_ns": time.perf_counter_ns() - rec.origin,
                              "end_ns": 0,
                              "parent": rec.open[-1] if rec.open else None})
            rec.open.append(self.id)
        return self

    def __exit__(self, *exc):
        rec = self.rec
        if rec.on:
            rec.open.pop()
            rec.spans[self.id]["end_ns"] = time.perf_counter_ns() - rec.origin
        return False


def clean_env(profile=False):
    """The program's own defaults: no thread, shard, pinning, profiling or
    fault overrides inherited from the caller."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("TA_THREADS", "TA_SHARDS", "TA_PIN", "TA_PROFILE", "TA_FAULT")}
    if profile:
        env["TA_PROFILE"] = "1"
    return env


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        raise SystemExit("perfbench: build failed")
    return os.path.join(target, "release")


def last_json(text, what):
    lines = [l for l in text.splitlines() if l.startswith("{")]
    if not lines:
        raise SystemExit(f"perfbench: {what} printed no result")
    return json.loads(lines[-1])


def perfbench(bindir, args, env=None, timeout=170):
    p = subprocess.run([os.path.join(bindir, "perfbench")] + args, env=env or clean_env(),
                       stdout=subprocess.PIPE, text=True, timeout=timeout)
    if p.returncode != 0:
        raise SystemExit(f"perfbench {args[0]} exited {p.returncode}")
    return last_json(p.stdout, f"perfbench {args[0]}")


# ---------------------------------------------------------------- sims

def sim_pass(bindir, a, work, traced, seconds, prior=None):
    args = ["sim", "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(seconds), "--work", work]
    if traced:
        os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
        args += ["--trace-file", os.path.join(WORK, "spans", f"{a.workload}-seed{a.seed}.json")]
    if a.smoke:
        args.append("--smoke")
    if a.tamper:
        args += ["--tamper", a.tamper]
    out = perfbench(bindir, args, env=clean_env(profile=traced))
    return {"e2e": out["e2e"], "layer": out["layer"], "attempted": out["attempted"],
            "failed": 0, "errors": out["errors"]}


# ---------------------------------------------------------------- live

def kv(line):
    """`event=x a=1 b=two` -> dict."""
    out = {}
    for tok in line.split():
        if "=" in tok:
            k, v = tok.split("=", 1)
            out[k] = v
    return out


def event(lines, name):
    for l in reversed(lines):
        if l.startswith(f"event={name} "):
            return kv(l)
    return None


def proc_cpu_s(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / 100.0


def live(bindir, args, timeout):
    p = subprocess.run([os.path.join(bindir, "live")] + args, env=clean_env(),
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout)
    return p.returncode, p.stdout.splitlines(), p.stderr


class Subscriber(threading.Thread):
    """One obs connection holding a streaming verb for the whole run."""

    def __init__(self, addr, verb):
        super().__init__(daemon=True)
        self.addr, self.verb = addr, verb
        self.count, self.last = 0, None

    def run(self):
        host, port = self.addr.rsplit(":", 1)
        try:
            with socket.create_connection((host, int(port)), timeout=120) as s:
                s.sendall(self.verb.encode())
                with s.makefile("rb") as f:
                    for raw in f:
                        self.count += 1
                        self.last = raw.decode().rstrip("\n")
        except OSError as e:
            log(f"{self.verb.strip()} subscriber: {e}")


def serve(bindir, dom, a, serve_s):
    """Runs the `live` binary on the recovered domain with every plane on,
    holding one WATCH and one TRACE subscriber; returns what it saw."""
    cmd = [os.path.join(bindir, "live")] + LIVE_FLAGS + [
        "--journal-dir", dom, "--duration-secs", str(serve_s), "--seed", str(a.seed),
        "--snapshot-every", "1", "--stats-every", "200", "--trace-sample", "64",
        "--obs-listen", "127.0.0.1:0"]
    proc = subprocess.Popen(cmd, env=clean_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    seen = {"lines": [], "subs": [], "cpu0": None, "t0": None}
    err = []

    def read_out():
        for line in proc.stdout:
            line = line.rstrip("\n")
            seen["lines"].append(line)
            if line.startswith("event=obs listen="):
                addr = line.split("=", 2)[2]
                for verb in ("WATCH 200\n", "TRACE 64\n"):
                    s = Subscriber(addr, verb)
                    s.start()
                    seen["subs"].append(s)
            elif line.startswith("event=resumed "):
                seen["t0"] = time.perf_counter()
                try:
                    seen["cpu0"] = proc_cpu_s(proc.pid)
                except OSError:
                    pass

    readers = [threading.Thread(target=read_out, daemon=True),
               threading.Thread(target=lambda: err.append(proc.stderr.read()), daemon=True)]
    for t in readers:
        t.start()
    deadline = time.monotonic() + serve_s + 60
    ru = None
    while True:
        # wait4, not poll(): the child's rusage is the CPU and peak RSS.
        pid, status, r = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode, ru = os.waitstatus_to_exitcode(status), r
            break
        if time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            raise SystemExit("perfbench: live did not finish in time")
        time.sleep(0.005)
    t_end = time.perf_counter()
    for t in readers:
        t.join()
    for s in seen["subs"]:
        s.join(timeout=30)
    return {"rc": proc.returncode, "lines": seen["lines"], "stderr": "".join(err),
            "subs": seen["subs"], "ru": ru,
            "wall_s": t_end - seen["t0"] if seen["t0"] else 0.0,
            "cpu0": seen["cpu0"]}


def live_prior(bindir, a, work):
    """The prior run: leaves a durable domain of fixed geometry; returns
    its directory and the books of its final `conservation` line."""
    dom = os.path.join(work, "prior")
    rc, lines, stderr = live(bindir, LIVE_FLAGS + [
        "--journal-dir", dom, "--duration-secs", str(1.0 if a.smoke else PRIOR_SECONDS),
        "--seed", str(a.seed)], 120)
    prior = event(lines, "conservation")
    if rc != 0 or not prior or prior.get("ok") != "true":
        raise SystemExit(f"perfbench: the prior run failed (exit {rc}): {stderr.strip()}")
    if a.tamper == "journal-byte":
        seg = sorted(f for f in os.listdir(dom) if f.startswith("journal-"))[0]
        path = os.path.join(dom, seg)
        with open(path, "r+b") as f:
            f.seek(os.path.getsize(path) // 2)
            b = f.read(1)
            f.seek(-1, 1)
            f.write(bytes([b[0] ^ 0xFF]))
    return dom, int(prior["balances_sum"])


def live_pass(bindir, a, work, traced, seconds, prior):
    spans = Spans(traced)
    errors = []
    prior_dom, prior_sum = prior
    serve_s = 1.0 if a.smoke else seconds
    reps = 2 if a.smoke else RESTART_REPS
    dom = os.path.join(work, "traced" if traced else "untraced")

    # 1. Restart: recover, verify and resume copies of the prior domain.
    setups, recovers, kept = [], [], None
    for i in range(reps):
        rep = os.path.join(work, f"restart-{i}")
        shutil.copytree(prior_dom, rep)
        with spans("live.restart"):
            r = perfbench(bindir, ["restart", "--dir", rep])
        setups.append(r["setup_s"])
        recovers.append(r["recover_s"])
        if r["truncations"] or r["balances_sum"] != prior_sum \
                or r["granted"] - r["burned"] != r["balances_sum"]:
            errors.append(f"restart {i}: recovered books {r} != prior run's "
                          f"balances_sum={prior_sum} (or a tail was discarded)")
        if kept is None and traced:
            kept = rep
        else:
            shutil.rmtree(rep)

    # 2. Serve: the timed phase, on its own copy of the prior domain.
    shutil.copytree(prior_dom, dom)
    with spans("live.serve"):
        s = serve(bindir, dom, a, serve_s)
    lines = s["lines"]
    if s["rc"] != 0:
        errors.append(f"live exited {s['rc']}: {s['stderr'].strip()[-300:]}")
    cons = event(lines, "conservation")
    if not cons or cons.get("ok") != "true":
        errors.append("serving run: books do not conserve at exit")
    resumed = event(lines, "resumed")
    if not resumed or int(resumed["balances_sum"]) != prior_sum \
            or resumed.get("truncations") != "0":
        errors.append(f"serving run resumed {resumed}, prior run closed at {prior_sum}")
    health = event(lines, "health") or {}
    if health.get("durability") != "ok":
        errors.append(f"durability is not ok: {health}")
    stats = [l for l in lines if l.startswith("{")]
    final_stats = stats[-1] if stats else None
    watch = next((x for x in s["subs"] if x.verb.startswith("WATCH")), None)
    trace = next((x for x in s["subs"] if x.verb.startswith("TRACE")), None)
    watch_last = watch.last if watch else None
    if a.tamper == "watch-line" and watch_last:
        watch_last = watch_last.replace('"seq":', '"seq":1', 1)
    if final_stats is None or watch_last != final_stats:
        errors.append("the WATCH subscriber's last line differs from the final stats line")
    trailer = None
    if trace and trace.last:
        try:
            trailer = json.loads(trace.last)
        except ValueError:
            trailer = None
    if trailer and a.tamper == "trace-trailer":
        trailer["streamed"] += 1
    if not trailer or not trailer.get("eos"):
        errors.append("the TRACE stream did not end with its trailer")
    else:
        total = trailer["streamed"] + trailer["dropped"] + trailer["missed"] + trailer["ring_dropped"]
        if total != trailer["sampled"] or trailer["streamed"] != trace.count - 1:
            errors.append(f"TRACE books do not close: {trailer}, {trace.count - 1} records received")

    # 3. An independent recovery of the final directory.
    with spans("live.recover_final"):
        rc, rlines, rerr = live(bindir, ["--recover", "--journal-dir", dom], 60)
    rec = event(rlines, "recovered")
    if rc != 0 or not rec or not cons or rec["balances_sum"] != cons.get("balances_sum") \
            or int(rec["granted"]) - int(rec["burned"]) != int(rec["balances_sum"]):
        errors.append(f"--recover of the final directory: exit {rc}, {rec} vs {cons}")

    thr = next((l for l in lines if l.startswith("throughput:")), "")
    ctr = next((l for l in lines if l.startswith("counters:")), "")
    try:
        decisions = int(thr.split("(")[1].split()[0])
        loop_s = float(thr.split(" in ")[1].split("s)")[0])
        rounds = int(ctr.split("rounds ")[1].split()[0])
    except (IndexError, ValueError):
        decisions, loop_s, rounds = 0, 0.0, 0
        errors.append("no throughput/counters line")
    ru = s["ru"]
    cpu_s = (ru.ru_utime + ru.ru_stime - (s["cpu0"] or 0.0)) if ru else 0.0
    e2e = {
        "wall_s": s["wall_s"],
        "events_per_s": (decisions + rounds) / loop_s if loop_s else 0.0,
        "decisions_per_s": decisions / loop_s if loop_s else 0.0,
        "setup_s": statistics.median(setups),
        "cpu_s": cpu_s,
        "peak_rss_mb": ru.ru_maxrss / 1024.0 if ru else 0.0,
    }
    final = json.loads(final_stats) if final_stats else {"counters": {}, "histograms": {}}
    counters = final.get("counters", {})
    journal = event(lines, "journal") or {}
    dropped = counters.get("journal_dropped_records", 0)

    layer = {}
    if traced:
        spans_dir = os.path.join(WORK, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        with spans("live.layers"):
            args = ["live-layers", "--seed", str(a.seed), "--work", work, "--prior", kept,
                    "--final", dom, "--trace-file",
                    os.path.join(spans_dir, f"{a.workload}-seed{a.seed}-layers.json")]
            layer.update(perfbench(bindir, args + (["--smoke"] if a.smoke else [])))
        hist = final.get("histograms", {})
        h = lambda name, q: hist.get(name, {}).get(q, 0)
        c = lambda name: counters.get(name, 0)
        records = int(journal.get("records", 0))
        replayed = c("recovery_replayed")
        layer.update({
            "admit.ns.p50": h("admit_ns", "p50"),
            "admit.ns.p99": h("admit_ns", "p99"),
            "granter.sweep_ns.p50": h("granter_sweep_ns", "p50"),
            "granter.round_jitter_ns.p99": h("round_jitter_ns", "p99"),
            "journal.records": records,
            "journal.bytes": int(journal.get("bytes", 0)),
            "journal.bytes_per_record": int(journal.get("bytes", 0)) / records if records else 0,
            "journal.frames": int(journal.get("frames", 0)),
            "journal.fsyncs": int(journal.get("fsyncs", 0)),
            "journal.fsync_ns.p50": h("fsync_ns", "p50"),
            "journal.fsync_ns.p99": h("fsync_ns", "p99"),
            "journal.commit_ns.p50": h("journal_commit_ns", "p50"),
            "snapshot.freezes": c("snapshot_freezes"),
            "snapshot.freeze_ns_mean":
                c("snapshot_freeze_ns") / c("snapshot_freezes") if c("snapshot_freezes") else 0,
            "recovery.replayed": replayed,
            "recovery.records_per_s": replayed / statistics.median(recovers),
            "trace.sampled": c("trace_sampled"),
            "trace.dropped": c("trace_dropped"),
            "obs.watch_lines": c("obs_watch_lines"),
            "obs.dropped_watch": c("obs_dropped_watch"),
            "obs.trace_streamed": c("obs_trace_streamed"),
            "obs.dropped_trace": c("obs_dropped_trace"),
            "health.degradations": c("health_degradations"),
            "journal.io_retries": c("journal_io_retries"),
        })
        spans.write(os.path.join(spans_dir, f"{a.workload}-seed{a.seed}.json"))
    return {"e2e": e2e, "layer": layer, "attempted": max(decisions, 1),
            "failed": int(dropped), "errors": errors}


# ---------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--tamper", default=None)
    a = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        raise SystemExit("perfbench: run from the root of a repository checkout "
                         "(no Cargo.toml and crates/ here)")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    bindir = build()
    work = os.path.join(WORK, f"{a.workload}-{a.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = live_pass if a.workload == "live-durable" else sim_pass
    # A traced run measures the workload twice, untraced and then with
    # spans and engine self-profiling on, each for half the run length;
    # the difference is the tracing overhead.
    seconds = a.seconds / 2 if a.trace else a.seconds
    try:
        prior = live_prior(bindir, a, work) if run is live_pass else None
        base = run(bindir, a, work, False, seconds, prior)
        if a.trace:
            traced = run(bindir, a, work, True, seconds, prior)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    res = traced if a.trace else base
    errors = base["errors"] + (traced["errors"] if a.trace else [])
    for e in errors:
        log(f"check failed: {e}")
    attempted = res["attempted"]
    failed = attempted if errors else res["failed"]
    if a.trace:
        values = dict(res["layer"])
        for m in bench["end_to_end"]:
            values[f"overhead.{m['name']}"] = traced["e2e"][m["name"]] - base["e2e"][m["name"]]
        wanted = bench["per_layer"]
    else:
        values = res["e2e"]
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
