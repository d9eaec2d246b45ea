#!/usr/bin/env python3
"""Benchmark of the OTB store, end to end and layer by layer.

Builds the perfbench program from this checkout's sources and runs one
workload (or every workload with --workload all):

    python3 perfbench/run.py --workload wire-read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                      # every workload, untraced

--trace 0 runs PASSES untraced passes in a row, each a fresh process timing
--seconds/PASSES, and reports the median of each end-to-end metric over
them. --trace 1 runs one untraced pass and then a traced pass with the same
seed and window, reports the per-layer metrics (read only from the traced
pass) and writes a Perfetto trace under .bench_build/traces/. While it
runs, one SCHED_IDLE busy loop per CPU keeps the CPUs out of their idle
state (see Spinners). BENCHMARK.json at the root of the checkout names the
workloads and metrics; a table of them goes to standard output, and its
last line is one JSON object with the keys correct, attempted, failed and
metrics. Build output, the durable workload's log and the traces stay
under .bench_build/.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench")
DEADLINE_S = 170  # every run must exit within 180 s

# Untraced passes per run. On a 2-vCPU VM, runs of the same code differ
# mostly from process to process: 3 s exec-hot passes in separate processes
# spread 0.23 (interquartile range over median), 3 s stretches inside one
# process 0.09. The median over several fresh processes evens that out.
# Passes stay short (1 s at the usual 10 s run) because the host's speed
# also drifts over minutes: ten runs of 24 s passed through wire-read
# 44.6k -> 35.2k tx/s, and the shorter the run, the less drift ten of them
# span.
PASSES = 10

# End-to-end metrics an untraced pass prints beside those BENCHMARK.json
# bounds. On a 2-vCPU VM their spread between runs of the same code
# (interquartile range over median, ten runs) reached 0.34 for wire-durable's
# p99, 0.37 for wire-read's p999 and 0.6 for wire-durable's peak RSS: wider
# than any bound a regression gate can use, so they are reported, not gated.
UNGATED = [("lat_p99_us", "us"), ("lat_p999_us", "us"), ("peak_rss_mb", "MB")]


def go_env():
    """Keeps every file the Go toolchain writes inside the checkout."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "gotmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        GOENV="off",
        CGO_ENABLED="0",
    )
    return env


def build():
    os.makedirs(os.path.join(BUILD, "gotmp"), exist_ok=True)
    subprocess.run(["go", "build", "-o", BIN, "."], cwd=HERE, env=go_env(),
                   stdout=sys.stderr, check=True, timeout=850)


def run_pass(workload, seed, seconds, traced, deadline, n=0):
    tag = "%s-seed%d-%s%d" % (workload, seed, "traced" if traced else "untraced", n)
    work = os.path.join(BUILD, "work", "%s-%d" % (tag, os.getpid()))
    cmd = [BIN, "-workload", workload, "-seed", str(seed),
           "-seconds", repr(seconds), "-work", work]
    trace_path = None
    if traced:
        trace_path = os.path.join(BUILD, "traces", tag + ".json")
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        cmd += ["-traced", "-trace-out", trace_path]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if p.returncode != 0:
        raise RuntimeError("%s exited with %d" % (tag, p.returncode))
    res = json.loads(p.stdout.strip().splitlines()[-1])
    res["trace"] = trace_path
    return res


# Keeps one CPU out of its idle state without taking time from any other
# task: SCHED_IDLE runs only when nothing else wants the CPU. It ends as
# soon as run.py does, however run.py ends.
SPIN = """
import os, sys
parent = int(sys.argv[2])
os.sched_setaffinity(0, {int(sys.argv[1])})
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
while os.getppid() == parent:
    pass
"""


class Spinners:
    """One SCHED_IDLE busy loop per CPU for the length of a run.

    On a VM, a CPU with nothing to run halts, and the wake-up that a
    loopback reply or a woken goroutine sends it waits until the host
    schedules that virtual CPU again: a wait set by the other tenants of
    the host, not by the program. On a 2-vCPU VM with the host busy,
    alternating 3 s wire-durable passes ran 20.4k-23.8k tx/s without the
    loops and 24.9k-26.3k with them. An idle busy loop keeps every CPU
    running, so a wake-up is a switch inside the guest. A CPU-bound process
    takes the CPUs from the loops at once, and with the host quiet they
    changed nothing. The guest-haltpoll idle driver of KVM guests polls
    before halting for the same reason."""

    def __enter__(self):
        self.procs = [
            subprocess.Popen([sys.executable, "-c", SPIN, str(cpu), str(os.getpid())])
            for cpu in sorted(os.sched_getaffinity(0))]
        return self

    def __exit__(self, *exc):
        for p in self.procs:
            p.kill()
        for p in self.procs:
            p.wait()


def fmt(v):
    return "%.6g" % v


def median_metrics(passes):
    """The median of each end-to-end metric over the untraced passes; a
    latency keeps the sample count of all of them."""
    got = {}
    for name, m in passes[0]["metrics"].items():
        got[name] = {"value": statistics.median(
            p["metrics"][name]["value"] for p in passes), "unit": m["unit"]}
        if "samples" in m:
            got[name]["samples"] = sum(p["metrics"][name]["samples"] for p in passes)
    got["setup_s"]["value"] = statistics.median(
        s for p in passes for s in p["setup_samples_s"])
    return got


def run_workload(spec, workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    window = seconds / PASSES
    if trace:
        untraced = run_pass(workload, seed, window, False, deadline)
        traced = run_pass(workload, seed, window, True, deadline)
        passes = [untraced, traced]
        base = untraced["metrics"]["tput_tx_s"]["value"]
        traced_tput = (traced["attempted"] - traced["errors"]) / window
        got = dict(traced["metrics"])
        got["bench.trace_overhead_frac"] = {
            "value": (base - traced_tput) / base, "unit": "fraction"}
        wanted = spec["per_layer"]
    else:
        passes = [run_pass(workload, seed, window, False, deadline, n)
                  for n in range(PASSES)]
        untraced = passes[0]
        got = median_metrics(passes)
        wanted = spec["end_to_end"]

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = all(p["correct"] for p in passes)
    print("perfbench %s: seed %d, %s" % (workload, seed, (
        "an untraced and a traced pass of %g s" % window if trace else
        "median of %d untraced passes of %g s" % (PASSES, window))))
    print("  provenance " + json.dumps(untraced["provenance"], sort_keys=True))
    rows = [(m["name"], m["unit"], True) for m in wanted]
    if not trace:
        rows += [(name, unit, False) for name, unit in UNGATED]
    metrics = {}
    for name, unit, bounded in rows:
        # A traced pass omits the metrics of layers its workload does not
        # pass through (txnet on exec-hot, wal off wire-durable).
        v = got.get(name, {"value": 0, "absent": True})
        line = "  %-30s %14s %-9s" % (name, fmt(v["value"]), unit)
        if not trace and name in untraced["metrics"]:
            each = sorted(p["metrics"][name]["value"] for p in passes)
            line += " passes %s..%s" % (fmt(each[0]), fmt(each[-1]))
        if "samples" in v:
            line += " n=%d" % v["samples"]
        if "absent" in v:
            line += " (layer not on this workload's path)"
        if bounded:
            metrics[name] = {"value": v["value"], "unit": unit}
        else:
            line += " (reported, not bounded)"
        print(line)
    print("  %-30s %14s %-9s %d failed of %d attempted (%d errors, %d check violations)" % (
        "fail_ratio", fmt(failed / attempted), "fraction", failed, attempted,
        sum(p["errors"] for p in passes), sum(p["violations"] for p in passes)))
    if trace:
        print("  trace " + os.path.relpath(passes[1]["trace"], ROOT))
    out = {"correct": correct, "attempted": attempted, "failed": failed,
           "metrics": metrics}
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    with open(os.path.join(BUILD, "results", "%s-seed%d-trace%d.json" % (
            workload, seed, trace)), "w") as f:
        json.dump({"result": out, "passes": passes}, f, indent=1)
    print(json.dumps(out), flush=True)
    return correct


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()
    # SIGTERM unwinds like an error, so the busy loops are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    ok = True
    with Spinners():
        for w in (names if args.workload == "all" else [args.workload]):
            try:
                ok = run_workload(spec, w, args.seed, args.seconds, args.trace) and ok
            except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
                print("perfbench: %s: %s" % (w, e), file=sys.stderr)
                return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
