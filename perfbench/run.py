#!/usr/bin/env python3
"""Two-clock benchmark of the rmswap simulator.

Builds the harness (perfbench/harness.cpp plus the library under src/) on
first use, runs one workload in one process, checks its outputs and prints
one JSON result as the last line of stdout:

    python3 perfbench/run.py --workload multitenant --seed 3 \
        --seconds 20 --trace 0

With --trace 0 the result holds the end-to-end metrics; with --trace 1 the
per-layer metrics (the run then adds one simulation with tracing on). A
readable table of every metric computed precedes the JSON line. The exit
code is 0 only when every output check and the determinism guard pass.
See perfbench/NOTES.md for the workloads and the metric map.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("hpa-nolimit", "hpa-remote-update", "multitenant")
# A run must finish within 180 s; keep headroom for the checks and the
# build step's bookkeeping.
RUN_DEADLINE_S = 170.0
BUILD_DEADLINE_S = 880.0
# Percentiles are reported only with at least this many samples beyond.
MIN_BEYOND = 10

END_TO_END = {
    "virtual_s": "s",
    "turnaround_mean_s": "s",
    "turnaround_p90_s": "s",
    "hi_turnaround_p70_s": "s",
    "completed_frac": "ratio",
    "host_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

CRIT_CATEGORIES = ("compute", "fault_in", "swap_out", "serve", "rpc",
                   "stream", "disk_io", "migrate", "barrier_wait",
                   "unattributed")

PER_LAYER = {
    "sim.events": "count",
    "sim.host_us_per_event": "us",
    "mining.generate_s": "s",
    "mining.reference_s": "s",
    "hpa.build_s": "s",
    "hpa.count_s": "s",
    "hpa.determine_s": "s",
    "core.pagefaults": "count",
    "core.swap_outs": "count",
    "core.updates_applied": "count",
    "core.update_batches": "count",
    "core.fault_ms.p50": "ms",
    "core.fault_ms.p99": "ms",
    "core.degraded_evictions": "count",
    "transport.rpc_ms.p50": "ms",
    "transport.rpc_ms.p99": "ms",
    "net.messages": "count",
    "net.wire_bytes": "bytes",
    "disk.ops": "count",
    "disk.bytes": "bytes",
    "placement.decisions": "count",
    "sched.admit_wait_p50_s": "s",
    "sched.admit_wait_p90_s": "s",
    "sched.run_p50_s": "s",
    "sched.reclaim_events": "count",
    "sched.reclaimed_bytes": "bytes",
    "sched.blocked_polls": "count",
    "sched.peak_queue_depth": "count",
    "sched.shed": "count",
    **{"crit.%s_s" % c: "s" for c in CRIT_CATEGORIES},
    "host.user_s": "s",
    "host.sys_s": "s",
    "host.minflt": "count",
    "host.probe_s": "s",
    "obs.trace_overhead_s": "s",
    "obs.trace_dropped": "count",
    "failed_frac": "ratio",
    "jobs.attempted": "count",
    "jobs.completed": "count",
    "jobs.turnaround_p50_s": "s",
    "jobs.hi_turnaround_p50_s": "s",
}

# Counts the harness reports per simulation that become per-layer metrics
# as they are.
RECORD_COUNTS = (
    "hpa.build_s", "hpa.count_s", "hpa.determine_s",
    "core.pagefaults", "core.swap_outs", "core.updates_applied",
    "core.update_batches", "core.fault_ms.p50", "core.fault_ms.p99",
    "core.degraded_evictions", "transport.rpc_ms.p50",
    "transport.rpc_ms.p99", "net.messages", "net.wire_bytes", "disk.ops",
    "disk.bytes", "placement.decisions",
)
SCHED_COUNTS = ("sched.reclaim_events", "sched.reclaimed_bytes",
                "sched.blocked_polls", "sched.peak_queue_depth", "sched.shed")


class BenchError(Exception):
    """The run could not produce a result (build or harness failure)."""


# ---------------------------------------------------------------------------
# Metric rules (unit-tested in test_run.py).
# ---------------------------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least a share q
    of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, q):
    """How many of n samples lie strictly above the nearest-rank q-th
    percentile's rank."""
    return n - max(1, math.ceil(q * n))


def supported(n, q):
    """The reporting rule: a percentile needs MIN_BEYOND samples beyond."""
    return samples_beyond(n, q) >= MIN_BEYOND


def job_times(jobs):
    """Turnaround (arrival to finish), admission wait (arrival to
    admission) and run time (admission to finish) of every job that
    completed, plus the admission waits of every admitted job."""
    turnaround, run = [], []
    admit_wait = []
    for j in jobs:
        if j["admitted_s"] >= 0:
            admit_wait.append(j["admitted_s"] - j["arrival_s"])
        if j["state"] == "completed":
            turnaround.append(j["finished_s"] - j["arrival_s"])
            run.append(j["finished_s"] - j["admitted_s"])
    return {"turnaround": turnaround, "admit_wait": admit_wait, "run": run}


def instance_makespans(jobs):
    """First arrival to last finish of each script instance whose jobs all
    ended (completed or shed)."""
    spans = {}
    for j in jobs:
        first, last = spans.get(j["instance"], (math.inf, 0.0))
        end = j["finished_s"] if j["finished_s"] >= 0 else math.inf
        spans[j["instance"]] = (min(first, j["arrival_s"]), max(last, end))
    return [last - first for first, last in spans.values()
            if last != math.inf]


def highest_class(jobs):
    """Jobs of the highest priority present (the class reclamation
    protects)."""
    top = max(j["priority"] for j in jobs)
    return [j for j in jobs if j["priority"] == top]


def job_verdict(job):
    """(counts toward failed_frac, check failure or None) for one job.

    failed_frac counts every job that was shed, never finished or finished
    inexact. The output check compares each job with its expected outcome:
    a job built never to fit must be shed; every other job must complete,
    exactly, with the expected output where the benchmark knows it."""
    done = job["state"] == "completed"
    good = done and job["exact"] and (
        job["expected"] < 0 or job["output"] == job["expected"])
    failed = not good
    if job["expect_shed"]:
        problem = None if job["state"] == "shed" else (
            "%s job expected to be shed ended %s" % (job["shape"],
                                                     job["state"]))
    elif not done:
        problem = "%s job ended %s" % (job["shape"], job["state"])
    elif not job["exact"]:
        problem = "%s job finished inexact" % job["shape"]
    elif job["expected"] >= 0 and job["output"] != job["expected"]:
        problem = "%s job output %d, expected %d" % (
            job["shape"], job["output"], job["expected"])
    else:
        problem = None
    return failed, problem


def account(jobs):
    """Failure accounting over one simulation's jobs."""
    failed = 0
    problems = []
    for j in jobs:
        f, p = job_verdict(j)
        failed += f
        if p is not None:
            problems.append(p)
    attempted = len(jobs)
    return {
        "attempted": attempted,
        "completed": attempted - failed,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "problems": problems,
    }


def canonical(record):
    """The deterministic part of one simulation, as comparable JSON."""
    return json.dumps({k: record[k] for k in ("values", "counters_digest",
                                              "jobs")}, sort_keys=True)


def determinism_problems(records, traced=None, ledger=None):
    """Differences between simulations that must be identical: every
    repetition of the run, the traced run, and an earlier run of the same
    build, workload and seed (ledger)."""
    problems = []
    if not records:
        return ["no simulation records"]
    first = canonical(records[0])
    for i, r in enumerate(records[1:], start=1):
        if canonical(r) != first:
            problems.append("repetition %d differs from repetition 0" % i)
    if traced is not None and canonical(traced) != first:
        problems.append("traced run differs from untraced run")
    if ledger is not None and ledger != first:
        problems.append("differs from an earlier run of this build and seed")
    return problems


# ---------------------------------------------------------------------------
# From raw harness output to metrics.
# ---------------------------------------------------------------------------

def compute(raw):
    """End-to-end and per-layer metrics plus the check outcome."""
    records = raw["records"]
    rec0 = records[0]
    values = rec0["values"]
    jobs = rec0["jobs"]
    stream = len(jobs) > 1
    problems = []

    times = job_times(jobs)
    hi = job_times(highest_class(jobs))
    makespans = instance_makespans(jobs)
    if stream:
        for name, vals, q in (("turnaround", times["turnaround"], 0.9),
                              ("hi-class turnaround", hi["turnaround"], 0.7),
                              ("instance makespan", makespans, 0.7),
                              ("admission wait", times["admit_wait"], 0.9)):
            if not supported(len(vals), q):
                problems.append("%s p%d has %d samples, fewer than %d beyond"
                                % (name, round(q * 100), len(vals),
                                   MIN_BEYOND))
    if not times["turnaround"] or not hi["turnaround"] or not makespans:
        problems.append("no completed job to time")
        times["turnaround"] = hi["turnaround"] = makespans = [0.0]

    acct = account(jobs)
    host = [s["host_s"] for s in raw["samples"]]
    host_s = statistics.median(host)

    # A stream's makespan is fixed by its last arrival, so a stream reports
    # the instance makespan at the highest percentile with ten instances
    # beyond it. Its medians sit between two modes (see NOTES.md) and are
    # per-layer.
    e2e = {
        "virtual_s": (percentile(makespans, 0.7) if stream
                      else values["virtual_s"]),
        "turnaround_mean_s": statistics.fmean(times["turnaround"]),
        "turnaround_p90_s": percentile(times["turnaround"], 0.9),
        "hi_turnaround_p70_s": percentile(hi["turnaround"], 0.7),
        "completed_frac": 1.0 - acct["failed_frac"],
        "host_s": host_s,
        "setup_s": raw["setup_s"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }

    layer = {name: float(values.get(name, 0.0)) for name in RECORD_COUNTS}
    if stream:
        layer["sched.admit_wait_p50_s"] = percentile(times["admit_wait"], 0.5)
        layer["sched.admit_wait_p90_s"] = percentile(times["admit_wait"], 0.9)
        layer["sched.run_p50_s"] = percentile(times["run"], 0.5)
    else:
        layer["sched.admit_wait_p50_s"] = 0.0
        layer["sched.admit_wait_p90_s"] = 0.0
        layer["sched.run_p50_s"] = 0.0
    for name in SCHED_COUNTS:
        layer[name] = float(values.get(name, 0.0))
    layer["mining.generate_s"] = raw["generate_s"]
    layer["mining.reference_s"] = raw["reference_s"]
    layer["host.user_s"] = statistics.median(
        s["user_s"] for s in raw["samples"])
    layer["host.sys_s"] = statistics.median(s["sys_s"] for s in raw["samples"])
    layer["host.minflt"] = float(raw["samples"][0]["minflt"])
    layer["host.probe_s"] = statistics.median(
        s["probe_s"] for s in raw["samples"])
    layer["failed_frac"] = acct["failed_frac"]
    layer["jobs.attempted"] = float(acct["attempted"])
    layer["jobs.completed"] = float(acct["completed"])
    layer["jobs.turnaround_p50_s"] = percentile(times["turnaround"], 0.5)
    layer["jobs.hi_turnaround_p50_s"] = percentile(hi["turnaround"], 0.5)

    traced = raw.get("traced")
    if "sim.events" in values:
        layer["sim.events"] = float(values["sim.events"])
    elif traced is not None:
        layer["sim.events"] = float(traced["sampled_events"])
    if traced is not None:
        # Against the last untraced simulation: like the traced one, it
        # runs in a process that has already simulated (warm allocator).
        layer["obs.trace_overhead_s"] = (traced["host_s"]
                                         - raw["samples"][-1]["host_s"])
        layer["obs.trace_dropped"] = float(traced["trace_dropped"])
        for c in CRIT_CATEGORIES:
            layer["crit.%s_s" % c] = float(traced["crit"][c])
    if layer.get("sim.events", 0) > 0:
        layer["sim.host_us_per_event"] = host_s / layer["sim.events"] * 1e6

    # Output checks over every simulation of the run.
    sims = list(records) + ([traced["record"]] if traced else [])
    checked = 0
    failed = 0
    for sim in sims:
        a = account(sim["jobs"])
        checked += a["attempted"]
        failed += len(a["problems"])
        problems.extend(a["problems"])
    return {"end_to_end": e2e, "per_layer": layer, "attempted": checked,
            "failed": failed, "problems": problems}


# ---------------------------------------------------------------------------
# Build and run.
# ---------------------------------------------------------------------------

def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(target, "perfbench"))


def build(bdir, deadline_s):
    """Configure (once) and build the harness; build output goes to stderr
    so the last stdout line stays the result."""
    started = time.monotonic()
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        left = deadline_s - (time.monotonic() - started)
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, left))
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError("build step %s failed: %s" % (cmd[:2], e))
        if proc.returncode != 0:
            raise BenchError("build step %s exited %d" % (cmd[:2],
                                                         proc.returncode))
    exe = os.path.join(bdir, "perfbench_harness")
    if not os.path.exists(exe):
        raise BenchError("harness missing after build")
    return exe


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def run_harness(exe, args, out_dir, timeout_s):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=max(1.0, timeout_s),
                              text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("harness exceeded %.0f s" % timeout_s)
    if proc.returncode != 0:
        raise BenchError("harness exited %d" % proc.returncode)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise BenchError("harness printed nothing")
    return json.loads(lines[-1])


def ledger_check(bdir, exe, workload, seed, record):
    """Compare with the record an earlier run of this build and seed left,
    or leave one. Returns the earlier canonical record or None."""
    ldir = os.path.join(bdir, "ledger")
    os.makedirs(ldir, exist_ok=True)
    path = os.path.join(ldir, "%s-%s-%d.json" % (file_digest(exe), workload,
                                                  seed))
    if os.path.exists(path):
        with open(path) as f:
            return f.read()
    with open(path, "w") as f:
        f.write(canonical(record))
    return None


def print_table(metrics, units):
    for name in sorted(metrics):
        print("  %-26s %18.6f %s" % (name, metrics[name], units[name]))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    started = time.monotonic()
    bdir = build_dir()
    try:
        exe = build(bdir, BUILD_DEADLINE_S)
        out_dir = os.path.join(bdir, "out")
        os.makedirs(out_dir, exist_ok=True)
        left = RUN_DEADLINE_S - (time.monotonic() - started)
        if left < 60:
            # A first run that had to build gets the full window again.
            left = RUN_DEADLINE_S
        raw = run_harness(exe, args, out_dir, left)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    result = compute(raw)
    traced = raw.get("traced")
    problems = list(result["problems"])
    determinism = determinism_problems(
        raw["records"], traced["record"] if traced else None,
        ledger_check(bdir, exe, args.workload, args.seed, raw["records"][0]))
    problems.extend("determinism: " + d for d in determinism)

    print("perfbench %s seed %d: %d simulation(s), %d job check(s)"
          % (args.workload, args.seed, len(raw["samples"]),
             result["attempted"]))
    print("  host_s per simulation: %s" % " ".join(
        "%.3f" % s["host_s"] for s in raw["samples"]))
    print_table(result["end_to_end"], END_TO_END)
    print_table(result["per_layer"], PER_LAYER)
    for prob in problems:
        print("  FAILED: %s" % prob)

    if args.trace:
        chosen, units = result["per_layer"], PER_LAYER
    else:
        chosen, units = result["end_to_end"], END_TO_END
    missing = [n for n in units if n not in chosen]
    if missing:
        problems.append("metrics not measured: %s" % ", ".join(missing))
    out = {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": chosen[n], "unit": units[n]}
                    for n in units if n in chosen},
    }
    print(json.dumps(out))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
