#!/usr/bin/env python3
"""Validate the observability output files the bench binaries emit.

Usage:
    tools/check_artifact.py --run-artifact fig4.json \
                            --trace trace.json \
                            --metrics metrics.json

Every file type is optional; pass the ones the bench produced. Exits
non-zero (with a message per problem) if a file fails validation, so CI can
gate on it. Stdlib only.
"""
import argparse
import json
import sys

_PROBLEMS = []


def problem(msg):
    _PROBLEMS.append(msg)
    print(f"FAIL: {msg}", file=sys.stderr)


def expect(cond, msg):
    if not cond:
        problem(msg)
    return cond


def load(path, what):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        problem(f"{what} {path}: not readable/parseable JSON: {e}")
        return None


# One key per profiler category, in the profiler's priority order. The sum
# of these per node must equal the pass duration (the profiler attributes
# every nanosecond; "unattributed" is the explicit residual bucket).
_PROFILE_CATEGORIES = [
    "fault_in_s", "swap_out_s", "migrate_s", "serve_s", "rpc_s",
    "stream_s", "disk_io_s", "compute_s", "barrier_wait_s",
    "unattributed_s",
]


def check_profile_body(who, prof):
    for key in ("trace_dropped", "events_dropped"):
        expect(isinstance(prof.get(key), int) and prof[key] >= 0,
               f"{who}: profile.{key} missing or negative")
    expect(isinstance(prof.get("complete"), bool),
           f"{who}: profile.complete missing")
    # v2: the workload's registered phase names, indexed by the ids the
    # critical-path segments reference.
    names = prof.get("phases")
    expect(isinstance(names, list)
           and all(isinstance(n, str) for n in names),
           f"{who}: profile.phases missing or not a list of names")
    passes = prof.get("passes")
    if not expect(isinstance(passes, list) and passes,
                  f"{who}: profile.passes missing or empty"):
        return
    exact = prof.get("events_dropped", 1) == 0
    for p in passes:
        pw = f"{who} profile pass k={p.get('k')}"
        dur = p.get("duration_s")
        if not expect(isinstance(dur, (int, float)) and dur > 0,
                      f"{pw}: duration_s not positive"):
            continue
        nodes = p.get("nodes")
        if not expect(isinstance(nodes, list) and nodes,
                      f"{pw}: nodes missing or empty"):
            continue
        for n in nodes:
            nw = f"{pw} node {n.get('node')}"
            total = 0.0
            for cat in _PROFILE_CATEGORIES:
                v = n.get(cat)
                if not expect(isinstance(v, (int, float)) and v >= 0,
                              f"{nw}: {cat} missing or negative"):
                    break
                total += v
            else:
                ndur = n.get("duration_s", dur)
                # Exact in integer nanoseconds; 1e-6 relative covers the
                # double-to-decimal printing only. A degraded profiler
                # (events_dropped > 0) still sums exactly, but keep the
                # check scoped to the guarantee the code makes.
                if exact:
                    expect(abs(total - ndur) <= 1e-6 * max(ndur, 1e-9),
                           f"{nw}: categories sum to {total}, "
                           f"duration is {ndur}")
        waits = [s.get("barrier_wait_s", 0)
                 for s in p.get("stragglers", [])]
        expect(all(a <= b for a, b in zip(waits, waits[1:])),
               f"{pw}: stragglers not sorted by ascending wait")
        slow = [s.get("duration_ms", 0) for s in p.get("slowest", [])]
        expect(all(a >= b for a, b in zip(slow, slow[1:])),
               f"{pw}: slowest ops not sorted by descending duration")


_JOB_STATES = {"queued", "running", "completed", "shed"}

_SCHEDULER_COUNTERS = [
    "admitted", "completed", "shed", "reclaim_events", "reclaimed_bytes",
    "admission_waits", "peak_queue_depth", "peak_running",
]


def check_scheduler(path, doc):
    """Validate the multi-tenant 'scheduler' section (bench_ext_multitenant).

    Beyond types, the counts must be internally consistent: every job in a
    terminal state, stats matching the per-job records, and each completed
    job's timeline ordered arrival <= admitted <= finished.
    """
    sched = doc["scheduler"]
    who = f"{path} scheduler"
    if not expect(isinstance(sched, dict), f"{who}: not an object"):
        return
    for key in _SCHEDULER_COUNTERS:
        expect(isinstance(sched.get(key), int) and sched[key] >= 0,
               f"{who}: {key} missing or negative")
    jobs = sched.get("jobs")
    if not expect(isinstance(jobs, list) and jobs,
                  f"{who}: 'jobs' missing or empty"):
        return
    states = []
    reclaimed = 0
    for i, job in enumerate(jobs):
        jw = f"{who} jobs[{i}]"
        expect(job.get("id") == i, f"{jw}: id {job.get('id')!r} != index")
        for key in ("name", "workload", "state"):
            expect(isinstance(job.get(key), str) and job[key],
                   f"{jw}: {key} missing")
        state = job.get("state")
        expect(state in _JOB_STATES, f"{jw}: unknown state {state!r}")
        expect(state not in ("queued", "running"),
               f"{jw}: non-terminal state {state!r} after the run drained")
        states.append(state)
        reclaimed += job.get("reclaimed_bytes", 0)
        if state == "completed":
            arrival = job.get("arrival_s", -1)
            admitted = job.get("admitted_s", -1)
            finished = job.get("finished_s", -1)
            expect(0 <= arrival <= admitted <= finished,
                   f"{jw}: timeline {arrival}/{admitted}/{finished} not "
                   f"ordered arrival <= admitted <= finished")
        elif state == "shed":
            expect(job.get("admitted_s", -1) < 0,
                   f"{jw}: shed job has an admission time")
    expect(sched.get("completed") == states.count("completed"),
           f"{who}: completed={sched.get('completed')} but "
           f"{states.count('completed')} job(s) completed")
    expect(sched.get("shed") == states.count("shed"),
           f"{who}: shed={sched.get('shed')} but "
           f"{states.count('shed')} job(s) shed")
    expect(sched.get("admitted", 0) >= states.count("completed"),
           f"{who}: fewer admissions than completions")
    expect(sched.get("reclaimed_bytes") == reclaimed,
           f"{who}: reclaimed_bytes={sched.get('reclaimed_bytes')} but "
           f"per-job records sum to {reclaimed}")
    # Every job must have a matching run section carrying the marker.
    by_job = {run.get("job"): run for run in doc.get("runs", [])
              if "job" in run}
    for i, job in enumerate(jobs):
        run = by_job.get(i)
        if not expect(run is not None,
                      f"{who}: job {i} has no marked run section"):
            continue
        expect(run.get("label") == job.get("name"),
               f"{who}: job {i} run label {run.get('label')!r} != "
               f"name {job.get('name')!r}")
        expect(run.get("tenant") == job.get("tenant"),
               f"{who}: job {i} run tenant mismatch")
        expect(bool(run.get("completed")) == (job["state"] == "completed"),
               f"{who}: job {i} run completed={run.get('completed')!r} "
               f"but state is {job['state']!r}")


def check_run_artifact(path):
    doc = load(path, "run artifact")
    if doc is None:
        return
    expect(doc.get("schema") == "rmswap.run_artifact/v2",
           f"{path}: schema is {doc.get('schema')!r}")
    if "scheduler" in doc:
        check_scheduler(path, doc)
    runs = doc.get("runs")
    if not expect(isinstance(runs, list) and runs,
                  f"{path}: 'runs' missing or empty"):
        return
    for i, run in enumerate(runs):
        who = f"{path} runs[{i}]"
        expect(isinstance(run.get("label"), str) and run["label"],
               f"{who}: missing label")
        expect(isinstance(run.get("config"), dict),
               f"{who}: missing config object")
        if not run.get("completed"):
            continue
        expect(isinstance(run.get("total_time_s"), (int, float))
               and run["total_time_s"] > 0,
               f"{who}: total_time_s not positive")
        phase_names = run.get("phase_names")
        if phase_names is not None:
            expect(isinstance(phase_names, list)
                   and all(isinstance(n, str) for n in phase_names),
                   f"{who}: phase_names not a list of names")
        workload = run.get("workload")
        if workload is not None:
            expect(isinstance(workload, str) and workload,
                   f"{who}: workload not a non-empty name")
        passes = run.get("passes")
        if expect(isinstance(passes, list) and passes,
                  f"{who}: 'passes' missing or empty"):
            for p in passes:
                expect({"k", "duration_s"} <= set(p),
                       f"{who}: pass missing required keys")
                # Phase breakdowns are keyed by registry name ("<name>_s");
                # prologue passes omit the object entirely.
                phases = p.get("phases")
                if phases is None:
                    continue
                if not expect(isinstance(phases, dict) and phases,
                              f"{who}: pass 'phases' not a non-empty "
                              f"object"):
                    continue
                for name, v in phases.items():
                    expect(name.endswith("_s"),
                           f"{who}: phase key {name!r} not '<name>_s'")
                    expect(isinstance(v, (int, float)) and v >= 0,
                           f"{who}: phase {name} not a non-negative time")
                if phase_names is not None:
                    expect(set(phases) <= {n + "_s" for n in phase_names},
                           f"{who}: phase keys {sorted(phases)} not from "
                           f"phase_names {phase_names}")
        for section in ("counters", "summaries", "histograms", "failover"):
            expect(isinstance(run.get(section), dict),
                   f"{who}: '{section}' missing")
        if "job" not in run:
            # The remote backend bumps the ledger and the counter together
            # for every eviction that fell back to the local disk.
            ledger = run.get("failover", {}).get("degraded_evictions", 0)
            counter = run.get("counters", {}).get("store.degraded_disk_swap",
                                                  0)
            expect(ledger == counter,
                   f"{who}: failover.degraded_evictions={ledger} but counter "
                   f"store.degraded_disk_swap={counter}")
        for name, h in run.get("histograms", {}).items():
            expect(h.get("p50", 0) <= h.get("p95", 0) <= h.get("p99", 0),
                   f"{who}: histogram {name} percentiles not monotone")
        prof = run.get("profile")
        if prof is None and "job" in run:
            # Scheduler-run jobs share the world's clock with every other
            # tenant, so no per-job attribution profile exists; the
            # "job"/"tenant" markers opt the run out of the requirement.
            pass
        elif expect(isinstance(prof, dict),
                    f"{who}: completed run has no 'profile' section"):
            check_profile_body(who, prof)
        metrics = run.get("metrics")
        if metrics is not None:
            n_series = len(metrics.get("series", []))
            expect(all(len(row) == n_series
                       for row in metrics.get("samples", [])),
                   f"{who}: metrics rows don't match series layout")
    print(f"ok: {path}: {len(runs)} run(s)")


def check_trace(path):
    doc = load(path, "chrome trace")
    if doc is None:
        return
    events = doc.get("traceEvents")
    if not expect(isinstance(events, list) and events,
                  f"{path}: 'traceEvents' missing or empty"):
        return
    phases = {"X", "i", "M"}
    n_real = 0
    for ev in events:
        if not expect(ev.get("ph") in phases,
                      f"{path}: unexpected event phase {ev.get('ph')!r}"):
            return
        if ev["ph"] == "M":
            continue
        n_real += 1
        expect(isinstance(ev.get("ts"), (int, float)) and ev["ts"] >= 0,
               f"{path}: event without a timestamp: {ev}")
        expect(isinstance(ev.get("name"), str) and ev["name"],
               f"{path}: event without a name: {ev}")
        if ev["ph"] == "X":
            expect(isinstance(ev.get("dur"), (int, float)) and ev["dur"] >= 0,
                   f"{path}: span with bad duration: {ev}")
    expect(n_real > 0, f"{path}: only metadata events")
    print(f"ok: {path}: {n_real} event(s)")


def check_metrics(path):
    doc = load(path, "metrics series")
    if doc is None:
        return
    expect(doc.get("schema") == "rmswap.metrics/v1",
           f"{path}: schema is {doc.get('schema')!r}")
    runs = doc.get("runs")
    if not expect(isinstance(runs, list), f"{path}: 'runs' missing"):
        return
    for i, run in enumerate(runs):
        who = f"{path} runs[{i}]"
        n_series = len(run.get("series", []))
        t = run.get("t_s", [])
        samples = run.get("samples", [])
        expect(len(t) == len(samples),
               f"{who}: {len(t)} timestamps vs {len(samples)} sample rows")
        expect(all(len(row) == n_series for row in samples),
               f"{who}: sample rows don't match series layout")
        expect(all(a <= b for a, b in zip(t, t[1:])),
               f"{who}: timestamps not monotone")
    print(f"ok: {path}: {len(runs)} run(s)")


def check_profile(path):
    doc = load(path, "attribution profile")
    if doc is None:
        return
    expect(doc.get("schema") == "rmswap.profile/v2",
           f"{path}: schema is {doc.get('schema')!r}")
    runs = doc.get("runs")
    if not expect(isinstance(runs, list) and runs,
                  f"{path}: 'runs' missing or empty"):
        return
    for i, run in enumerate(runs):
        who = f"{path} runs[{i}]"
        expect(isinstance(run.get("label"), str) and run["label"],
               f"{who}: missing label")
        check_profile_body(who, run)
    print(f"ok: {path}: {len(runs)} run(s)")


def pass_digest(p):
    """The virtual-time content of one pass, layout-independent.

    Accepts both the v2 layout (a "phases" object keyed "<name>_s") and the
    pre-refactor flat keys (build_s/count_s/determine_s at top level), so a
    reference captured before the runtime port compares equal to an
    artifact produced after it iff the simulation behaved identically.
    """
    phases = {k: v for k, v in (p.get("phases") or {}).items() if v}
    if not phases:
        for key in ("build_s", "count_s", "determine_s"):
            if p.get(key):  # flat zeros mean "no phase loop ran"
                phases[key] = p[key]
    return {
        "k": p.get("k"),
        "candidates": p.get("candidates"),
        "large": p.get("large"),
        "duration_s": p.get("duration_s"),
        "max_pagefaults": p.get("max_pagefaults"),
        "pagefaults_per_node": p.get("pagefaults_per_node"),
        "swap_outs_per_node": p.get("swap_outs_per_node"),
        "updates_per_node": p.get("updates_per_node"),
        "phases": phases,
    }


# A scheduled job's timeline in the multi-tenant artifact's "scheduler"
# section: admission, completion, and how much donated memory was revoked.
_JOB_DIGEST_KEYS = ("name", "state", "arrival_s", "admitted_s",
                    "finished_s", "reclaimed_bytes")


def run_digest(run, jobs=None):
    """The virtual-time content of one run. A job-marked run (one section
    per scheduled job) also carries its scheduler record, looked up by job
    id in `jobs`; a run from a --dump-digest file already holds it."""
    digest = {
        "label": run.get("label"),
        "completed": run.get("completed"),
        "total_time_s": run.get("total_time_s"),
        "passes": [pass_digest(p) for p in run.get("passes", [])],
    }
    job = run.get("job")
    if isinstance(job, dict):
        digest["job"] = job
    elif job is not None and jobs and job in jobs:
        digest["job"] = {k: jobs[job].get(k) for k in _JOB_DIGEST_KEYS}
    return digest


def doc_digest(doc):
    """Run digests of a whole artifact or digest file, in run order."""
    sched = doc.get("scheduler")
    jobs = {}
    if isinstance(sched, dict):
        jobs = {j.get("id"): j for j in sched.get("jobs", [])}
    return [run_digest(r, jobs) for r in doc.get("runs", [])]


def check_lockstep(artifact_path, ref_path):
    """Compare an artifact's virtual-time digest against a reference.

    The reference is either a full run artifact (old or new layout) or a
    digest file previously written by --dump-digest. Any numeric drift —
    one nanosecond in one phase of one run — fails.
    """
    doc = load(artifact_path, "run artifact")
    ref = load(ref_path, "lockstep reference")
    if doc is None or ref is None:
        return
    got = doc_digest(doc)
    want = doc_digest(ref)
    if not expect(len(got) == len(want),
                  f"lockstep: {len(got)} run(s) vs reference's "
                  f"{len(want)}"):
        return
    for g, w in zip(got, want):
        who = f"lockstep run {w['label']!r}"
        if not expect(g["label"] == w["label"],
                      f"{who}: label is {g['label']!r}"):
            continue
        for key in ("completed", "total_time_s"):
            expect(g[key] == w[key],
                   f"{who}: {key} {g[key]!r} != reference {w[key]!r}")
        if "job" in g or "job" in w:
            expect(g.get("job") == w.get("job"),
                   f"{who}: scheduler record {g.get('job')!r} != "
                   f"reference {w.get('job')!r}")
        if not expect(len(g["passes"]) == len(w["passes"]),
                      f"{who}: {len(g['passes'])} pass(es) vs reference's "
                      f"{len(w['passes'])}"):
            continue
        for gp, wp in zip(g["passes"], w["passes"]):
            for key, wv in wp.items():
                expect(gp.get(key) == wv,
                       f"{who} pass k={wp['k']}: {key} {gp.get(key)!r} "
                       f"!= reference {wv!r}")
    if not _PROBLEMS:
        print(f"ok: {artifact_path}: bit-identical to {ref_path} "
              f"({len(got)} run(s))")


def dump_digest(artifact_path, out_path):
    doc = load(artifact_path, "run artifact")
    if doc is None:
        return
    digest = {"schema": "rmswap.lockstep_digest/v1",
              "runs": doc_digest(doc)}
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(digest, f, indent=1)
        f.write("\n")
    print(f"ok: digest of {artifact_path} written to {out_path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--run-artifact", help="rmswap.run_artifact/v2 file")
    ap.add_argument("--trace", help="Chrome trace_event file")
    ap.add_argument("--metrics", help="rmswap.metrics/v1 file")
    ap.add_argument("--profile", help="rmswap.profile/v2 file")
    ap.add_argument("--lockstep", metavar="REF",
                    help="with --run-artifact: require the artifact's "
                         "virtual-time digest to equal this reference "
                         "(a run artifact in the old or new layout, or a "
                         "--dump-digest file)")
    ap.add_argument("--dump-digest", metavar="OUT",
                    help="with --run-artifact: write the artifact's "
                         "lockstep digest here (for checking in as a "
                         "reference)")
    args = ap.parse_args()
    if not (args.run_artifact or args.trace or args.metrics
            or args.profile):
        ap.error("pass at least one of --run-artifact / --trace / "
                 "--metrics / --profile")
    if (args.lockstep or args.dump_digest) and not args.run_artifact:
        ap.error("--lockstep/--dump-digest require --run-artifact")
    if args.run_artifact:
        check_run_artifact(args.run_artifact)
        if args.lockstep:
            check_lockstep(args.run_artifact, args.lockstep)
        if args.dump_digest:
            dump_digest(args.run_artifact, args.dump_digest)
    if args.trace:
        check_trace(args.trace)
    if args.metrics:
        check_metrics(args.metrics)
    if args.profile:
        check_profile(args.profile)
    return 1 if _PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
