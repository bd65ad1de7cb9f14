// bench_ext_multitenant: the multi-tenant scheduler's headline scenario —
// concurrent workloads arbitrating one dynamic remote-memory pool.
//
// One sched::World (8 execution slots, a deliberately small donor pool),
// one JobScheduler, four tenants:
//
//   t=0s   agg-bg    (pri 1)  hash_aggregate under a tight memory limit:
//                             it swaps its group table to the donor pool
//                             and keeps it parked there (one-way updates).
//   t=2s   bulk-shed (pri 0)  demands more pool bytes than exist; shed at
//                             its admission deadline (backpressure path).
//   t=6s   hpa-hi    (pri 5)  the paper's miner, demanding nearly the whole
//                             pool. Blocked: agg-bg's donated lines shrink
//                             the broadcast free-memory view below the
//                             demand. The scheduler reclaims the deficit
//                             from the lowest-priority tenant (agg-bg's
//                             lines spill to its local swap disks through
//                             the congested links — reclamation latency is
//                             part of the picture — and its quota is
//                             capped), the next availability broadcast
//                             shows the recovered capacity, and hpa-hi
//                             admits. agg-bg visibly degrades: its updates
//                             now fault against the local swap disk.
//   t=12s  join-mid  (pri 3)  hash_join; backfills onto the free slots
//                             while hpa-hi still waits on pool bytes.
//
// Everything is virtual-time deterministic: same flags, byte-identical
// artifact (CI replays it). --arrival-trace poisson reschedules the same
// four jobs on a seeded open-loop trace instead of the fixed script.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "workloads/hash_aggregate.hpp"
#include "workloads/hash_join.hpp"

using namespace rms;

namespace {

/// Per-job one-line description for the artifact's config section.
struct SpecDoc {
  sched::JobSpec spec;
  std::string description;
};

/// The artifact's top-level "scheduler" section: admission/reclamation
/// accounting plus one record per job. Each job also gets a run section
/// (sched::job_run_section) carrying "job"/"tenant" markers and no profile
/// — the world's clock is shared, so per-job attribution does not exist
/// (tools/check_artifact.py accepts the marked shape).
void scheduler_json(obs::JsonWriter& w, const sched::JobScheduler& scheduler,
                    const char* arrival_trace,
                    std::int64_t pool_donated_end) {
  const sched::JobScheduler::Stats& st = scheduler.stats();
  w.key("scheduler");
  w.begin_object();
  w.kv("arrival_trace", arrival_trace);
  w.kv("admitted", static_cast<std::int64_t>(st.admitted));
  w.kv("completed", static_cast<std::int64_t>(st.completed));
  w.kv("shed", static_cast<std::int64_t>(st.shed));
  w.kv("reclaim_events", static_cast<std::int64_t>(st.reclaim_events));
  w.kv("reclaimed_bytes", st.reclaimed_bytes);
  w.kv("admission_waits", static_cast<std::int64_t>(st.admission_waits));
  w.kv("peak_queue_depth", static_cast<std::uint64_t>(st.peak_queue_depth));
  w.kv("peak_running", static_cast<std::uint64_t>(st.peak_running));
  w.kv("pool_donated_bytes_end", pool_donated_end);
  w.key("jobs");
  w.begin_array();
  for (const sched::JobRecord& j : scheduler.jobs()) {
    w.begin_object();
    w.kv("id", static_cast<std::uint64_t>(j.id));
    w.kv("name", j.spec.name);
    w.kv("workload", j.spec.workload);
    w.kv("tenant", j.spec.tenant);
    w.kv("priority", static_cast<std::int64_t>(j.spec.priority));
    w.kv("slots", static_cast<std::uint64_t>(j.spec.slots));
    w.kv("demand_bytes", j.spec.demand_bytes);
    w.kv("arrival_s", to_seconds(j.spec.arrival));
    w.kv("admitted_s", j.admitted < 0 ? -1.0 : to_seconds(j.admitted));
    w.kv("finished_s", j.finished < 0 ? -1.0 : to_seconds(j.finished));
    w.kv("state", sched::job_state_name(j.state));
    w.kv("reclaimed_bytes", j.reclaimed_bytes);
    w.kv("reclaim_events", static_cast<std::int64_t>(j.reclaim_events));
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string time_or_dash(Time t) {
  return t < 0 ? "-" : TablePrinter::num(to_seconds(t), 1);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(
      argc, argv,
      bench::with_arrival_flags(
          {{"app-nodes", "world execution slots (default 8)"},
           {"memory-nodes", "shared donor pool size (default 4)"},
           {"donor-free-kb",
            "free memory per donor node in KB (default 512; the rest is "
            "modelled as foreign load)"},
           {"scale",
            "hpa-hi job: transaction-count scale vs the paper's 1M "
            "(default 0.01)"},
           {"min-support", "hpa-hi job: minimum support (default 0.01)"},
           {"hpa-demand-kb",
            "hpa-hi job: declared pool demand in KB (default: pool minus "
            "16 KB, so any donated bytes block admission)"},
           {"hpa-arrival-ms",
            "hpa-hi job: fixed-trace arrival in virtual ms (default 20000)"},
           {"no-reclaim",
            "disable priority reclamation (ablation: hpa-hi then waits for "
            "agg-bg to finish on its own)"},
           {"expect-reclaim",
            "exit nonzero unless reclamation fired (the CI headline gate)"},
           {"horizon-s",
            "abort if the world is still running past this virtual time "
            "(default 900)"},
           {"seed", "world seed (default 1)"},
           {"trace-out", "write a Chrome trace_event JSON here"},
           {"json-out", "write the machine-readable run artifact here"}}));
  const sched::ArrivalTrace atrace = bench::parse_arrival_trace_flag(flags);

  const std::size_t app_nodes =
      static_cast<std::size_t>(flags.get_int("app-nodes", 8));
  const std::size_t memory_nodes =
      static_cast<std::size_t>(flags.get_int("memory-nodes", 4));
  const std::int64_t donor_free =
      flags.get_int("donor-free-kb", 512) * 1024;
  const std::int64_t pool_bytes =
      donor_free * static_cast<std::int64_t>(memory_nodes);

  // The observer owns the world's trace recorder (--trace-out) and writes
  // the artifact; the jobs' runs are not observed one by one.
  const std::unique_ptr<obs::RunObserver> observer =
      bench::make_observer(flags);
  obs::TraceRecorder* trace = observer ? observer->trace() : nullptr;
  if (trace) trace->begin_run("multitenant");

  sim::Simulation sim;
  sched::WorldConfig wcfg;
  wcfg.app_nodes = app_nodes;
  wcfg.memory_nodes = memory_nodes;
  wcfg.monitor_interval = sec(1);  // snappier admission than the 3 s default
  wcfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  wcfg.trace = trace;
  sched::World world(sim, wcfg);

  // Shrink each donor to --donor-free-kb of free memory: the balance is
  // foreign load (the paper's "other processes"), so the pool the tenants
  // fight over is small and exactly known.
  for (std::size_t i = 0; i < memory_nodes; ++i) {
    cluster::HostMemoryModel& mem =
        world.cluster().node(world.memory_node(i)).memory();
    mem.external_bytes =
        std::max<std::int64_t>(0, mem.total_bytes - mem.base_bytes -
                                      donor_free);
  }

  // ---- the four tenants -----------------------------------------------

  // agg-bg: group-by whose table lives mostly in the donor pool (tight
  // limit, one-way updates keep the lines parked remotely) — the
  // reclamation victim.
  workloads::HashAggregateConfig acfg;
  acfg.app_nodes = 4;
  acfg.workload = mining::QuestParams::paper_experiment(0.1);
  acfg.hash_lines = 4096;
  acfg.memory_limit_bytes = 8 * 1024;
  acfg.policy = core::SwapPolicy::kRemoteUpdate;
  acfg.trace = trace;

  // hpa-hi: the paper's miner at a bench scale, itself memory-limited so
  // it swaps into the capacity it reclaimed.
  mining::QuestParams wl = mining::QuestParams::paper_experiment(
      flags.get_double("scale", 0.01));
  const mining::TransactionDb db = mining::QuestGenerator(wl).generate();
  hpa::HpaConfig hcfg;
  hcfg.app_nodes = 4;
  hcfg.workload = wl;
  hcfg.shared_db = &db;
  hcfg.min_support = flags.get_double("min-support", 0.01);
  hcfg.hash_lines = 20'000;
  hcfg.max_k = 2;
  hcfg.memory_limit_bytes = 20'000;
  hcfg.policy = core::SwapPolicy::kRemoteUpdate;
  hcfg.trace = trace;

  // join-mid / bulk-shed: the join both backfills (modest demand) and,
  // with an impossible demand, exercises the deadline-shed path.
  workloads::HashJoinConfig jcfg;
  jcfg.app_nodes = 4;
  jcfg.build_rows = 20'000;
  jcfg.probe_rows = 20'000;
  jcfg.memory_limit_bytes = 96'000;
  jcfg.policy = core::SwapPolicy::kRemoteSwap;
  jcfg.trace = trace;

  workloads::HashJoinConfig shed_cfg = jcfg;
  shed_cfg.app_nodes = 2;

  const std::int64_t hpa_demand =
      flags.has("hpa-demand-kb")
          ? flags.get_int("hpa-demand-kb", 0) * 1024
          : pool_bytes - 16 * 1024;

  std::vector<SpecDoc> docs;
  const auto add = [&docs](sched::JobSpec spec, std::string description) {
    docs.push_back({std::move(spec), std::move(description)});
  };

  {
    sched::JobSpec s;
    s.name = "agg-bg";
    s.workload = "hash_aggregate";
    s.tenant = 1;
    s.priority = 1;
    s.arrival = 0;
    s.slots = 4;
    s.demand_bytes = 0;
    s.make = [&acfg] { return workloads::make_hash_aggregate_job(acfg); };
    add(std::move(s),
        bench::label("group-by over D=%lld, limit %lld B/node, one-way "
                     "updates",
                     static_cast<long long>(acfg.workload.num_transactions),
                     static_cast<long long>(acfg.memory_limit_bytes)));
  }
  {
    sched::JobSpec s;
    s.name = "bulk-shed";
    s.workload = "hash_join";
    s.tenant = 4;
    s.priority = 0;
    s.arrival = sec(2);
    s.slots = 2;
    s.demand_bytes = 8LL << 20;  // 4x the whole pool: can never admit
    s.admission_deadline = sec(3);
    s.make = [&shed_cfg] { return workloads::make_hash_join_job(shed_cfg); };
    add(std::move(s), "join demanding 4x the donor pool; shed at its 3 s "
                      "admission deadline");
  }
  {
    sched::JobSpec s;
    s.name = "hpa-hi";
    s.workload = "hpa";
    s.tenant = 2;
    s.priority = 5;
    s.arrival = msec(flags.get_int("hpa-arrival-ms", 6'000));
    s.slots = 4;
    s.demand_bytes = hpa_demand;
    s.make = [&hcfg] { return hpa::make_hpa_job(hcfg); };
    add(std::move(s),
        bench::label("miner over D=%lld, min_support %.4f, demand %lld B",
                     static_cast<long long>(wl.num_transactions),
                     hcfg.min_support, static_cast<long long>(hpa_demand)));
  }
  {
    sched::JobSpec s;
    s.name = "join-mid";
    s.workload = "hash_join";
    s.tenant = 3;
    s.priority = 3;
    s.arrival = sec(12);
    s.slots = 4;
    s.demand_bytes = 128 << 10;
    s.make = [&jcfg] { return workloads::make_hash_join_job(jcfg); };
    add(std::move(s),
        bench::label("%lld x %lld row join, limit %lld B/node",
                     static_cast<long long>(jcfg.build_rows),
                     static_cast<long long>(jcfg.probe_rows),
                     static_cast<long long>(jcfg.memory_limit_bytes)));
  }

  if (atrace == sched::ArrivalTrace::kPoisson) {
    const std::vector<Time> arrivals = sched::poisson_arrivals(
        docs.size(), msec(flags.get_int("arrival-mean-ms", 2000)),
        static_cast<std::uint64_t>(flags.get_int("arrival-seed", 7)));
    for (std::size_t i = 0; i < docs.size(); ++i) {
      docs[i].spec.arrival = arrivals[i];
    }
  }

  sched::SchedulerConfig scfg;
  scfg.reclaim_enabled = !flags.get_bool("no-reclaim", false);
  scfg.horizon = sec(flags.get_int("horizon-s", 900));
  scfg.trace = trace;
  sched::JobScheduler scheduler(world, scfg);
  for (const SpecDoc& doc : docs) scheduler.submit(doc.spec);

  std::printf("[multitenant] %zu slots, %zu donors x %lld KB free "
              "(pool %lld KB), hpa-hi demand %lld KB, arrivals: %s\n",
              world.num_slots(), memory_nodes,
              static_cast<long long>(donor_free / 1024),
              static_cast<long long>(pool_bytes / 1024),
              static_cast<long long>(hpa_demand / 1024),
              sched::arrival_trace_name(atrace));

  world.start();
  sim.spawn(scheduler.run());
  sim.run();

  const std::int64_t pool_donated_end = world.pool_donated_bytes();
  const sched::JobScheduler::Stats& st = scheduler.stats();

  TablePrinter table("multi-tenant schedule",
                     {"job", "workload", "tenant", "pri", "arrive [s]",
                      "admit [s]", "finish [s]", "state", "reclaimed [KB]",
                      "result"});
  bool ok = true;
  for (const sched::JobRecord& j : scheduler.jobs()) {
    std::string result = "-";
    if (j.state == sched::JobState::kCompleted) {
      result = j.report.exact ? "exact, " + j.report.summary : "MISMATCH!";
      if (!j.report.exact || !j.report.completed) ok = false;
    } else if (j.state != sched::JobState::kShed) {
      ok = false;  // still queued/running after the world drained: wedged
    }
    table.add_row({j.spec.name, j.spec.workload,
                   TablePrinter::integer(j.spec.tenant),
                   TablePrinter::integer(j.spec.priority),
                   time_or_dash(j.spec.arrival), time_or_dash(j.admitted),
                   time_or_dash(j.finished),
                   sched::job_state_name(j.state),
                   TablePrinter::num(
                       static_cast<double>(j.reclaimed_bytes) / 1024.0, 1),
                   result});
  }
  table.print();

  std::printf("scheduler: %d admitted, %d completed, %d shed; "
              "%d reclaim event(s) freeing %lld KB; %d admission wait(s); "
              "%lld KB still donated at end\n",
              st.admitted, st.completed, st.shed, st.reclaim_events,
              static_cast<long long>(st.reclaimed_bytes / 1024),
              st.admission_waits,
              static_cast<long long>(pool_donated_end / 1024));

  if (flags.get_bool("expect-reclaim", false) && st.reclaim_events == 0) {
    std::fprintf(stderr, "FAIL: expected priority reclamation to fire\n");
    ok = false;
  }

  if (observer) {
    for (std::size_t i = 0; i < docs.size(); ++i) {
      observer->add_run(
          sched::job_run_section(scheduler.jobs()[i], docs[i].description));
    }
    const bool wrote = observer->write([&](obs::JsonWriter& w) {
      scheduler_json(w, scheduler, sched::arrival_trace_name(atrace),
                     pool_donated_end);
    });
    if (!wrote) ok = false;
  }
  return ok ? 0 : 1;
}
