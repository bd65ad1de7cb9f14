// Extension: crash-tolerant remote swapping. A memory-available node
// crash-stops mid-pass-2 while holding swapped-out hash lines; the run must
// finish anyway. The sweep crosses the crash time with the failure-detection
// interval and the recovery mode:
//
//   degrade   — no replicas: lines on the dead node are orphaned (their
//               counts are lost) and later evictions fall back to disk;
//   replicate — replicate_k = 1 mirrors every swapped-out line on a second
//               memory node, so the dead node's primaries are promoted and
//               the mining result stays exact.
//
// Reported per cell: completion time of pass 2 and the count loss (orphaned
// candidate entries), plus the failover counters behind them.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

using namespace rms;

int main(int argc, char** argv) {
  bench::ExperimentEnv env(
      argc, argv,
      bench::with_policy_flags(
          {{"crash-node", "memory-available node index to crash (default 0)"}}));
  const bench::PolicyFlags pf = bench::parse_policy_flags(
      env.flags, core::SwapPolicy::kRemoteUpdate, 14.0);
  const auto crash_node =
      static_cast<std::size_t>(env.flags.get_int("crash-node", 0));

  // Baseline (no fault) pins the time axis for placing the crash.
  hpa::HpaConfig base = env.config();
  pf.apply(base);
  std::fprintf(stderr, "[failover] baseline (no fault)...\n");
  const hpa::HpaResult baseline = env.run(base, "baseline");
  const Time total0 = baseline.total_time;

  const std::vector<double> crash_fractions{0.25, 0.5, 0.75};
  const std::vector<Time> detect_intervals{msec(500), sec(3)};
  constexpr int kMissThreshold = 3;

  TablePrinter table(
      "Failover sweep: crash of one memory-available node (remote update, "
      "limit " + TablePrinter::num(pf.limit_mb, 1) + " MB); baseline " +
          bench::secs(total0) + " s",
      {"crash at", "detect", "mode", "time [s]", "entries lost", "orphaned",
       "promoted", "degraded", "suspicions"});

  for (double frac : crash_fractions) {
    const Time crash_at =
        static_cast<Time>(static_cast<double>(total0) * frac);
    for (Time detect : detect_intervals) {
      for (int replicate = 0; replicate <= 1; ++replicate) {
        hpa::HpaConfig cfg = base;
        cfg.monitor_interval = detect;
        cfg.suspect_after_misses = kMissThreshold;
        cfg.replicate_k = replicate;
        cfg.rpc_deadline = msec(500);
        cfg.rpc_max_retries = 1;
        cfg.crashes = {{crash_node, crash_at, -1}};
        std::fprintf(stderr,
                     "[failover] crash @ %.2f s, detect %lld ms, %s...\n",
                     to_seconds(crash_at),
                     static_cast<long long>(detect / msec(1)),
                     replicate ? "replicate" : "degrade");
        const hpa::HpaResult r = env.run(
            cfg, bench::label("crash_%.0f%%/detect_%lldms/%s", frac * 100,
                              static_cast<long long>(detect / msec(1)),
                              replicate ? "replicate" : "degrade"));
        const core::FailoverStats& f = r.failover;
        table.add_row(
            {bench::secs(crash_at) + "s",
             TablePrinter::integer(detect / msec(1)) + "ms x" +
                 TablePrinter::integer(kMissThreshold),
             replicate ? "replicate" : "degrade", bench::secs(r.total_time),
             TablePrinter::integer(f.orphaned_entries),
             TablePrinter::integer(f.orphaned_lines),
             TablePrinter::integer(f.promoted_lines),
             TablePrinter::integer(f.degraded_evictions),
             TablePrinter::integer(f.suspicions)});
      }
    }
  }
  env.finish(table);

  std::printf(
      "\nwith replication every crash cell loses zero entries (backups are "
      "promoted); without it the loss tracks how many lines the dead node "
      "held when it crashed, and a shorter detection interval mainly bounds "
      "how long swap-outs keep aiming at the dead node.\n");
  return 0;
}
