#include "hpa/report.hpp"

#include <cstdio>

#include "common/table.hpp"
#include "obs/artifact.hpp"
#include "obs/profile.hpp"

namespace rms::hpa {

namespace {

/// Per-pass attribution shares, categories aggregated across nodes, plus the
/// pass straggler — the compact "where did the time go" view.
void print_profile(const obs::RunProfile& profile) {
  if (profile.trace_dropped > 0) {
    std::printf(
        "WARNING: trace ring dropped %llu events — the exported trace file "
        "is incomplete (attribution below is exact: the profiler taps "
        "events before the ring).\n",
        static_cast<unsigned long long>(profile.trace_dropped));
  }
  if (!profile.complete()) {
    std::printf(
        "WARNING: profiler buffer dropped %llu events — attribution is "
        "PARTIAL; the lost time is bucketed as unattributed.\n",
        static_cast<unsigned long long>(profile.events_dropped));
  }
  if (profile.passes.empty()) return;

  std::vector<std::string> headers = {"pass"};
  for (std::size_t c = 0; c < obs::kProfileCategories; ++c) {
    headers.push_back(std::string(obs::category_name(
                          static_cast<obs::ProfileCategory>(c))) +
                      " %");
  }
  headers.push_back("straggler");
  TablePrinter t("time attribution: share of pass time per category",
                 headers);
  for (const obs::PassProfile& p : profile.passes) {
    std::array<double, obs::kProfileCategories> sums{};
    double total = 0.0;
    for (const obs::NodeProfile& n : p.nodes) {
      total += static_cast<double>(n.duration);
      for (std::size_t c = 0; c < obs::kProfileCategories; ++c) {
        sums[c] += static_cast<double>(n.time[c]);
      }
    }
    std::vector<std::string> row = {TablePrinter::integer(p.k)};
    for (std::size_t c = 0; c < obs::kProfileCategories; ++c) {
      row.push_back(total > 0.0
                        ? TablePrinter::num(100.0 * sums[c] / total, 1)
                        : "-");
    }
    // The pass straggler waits least at the barriers: everyone waited for it.
    row.push_back(p.stragglers.empty()
                      ? "-"
                      : "node " + std::to_string(p.stragglers.front().node));
    t.add_row(row);
  }
  t.print();

  for (const obs::PassProfile& p : profile.passes) {
    if (p.critical_path.empty()) continue;
    std::printf("pass %lld critical path:", static_cast<long long>(p.k));
    for (const obs::CriticalSegment& seg : p.critical_path) {
      // Dominant category of the straggler's segment.
      std::size_t best = obs::kProfileCategories - 1;
      for (std::size_t c = 0; c < obs::kProfileCategories; ++c) {
        if (seg.time[c] > seg.time[best]) best = c;
      }
      // Phase label from the profile's registry snapshot (the same names
      // the workload registered — the table and profiler cannot drift).
      const auto phase = static_cast<std::size_t>(seg.phase);
      const std::string label =
          seg.phase >= 0 && phase < profile.phase_names.size()
              ? profile.phase_names[phase]
              : "phase" + std::to_string(seg.phase);
      std::printf(
          " %s[node %d, %.2fs, %s]", label.c_str(), seg.node,
          to_seconds(seg.end - seg.start),
          obs::category_name(static_cast<obs::ProfileCategory>(best)));
    }
    std::printf("\n");
  }
}

}  // namespace

void print_report(const HpaResult& result, const obs::RunProfile* profile) {
  // Phase columns come from the result's phase-name registry snapshot, so
  // the table renders whatever phases the runtime actually ran — it cannot
  // drift from the runner or the profiler when phases change.
  std::vector<std::string> headers = {"pass", "candidates C", "large L",
                                      "time [s]"};
  for (const std::string& name : result.phase_names) {
    headers.push_back(name + " [s]");
  }
  headers.insert(headers.end(),
                 {"pagefaults(max node)", "swap-outs", "updates"});
  TablePrinter t("HPA run: per-pass summary", headers);
  for (const PassReport& p : result.passes) {
    std::int64_t swaps = 0;
    std::int64_t updates = 0;
    for (std::int64_t v : p.swap_outs_per_node) swaps += v;
    for (std::int64_t v : p.updates_per_node) updates += v;
    std::vector<std::string> row = {
        TablePrinter::integer(static_cast<std::int64_t>(p.k)),
        TablePrinter::integer(p.candidates_global),
        TablePrinter::integer(p.large_global),
        TablePrinter::num(to_seconds(p.duration), 2)};
    for (std::size_t i = 0; i < result.phase_names.size(); ++i) {
      row.push_back(p.phase_time.empty()
                        ? "-"
                        : TablePrinter::num(to_seconds(p.phase(i)), 2));
    }
    row.insert(row.end(), {TablePrinter::integer(p.max_pagefaults()),
                           TablePrinter::integer(swaps),
                           TablePrinter::integer(updates)});
    t.add_row(row);
  }
  t.print();
  std::printf("total virtual time: %.2f s\n", to_seconds(result.total_time));

  // Per-backend counters ("backend.<ns>.<counter>") exported by the swap
  // backends; absent entirely for kNoLimit runs.
  bool backend_header = false;
  for (const auto& [name, value] : result.stats.counters()) {
    if (value == 0 || name.rfind("backend.", 0) != 0) continue;
    if (!backend_header) {
      std::printf("backend counters:\n");
      backend_header = true;
    }
    std::printf("  %s = %lld\n", name.c_str(), static_cast<long long>(value));
  }

  // Broker decision counters ("placement.<policy>.<counter>"); absent when
  // no placement decision was ever made (disk-only or unlimited runs).
  bool placement_header = false;
  for (const auto& [name, value] : result.stats.counters()) {
    if (value == 0 || name.rfind("placement.", 0) != 0) continue;
    if (!placement_header) {
      std::printf("placement counters:\n");
      placement_header = true;
    }
    std::printf("  %s = %lld\n", name.c_str(), static_cast<long long>(value));
  }

  // Latency distributions (RPC, fault-in) — the percentiles the paper's
  // latency argument actually turns on.
  bool hist_header = false;
  for (const auto& [name, h] : result.stats.histograms()) {
    if (h.count() == 0) continue;
    if (!hist_header) {
      std::printf("latency histograms [ms]:\n");
      hist_header = true;
    }
    std::printf("  %-20s n=%-10llu p50=%-9.3f p95=%-9.3f p99=%-9.3f max=%.3f\n",
                name.c_str(), static_cast<unsigned long long>(h.count()),
                h.percentile(0.50), h.percentile(0.95), h.percentile(0.99),
                h.summary().max());
  }

  const core::FailoverStats& f = result.failover;
  if (f.any()) {
    std::printf(
        "failover: %lld suspicions, %lld rpc retries (%lld deadline misses), "
        "%lld promoted, %lld orphaned lines (%lld entries lost), "
        "%lld degraded evictions, %lld replicas, %lld updates mirrored, "
        "%lld update ops dropped\n",
        static_cast<long long>(f.suspicions),
        static_cast<long long>(f.rpc_retries),
        static_cast<long long>(f.deadline_misses),
        static_cast<long long>(f.promoted_lines),
        static_cast<long long>(f.orphaned_lines),
        static_cast<long long>(f.orphaned_entries),
        static_cast<long long>(f.degraded_evictions),
        static_cast<long long>(f.replicas_stored),
        static_cast<long long>(f.updates_mirrored),
        static_cast<long long>(f.lost_update_ops));
  }

  const core::IntegrityStats& g = result.integrity;
  if (g.any()) {
    std::printf(
        "integrity: %lld checksum mismatches, %lld repaired from replica, "
        "%lld repaired from disk, %lld lines lost, %lld re-replications, "
        "%lld holders quarantined\n",
        static_cast<long long>(g.checksum_mismatches),
        static_cast<long long>(g.repaired_from_replica),
        static_cast<long long>(g.repaired_from_disk),
        static_cast<long long>(g.lines_lost),
        static_cast<long long>(g.re_replications),
        static_cast<long long>(g.quarantines));
  }

  if (profile != nullptr) print_profile(*profile);
}

std::string describe(const HpaConfig& config) {
  // Decimal megabytes, the paper's accounting (DESIGN.md §4).
  const std::string limit =
      config.memory_limit_bytes < 0
          ? "none"
          : TablePrinter::num(
                static_cast<double>(config.memory_limit_bytes) / 1e6, 1) +
                "MB";
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "%zu app nodes, %zu memory nodes, policy=%s, limit=%s, D=%lld, minsup=%.4f",
      config.app_nodes, config.memory_nodes, core::to_string(config.policy),
      limit.c_str(),
      static_cast<long long>(config.workload.num_transactions),
      config.min_support);
  return buf;
}

obs::RunSection run_section(const HpaConfig& config, const HpaResult& result) {
  obs::RunSection run;
  run.workload = "hpa";
  run.description = describe(config);
  const auto count = [](std::size_t n) { return static_cast<std::uint64_t>(n); };
  run.config = {
      {"app_nodes", count(config.app_nodes)},
      {"memory_nodes", count(config.memory_nodes)},
      {"policy", std::string(core::to_string(config.policy))},
      {"placement", std::string(placement::policy_name(config.placement))},
      {"memory_limit_bytes", config.memory_limit_bytes},
      {"tiered_remote_budget_bytes", config.tiered_remote_budget_bytes},
      {"min_support", config.min_support},
      {"num_transactions", config.workload.num_transactions},
      {"hash_lines", count(config.hash_lines)},
      {"message_block_bytes", config.message_block_bytes},
      {"monitor_interval_s", to_seconds(config.monitor_interval)},
      {"replicate_k", std::int64_t{config.replicate_k}},
      {"remote_determination", config.remote_determination},
      {"crashes", count(config.crashes.size())},
      {"withdrawals", count(config.withdrawals.size())},
      {"corruption_episodes", count(config.corruption.size())},
      {"quarantine_after", std::int64_t{config.quarantine_after}},
      {"integrity_disk_shadow", config.integrity_disk_shadow}};
  run.completed = true;
  run.total_time = result.total_time;
  run.phase_names = result.phase_names;
  for (const PassReport& p : result.passes) {
    run.passes.push_back(obs::PassSection{
        p.k, p.duration, p.phase_time,
        obs::PassSection::Counts{p.candidates_global, p.large_global,
                                 p.max_pagefaults(), p.candidates_per_node,
                                 p.pagefaults_per_node, p.swap_outs_per_node,
                                 p.updates_per_node}});
  }
  run.stats = result.stats;
  run.failover = result.failover;
  run.integrity = result.integrity;
  return run;
}

}  // namespace rms::hpa
