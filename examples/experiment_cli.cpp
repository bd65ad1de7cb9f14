// experiment_cli: the full configuration surface of the system as one
// command-line tool. Every knob the paper's experiments turn (and the
// ablation extensions add) is exposed, so new experiments don't need code
// (one command line, wrapped here):
//
//   $ experiment_cli --scale 0.05 --limit-mb 13 --policy remote-update
//       --memory-nodes 4 --withdraw 0@30s --withdraw 1@45s --csv run.csv
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "hpa/hpa.hpp"
#include "hpa/report.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

using namespace rms;

namespace {

core::SwapPolicy parse_policy(const std::string& name) {
  if (name == "none") return core::SwapPolicy::kNoLimit;
  if (name == "disk") return core::SwapPolicy::kDiskSwap;
  if (name == "remote-swap") return core::SwapPolicy::kRemoteSwap;
  if (name == "remote-update") return core::SwapPolicy::kRemoteUpdate;
  std::fprintf(stderr, "unknown policy '%s'\n", name.c_str());
  std::exit(2);
}

core::EvictionPolicy parse_eviction(const std::string& name) {
  if (name == "lru") return core::EvictionPolicy::kLru;
  if (name == "fifo") return core::EvictionPolicy::kFifo;
  if (name == "random") return core::EvictionPolicy::kRandom;
  std::fprintf(stderr, "unknown eviction policy '%s'\n", name.c_str());
  std::exit(2);
}

// "--withdraw 2@45s": memory node 2 loses its memory at t = 45 s.
hpa::HpaConfig::Withdrawal parse_withdrawal(const std::string& spec) {
  const auto at = spec.find('@');
  RMS_CHECK_MSG(at != std::string::npos, "--withdraw needs idx@seconds");
  hpa::HpaConfig::Withdrawal w;
  w.memory_node_index =
      static_cast<std::size_t>(std::strtoll(spec.c_str(), nullptr, 10));
  w.at = static_cast<Time>(std::strtod(spec.c_str() + at + 1, nullptr) * 1e9);
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(
      argc, argv,
      {{"app-nodes", "application execution nodes (default 8)"},
       {"memory-nodes", "memory-available nodes (default 16)"},
       {"scale", "transaction scale vs the paper's 1M (default 0.05)"},
       {"items", "item universe (default 5000)"},
       {"minsup", "minimum support fraction (default 0.00025)"},
       {"hash-lines", "global candidate hash lines (default 800000)"},
       {"limit-mb", "per-node candidate limit in decimal MB (default: none)"},
       {"policy", "none | disk | remote-swap | remote-update"},
       {"eviction", "lru | fifo | random (default lru)"},
       {"block", "message block bytes (default 4096)"},
       {"monitor-ms", "availability monitor interval (default 3000)"},
       {"max-k", "stop after pass k (default 2)"},
       {"seed", "workload seed"},
       {"withdraw", "idx@seconds: withdraw a memory node mid-run "
                    "(repeatable via comma list)"},
       {"remote-determination", "servers filter sub-threshold entries out "
                                "of end-of-pass fetches (extension)"},
       {"paper-skew", "use the paper's Table-3 partition skew (8 app nodes)"},
       {"profile", "run the per-pass attribution profiler and print the "
                   "time-attribution table"},
       {"csv", "write the per-pass table to this CSV path"}});

  hpa::HpaConfig cfg;
  cfg.app_nodes = static_cast<std::size_t>(flags.get_int("app-nodes", 8));
  cfg.memory_nodes =
      static_cast<std::size_t>(flags.get_int("memory-nodes", 16));
  cfg.workload =
      mining::QuestParams::paper_experiment(flags.get_double("scale", 0.05));
  cfg.workload.num_items =
      static_cast<std::uint32_t>(flags.get_int("items", 5000));
  cfg.workload.seed = static_cast<std::uint64_t>(
      flags.get_int("seed", static_cast<std::int64_t>(cfg.workload.seed)));
  cfg.min_support = flags.get_double("minsup", 0.00025);
  cfg.hash_lines =
      static_cast<std::size_t>(flags.get_int("hash-lines", 800'000));
  cfg.message_block_bytes = flags.get_int("block", 4096);
  cfg.monitor_interval = msec(flags.get_int("monitor-ms", 3000));
  cfg.max_k = static_cast<std::size_t>(flags.get_int("max-k", 2));
  if (flags.has("limit-mb")) {
    cfg.memory_limit_bytes =
        static_cast<std::int64_t>(flags.get_double("limit-mb", 13.0) * 1e6);
    cfg.policy = parse_policy(flags.get("policy", "remote-update"));
  } else {
    cfg.policy = parse_policy(flags.get("policy", "none"));
  }
  cfg.eviction = parse_eviction(flags.get("eviction", "lru"));
  cfg.remote_determination = flags.get_bool("remote-determination", false);
  if (flags.get_bool("paper-skew", false)) {
    cfg.partition_weights = hpa::paper_table3_weights();
  }
  if (flags.has("withdraw")) {
    std::string spec = flags.get("withdraw", "");
    std::size_t start = 0;
    while (start < spec.size()) {
      const std::size_t comma = spec.find(',', start);
      const std::string one =
          spec.substr(start, comma == std::string::npos ? spec.npos
                                                        : comma - start);
      cfg.withdrawals.push_back(parse_withdrawal(one));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }

  // --profile: attach a recorder + profiler pair so the report can render
  // the attribution table (the recorder feeds the profiler at push time).
  obs::TraceRecorder recorder;
  obs::PassProfiler profiler;
  const bool profile = flags.get_bool("profile", false);
  if (profile) {
    recorder.set_profile_hook(&profiler);
    cfg.trace = &recorder;
    cfg.profiler = &profiler;
    profiler.begin_run(hpa::describe(cfg));
  }

  std::printf("running: %s\n", hpa::describe(cfg).c_str());
  const hpa::HpaResult r = hpa::run_hpa(cfg);
  if (profile) profiler.end_run(recorder.dropped());
  hpa::print_report(r, profile ? &profiler.runs().back() : nullptr);

  TablePrinter table("per-pass detail",
                     {"pass", "C", "L", "time [s]", "max faults",
                      "swap-outs", "updates"});
  for (const hpa::PassReport& p : r.passes) {
    std::int64_t swaps = 0, updates = 0;
    for (std::int64_t v : p.swap_outs_per_node) swaps += v;
    for (std::int64_t v : p.updates_per_node) updates += v;
    table.add_row({TablePrinter::integer(static_cast<std::int64_t>(p.k)),
                   TablePrinter::integer(p.candidates_global),
                   TablePrinter::integer(p.large_global),
                   TablePrinter::num(to_seconds(p.duration), 2),
                   TablePrinter::integer(p.max_pagefaults()),
                   TablePrinter::integer(swaps),
                   TablePrinter::integer(updates)});
  }
  const std::string csv = flags.get("csv", "");
  if (!csv.empty() && table.write_csv(csv)) {
    std::printf("(csv written to %s)\n", csv.c_str());
  }

  std::printf("\nkey stats:\n");
  for (const char* key :
       {"store.pagefaults", "store.remote_swap_out", "store.disk_swap_out",
        "server.swap_in", "server.updates_applied", "server.lines_migrated",
        "client.shortage_events", "net.messages", "monitor.broadcasts"}) {
    std::printf("  %-26s %lld\n", key,
                static_cast<long long>(r.stats.counter(key)));
  }
  return 0;
}
