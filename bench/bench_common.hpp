// Shared scaffolding for the table/figure reproduction harnesses.
//
// Every bench binary reproduces one table or figure of the paper on the
// simulated cluster. The workload is the paper's §5.1 experiment: 5,000
// items, average transaction size 10, and a minimum support calibrated so
// |L1| ~ 3122, which makes the pass-2 candidate count match the paper's
// 4,871,881 (and the per-node candidate memory its 14-15 MB) independent of
// the transaction-count scale.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "hpa/hpa.hpp"
#include "hpa/report.hpp"
#include "mining/generator.hpp"
#include "obs/artifact.hpp"
#include "runtime/registry.hpp"
#include "sched/arrivals.hpp"

namespace rms::bench {

struct ExperimentEnv {
  Flags flags;
  double scale;
  mining::TransactionDb db;
  hpa::HpaConfig base;
  /// Non-null when any of --trace-out / --metrics-out / --json-out /
  /// --profile-out was passed; owns the sinks for the process.
  std::unique_ptr<obs::RunObserver> observer;

  explicit ExperimentEnv(int argc, const char* const* argv,
                         std::map<std::string, std::string> extra_flags = {});

  /// A copy of the base configuration (shared db, paper parameters).
  hpa::HpaConfig config() const { return base; }

  /// Run one configuration under the observer (when enabled): opens a run
  /// section labelled `label`, stamps the sinks into `cfg`, and records the
  /// result's section for the run artifact. With no observer this is
  /// exactly `hpa::run_hpa(cfg)`.
  hpa::HpaResult run(hpa::HpaConfig cfg, const std::string& label) const {
    if (observer) observer->begin_run(cfg, label);
    hpa::HpaResult result = hpa::run_hpa(cfg);
    if (observer) observer->end_run(hpa::run_section(cfg, result));
    return result;
  }

  /// Write the table as CSV when --csv was passed; always print to stdout.
  /// Also emits the observer's files when enabled.
  void finish(const TablePrinter& table) const;
};

/// The RunObserver for --trace-out / --metrics-out / --json-out /
/// --profile-out; null when none was passed.
inline std::unique_ptr<obs::RunObserver> make_observer(const Flags& flags) {
  return obs::RunObserver::from_paths(
      {flags.get("trace-out", ""), flags.get("metrics-out", ""),
       flags.get("json-out", ""), flags.get("profile-out", "")});
}

// ---- shared flag-value rejection ------------------------------------------
//
// Every enumerated flag (--workload, --placement, --backend,
// --arrival-trace) rejects an unknown value the same way: exit 2 with a
// "choose one of" listing built from the owning catalog, so the valid set
// never drifts from the code.

/// " | "-joined canonical names of every placement policy.
inline std::string placement_names() {
  std::string out;
  for (placement::PolicyKind kind : placement::all_policies()) {
    if (!out.empty()) out += " | ";
    out += placement::policy_name(kind);
  }
  return out;
}

/// " | "-joined canonical names of every arrival-trace kind.
inline std::string arrival_trace_names() {
  std::string out;
  for (sched::ArrivalTrace trace : sched::all_arrival_traces()) {
    if (!out.empty()) out += " | ";
    out += sched::arrival_trace_name(trace);
  }
  return out;
}

/// Uniform unknown-value rejection:
///   unknown --<flag> '<value>' (choose one of: a | b | c)
/// then exit 2.
[[noreturn]] inline void reject_flag_value(const char* flag,
                                           const std::string& value,
                                           const std::string& choices) {
  std::fprintf(stderr, "unknown --%s '%s' (choose one of: %s)\n", flag,
               value.c_str(), choices.c_str());
  std::exit(2);
}

inline std::map<std::string, std::string> with_common_flags(
    std::map<std::string, std::string> extra) {
  extra.emplace("scale",
                "transaction-count scale vs the paper's 1M (default 0.1)");
  extra.emplace("app-nodes", "application execution nodes (default 8)");
  extra.emplace("memory-nodes", "maximum memory-available nodes (default 16)");
  extra.emplace("csv", "write results to this CSV path");
  extra.emplace("seed", "workload seed (default: paper experiment seed)");
  extra.emplace("flat",
                "use uniform candidate partitioning instead of the paper's "
                "observed Table-3 skew");
  extra.emplace("rpc-window",
                "transport sliding-window size for swap/migration RPCs "
                "(default 1: the paper's synchronous behaviour)");
  extra.emplace("placement",
                "swap-destination policy: " + placement_names() +
                    " (default paper-rr: the paper's heuristic)");
  extra.emplace("corrupt-rate",
                "payload-corruption injection: per-message bit-flip "
                "probability on the wire (default 0: no injection)");
  extra.emplace("corrupt-at-ms",
                "corruption episode start, virtual ms (default 500)");
  extra.emplace("corrupt-for-ms",
                "corruption episode duration, virtual ms (default 120000)");
  extra.emplace("trace-out",
                "write a Chrome trace_event JSON (chrome://tracing) here");
  extra.emplace("metrics-out", "write per-node gauge time-series JSON here");
  extra.emplace("json-out", "write the machine-readable run artifact here");
  extra.emplace("profile-out",
                "write the per-pass attribution profile JSON here");
  return extra;
}

inline ExperimentEnv::ExperimentEnv(
    int argc, const char* const* argv,
    std::map<std::string, std::string> extra_flags)
    : flags(argc, argv, with_common_flags(std::move(extra_flags))),
      scale(flags.get_double("scale", 0.1)) {
  mining::QuestParams wl = mining::QuestParams::paper_experiment(scale);
  wl.seed = static_cast<std::uint64_t>(
      flags.get_int("seed", static_cast<std::int64_t>(wl.seed)));
  std::fprintf(stderr, "[bench] generating workload: D=%lld, %u items...\n",
               static_cast<long long>(wl.num_transactions), wl.num_items);
  db = mining::QuestGenerator(wl).generate();

  base.app_nodes = static_cast<std::size_t>(flags.get_int("app-nodes", 8));
  base.memory_nodes =
      static_cast<std::size_t>(flags.get_int("memory-nodes", 16));
  base.workload = wl;
  base.shared_db = &db;
  // Calibrated so |L1| ~ 3122 => C2 ~ 4.87M (see DESIGN.md §2): 0.025% of
  // the transactions.
  base.min_support = 0.00025;
  base.hash_lines = 800'000;
  base.message_block_bytes = 4096;  // §5.1
  base.io_block_bytes = 65536;      // §5.1
  // The paper's evaluation reports pass-2 execution time; stop after it.
  base.max_k = 2;
  // Reproduce the paper's observed partition skew (Table 3) unless --flat:
  // the busiest node's 15.4 MB of candidates is what keeps the 15 MB limit
  // swapping in Figures 3-5.
  if (!flags.get_bool("flat", false) && base.app_nodes == 8) {
    base.partition_weights = hpa::paper_table3_weights();
  }
  base.rpc_window = static_cast<int>(flags.get_int("rpc-window", 1));

  const std::string placement_name = flags.get("placement", "paper-rr");
  if (const auto kind = placement::parse_policy(placement_name)) {
    base.placement = *kind;
  } else {
    reject_flag_value("placement", placement_name, placement_names());
  }

  // Optional wire-corruption injection, for chaos benches and the
  // corruption-seeded determinism replay in CI. Self-repair (checksums +
  // replicas) keeps the mined result exact; the artifact's integrity block
  // records what was detected and repaired.
  const double corrupt_rate = flags.get_double("corrupt-rate", 0.0);
  if (corrupt_rate > 0.0) {
    hpa::HpaConfig::Corruption ep;
    ep.at = msec(flags.get_int("corrupt-at-ms", 500));
    ep.duration = msec(flags.get_int("corrupt-for-ms", 120000));
    ep.flip_rate = corrupt_rate;
    base.corruption.push_back(ep);
  }

  observer = make_observer(flags);
}

inline void ExperimentEnv::finish(const TablePrinter& table) const {
  table.print();
  const std::string path = flags.get("csv", "");
  if (!path.empty()) {
    if (table.write_csv(path)) {
      std::printf("(csv written to %s)\n", path.c_str());
    } else {
      std::fprintf(stderr, "could not write csv to %s\n", path.c_str());
    }
  }
  if (observer) observer->write();
}

/// printf-style run-section label for the observer artifacts, e.g.
/// `bench::label("remote_swap/%.0fMB", limit)`.
inline std::string label(const char* fmt, ...) {
  char buf[128];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

/// Megabyte limits as the paper writes them (x-axis of Figures 3-5). The
/// paper's accounting is decimal: 641,243 candidates x 24 B = 15.39 "MB" on
/// the busiest node, which is why its 15 MB limit still swaps there.
inline std::int64_t mb(double v) {
  return static_cast<std::int64_t>(v * 1e6);
}

/// Seconds with one decimal, the paper's reporting precision.
inline std::string secs(Time t) { return TablePrinter::num(to_seconds(t), 1); }

// ---- shared policy/limit flag parsing -------------------------------------
//
// The ablation benches all take the same memory-limit flag, and the
// single-policy ones additionally select their swap backend; the helpers
// below replace the per-bench copies of that parsing.

/// Register the --limit-mb help text (benches that sweep policies
/// themselves use just this).
inline std::map<std::string, std::string> with_limit_flag(
    std::map<std::string, std::string> extra = {}) {
  extra.emplace("limit-mb", "per-node memory usage limit in MB");
  return extra;
}

/// Register --backend / --limit-mb / --tiered-budget-mb help text for the
/// single-policy benches.
inline std::map<std::string, std::string> with_policy_flags(
    std::map<std::string, std::string> extra = {}) {
  extra.emplace("backend", "swap backend: disk | remote | update | tiered");
  extra.emplace("tiered-budget-mb",
                "tiered backend: per-node remote-memory budget in MB "
                "(default: unlimited)");
  return with_limit_flag(std::move(extra));
}

/// Map a --backend value to the SwapPolicy it selects.
inline core::SwapPolicy backend_policy(const std::string& name) {
  if (name == "disk") return core::SwapPolicy::kDiskSwap;
  if (name == "remote") return core::SwapPolicy::kRemoteSwap;
  if (name == "update") return core::SwapPolicy::kRemoteUpdate;
  if (name == "tiered") return core::SwapPolicy::kTiered;
  reject_flag_value("backend", name, "disk | remote | update | tiered");
}

/// The parsed backend/limit selection of a single-policy bench.
struct PolicyFlags {
  core::SwapPolicy policy = core::SwapPolicy::kRemoteUpdate;
  double limit_mb = 13.0;
  double tiered_budget_mb = -1.0;  // < 0: unlimited

  /// Stamp the selection onto a run configuration.
  void apply(hpa::HpaConfig& cfg) const {
    cfg.policy = policy;
    cfg.memory_limit_bytes = mb(limit_mb);
    cfg.tiered_remote_budget_bytes =
        tiered_budget_mb < 0 ? -1 : mb(tiered_budget_mb);
  }
};

/// Parse the flags registered by with_policy_flags, with per-bench defaults.
inline PolicyFlags parse_policy_flags(const Flags& flags,
                                      core::SwapPolicy default_policy,
                                      double default_limit_mb = 13.0) {
  PolicyFlags p;
  p.policy = flags.has("backend") ? backend_policy(flags.get("backend", ""))
                                  : default_policy;
  p.limit_mb = flags.get_double("limit-mb", default_limit_mb);
  p.tiered_budget_mb = flags.get_double("tiered-budget-mb", -1.0);
  return p;
}

// ---- shared workload selection --------------------------------------------
//
// Multi-workload benches select from the runtime workload catalog the same
// way the single-policy benches select their backend.

/// Register --workload / --list-workloads help text.
inline std::map<std::string, std::string> with_workload_flags(
    std::map<std::string, std::string> extra = {}) {
  extra.emplace("workload",
                "workload to run: " + runtime::workload_names() +
                    " (default hpa)");
  extra.emplace("list-workloads", "print the workload catalog and exit");
  return extra;
}

/// Resolve the flags registered by with_workload_flags to a catalog name.
/// --list-workloads prints the catalog and exits 0; an unknown name exits 2
/// with a friendly error naming the valid workloads.
inline std::string parse_workload_flag(const Flags& flags,
                                       const std::string& default_name =
                                           "hpa") {
  if (flags.get_bool("list-workloads", false)) {
    for (const runtime::WorkloadInfo& info : runtime::workload_catalog()) {
      std::printf("%-16s %s\n", info.name.c_str(), info.description.c_str());
    }
    std::exit(0);
  }
  const std::string name = flags.get("workload", default_name);
  if (!runtime::find_workload(name)) {
    reject_flag_value("workload", name, runtime::workload_names());
  }
  return name;
}

// ---- shared arrival-trace selection ---------------------------------------
//
// The multi-tenant bench selects its job arrival trace the same way the
// other benches select their backend or workload.

/// Register --arrival-trace / --arrival-mean-ms / --arrival-seed help text.
inline std::map<std::string, std::string> with_arrival_flags(
    std::map<std::string, std::string> extra = {}) {
  extra.emplace("arrival-trace",
                "job arrival trace: " + arrival_trace_names() +
                    " (default fixed: the specs' own schedule)");
  extra.emplace("arrival-mean-ms",
                "poisson trace: mean interarrival in virtual ms "
                "(default 2000)");
  extra.emplace("arrival-seed", "poisson trace: arrival RNG seed (default 7)");
  return extra;
}

/// Resolve --arrival-trace; an unknown value exits 2 with the catalog
/// listing, like every other enumerated flag.
inline sched::ArrivalTrace parse_arrival_trace_flag(const Flags& flags) {
  const std::string name = flags.get("arrival-trace", "fixed");
  if (const auto trace = sched::parse_arrival_trace(name)) return *trace;
  reject_flag_value("arrival-trace", name, arrival_trace_names());
}

}  // namespace rms::bench
