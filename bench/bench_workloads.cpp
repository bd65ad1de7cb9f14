// bench_workloads: run any catalog workload end-to-end with the full
// observability stack (--trace-out / --metrics-out / --json-out /
// --profile-out) and a memory-limit/backend selection.
//
// The HPA benches each reproduce one paper table or figure; this harness is
// the workload-generic smoke driver: `--workload hpa | hash_join |
// hash_aggregate` selects from the runtime catalog (`--list-workloads`
// prints it), and every workload emits the same rmswap.run_artifact/v2
// shape, so tools/check_artifact.py validates all of them. HPA runs go
// through obs::RunObserver; the other workloads assemble the artifact from
// their runtime::PassTiming records directly — same schema, no hpa
// coupling.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "hpa/report.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "workloads/hash_aggregate.hpp"
#include "workloads/hash_join.hpp"

using namespace rms;

namespace {

/// The observability sinks a non-HPA workload run wires up by hand (the
/// same wiring obs::RunObserver does for HPA configs).
struct Sinks {
  std::unique_ptr<obs::TraceRecorder> trace;
  std::unique_ptr<obs::MetricsSampler> metrics;
  std::unique_ptr<obs::PassProfiler> profiler;

  std::string trace_path;
  std::string metrics_path;
  std::string artifact_path;
  std::string profile_path;

  explicit Sinks(const Flags& flags)
      : trace_path(flags.get("trace-out", "")),
        metrics_path(flags.get("metrics-out", "")),
        artifact_path(flags.get("json-out", "")),
        profile_path(flags.get("profile-out", "")) {
    const bool profiling = !artifact_path.empty() || !profile_path.empty();
    if (!trace_path.empty() || profiling) {
      trace = std::make_unique<obs::TraceRecorder>();
    }
    if (profiling) {
      profiler = std::make_unique<obs::PassProfiler>();
      trace->set_profile_hook(profiler.get());
    }
    if (!metrics_path.empty() || !artifact_path.empty()) {
      metrics = std::make_unique<obs::MetricsSampler>();
    }
  }

  void begin_run(const std::string& label) {
    if (trace) trace->begin_run(label);
    if (metrics) metrics->begin_run(label);
    if (profiler) profiler->begin_run(label);
  }
  void end_run() {
    if (profiler) profiler->end_run(trace->dropped());
  }

  bool write(const std::string& artifact_json) const {
    bool ok = true;
    const auto emit = [&ok](const char* what, const std::string& path,
                            bool wrote) {
      if (wrote) {
        std::printf("wrote %s: %s\n", what, path.c_str());
      } else {
        std::fprintf(stderr, "FAILED writing %s: %s\n", what, path.c_str());
        ok = false;
      }
    };
    if (trace && !trace_path.empty()) {
      emit("chrome trace", trace_path, trace->write_chrome_trace(trace_path));
    }
    if (metrics && !metrics_path.empty()) {
      emit("metrics series", metrics_path, metrics->write_json(metrics_path));
    }
    if (!artifact_path.empty()) {
      emit("run artifact", artifact_path,
           obs::write_file(artifact_path, artifact_json));
    }
    if (profiler && !profile_path.empty()) {
      emit("attribution profile", profile_path,
           obs::write_file(profile_path,
                           obs::profile_file_json(profiler->runs())));
    }
    return ok;
  }
};

/// One run of a non-HPA workload as a rmswap.run_artifact/v2 run section:
/// label/workload/config/passes (phase breakdown keyed by the registry) plus
/// the merged stats and, when profiling, the attribution profile.
std::string workload_artifact_json(
    const std::string& name, const std::string& label,
    const std::string& description, Time total_time,
    const std::vector<runtime::PassTiming>& passes,
    const std::vector<std::string>& phase_names, std::int64_t pagefaults,
    bool exact, const StatsRegistry& stats, const Sinks& sinks) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("schema", "rmswap.run_artifact/v2");
  w.key("runs");
  w.begin_array();
  w.begin_object();
  w.kv("label", label);
  w.kv("workload", name);
  w.key("config");
  w.begin_object();
  w.kv("description", description);
  w.end_object();
  w.kv("completed", true);
  w.kv("total_time_s", to_seconds(total_time));
  w.kv("exact", exact);
  w.kv("pagefaults", pagefaults);
  w.key("phase_names");
  w.begin_array();
  for (const std::string& phase : phase_names) w.value(phase);
  w.end_array();
  w.key("passes");
  w.begin_array();
  for (const runtime::PassTiming& p : passes) {
    w.begin_object();
    w.kv("k", static_cast<std::uint64_t>(p.pass));
    w.kv("duration_s", to_seconds(p.duration()));
    if (!p.phase_end.empty()) {
      w.key("phases");
      w.begin_object();
      for (std::size_t i = 0; i < p.phase_end.size(); ++i) {
        w.kv(phase_names[i] + "_s", to_seconds(p.phase_time(i)));
      }
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  obs::stats_json(w, stats);
  // No fault injection in the generic driver (yet): an empty failover
  // section keeps the artifact shape uniform across workloads.
  w.key("failover");
  w.begin_object();
  w.end_object();
  if (sinks.profiler && !sinks.profiler->runs().empty()) {
    w.key("profile");
    obs::profile_json(w, sinks.profiler->runs().back());
  }
  w.end_object();
  w.end_array();
  w.end_object();
  return w.str();
}

/// The cluster-shape and tiered-budget flags every workload takes. An
/// absent flag keeps the workload's own default.
template <typename Config>
void apply_shape_flags(const Flags& flags, Config& cfg) {
  cfg.app_nodes = static_cast<std::size_t>(
      flags.get_int("app-nodes", static_cast<std::int64_t>(cfg.app_nodes)));
  cfg.memory_nodes = static_cast<std::size_t>(flags.get_int(
      "memory-nodes", static_cast<std::int64_t>(cfg.memory_nodes)));
  const double budget_mb = flags.get_double("tiered-budget-mb", -1.0);
  if (budget_mb >= 0) cfg.tiered_remote_budget_bytes = bench::mb(budget_mb);
}

void print_phase_summary(const std::vector<runtime::PassTiming>& passes,
                         const std::vector<std::string>& phase_names) {
  std::vector<std::string> headers = {"pass", "time [s]"};
  for (const std::string& name : phase_names) headers.push_back(name + " [s]");
  TablePrinter t("per-pass phase breakdown", headers);
  for (const runtime::PassTiming& p : passes) {
    std::vector<std::string> row = {
        TablePrinter::integer(static_cast<std::int64_t>(p.pass)),
        TablePrinter::num(to_seconds(p.duration()), 2)};
    for (std::size_t i = 0; i < phase_names.size(); ++i) {
      row.push_back(p.phase_end.empty()
                        ? "-"
                        : TablePrinter::num(to_seconds(p.phase_time(i)), 2));
    }
    t.add_row(row);
  }
  t.print();
}

int run_hpa_workload(const Flags& flags) {
  // A small paper-shaped mining run: the full HPA pipeline (all passes) at
  // a bench-friendly scale, through the standard RunObserver.
  const double scale = flags.get_double("scale", 0.01);
  mining::QuestParams wl = mining::QuestParams::paper_experiment(scale);
  const mining::TransactionDb db = mining::QuestGenerator(wl).generate();

  hpa::HpaConfig cfg;
  apply_shape_flags(flags, cfg);
  cfg.workload = wl;
  cfg.shared_db = &db;
  cfg.min_support = 0.00025;
  cfg.hash_lines = 800'000;
  cfg.max_k = 2;
  const double limit_mb = flags.get_double("limit-mb", -1.0);
  if (limit_mb >= 0) {
    cfg.memory_limit_bytes = bench::mb(limit_mb);
    cfg.policy = bench::backend_policy(flags.get("backend", "remote"));
  }

  auto observer = obs::RunObserver::from_paths(
      {flags.get("trace-out", ""), flags.get("metrics-out", ""),
       flags.get("json-out", ""), flags.get("profile-out", "")});
  const std::string label = bench::label("hpa/%s", hpa::describe(cfg).c_str());
  if (observer) observer->begin_run(cfg, label);
  const hpa::HpaResult r = hpa::run_hpa(cfg);
  if (observer) observer->end_run(r);
  hpa::print_report(r, observer ? observer->last_profile() : nullptr);
  if (observer && !observer->write()) return 1;
  return 0;
}

int run_hash_join_workload(const Flags& flags) {
  Sinks sinks(flags);
  workloads::HashJoinConfig cfg;
  apply_shape_flags(flags, cfg);
  cfg.build_rows = flags.get_int("rows", 40'000);
  cfg.probe_rows = flags.get_int("rows", 40'000);
  cfg.memory_limit_bytes = flags.get_int("limit-kb", 192) * 1000;
  cfg.policy = bench::backend_policy(flags.get("backend", "remote"));
  cfg.trace = sinks.trace.get();
  cfg.metrics = sinks.metrics.get();
  cfg.profiler = sinks.profiler.get();
  const std::string label =
      bench::label("hash_join/%s", core::to_string(cfg.policy));
  sinks.begin_run(label);
  const workloads::HashJoinResult r = workloads::run_hash_join(cfg);
  sinks.end_run();

  std::printf("hash_join (%s): output %llu vs reference %llu (%s), "
              "%.1f virtual s, %lld pagefaults\n",
              core::to_string(cfg.policy),
              static_cast<unsigned long long>(r.output),
              static_cast<unsigned long long>(r.expected),
              r.exact() ? "exact" : "MISMATCH!", to_seconds(r.total_time),
              static_cast<long long>(r.pagefaults));
  print_phase_summary(r.passes, r.phase_names);
  const std::string artifact = workload_artifact_json(
      "hash_join", label,
      bench::label("%lld build x %lld probe rows, limit %lld B/node",
                   static_cast<long long>(cfg.build_rows),
                   static_cast<long long>(cfg.probe_rows),
                   static_cast<long long>(cfg.memory_limit_bytes)),
      r.total_time, r.passes, r.phase_names, r.pagefaults, r.exact(), r.stats,
      sinks);
  if (!sinks.write(artifact)) return 1;
  return r.exact() ? 0 : 1;
}

int run_hash_aggregate_workload(const Flags& flags) {
  Sinks sinks(flags);
  workloads::HashAggregateConfig cfg;
  apply_shape_flags(flags, cfg);
  cfg.workload =
      mining::QuestParams::paper_experiment(flags.get_double("scale", 0.003));
  const double limit_mb = flags.get_double("limit-mb", 0.02);
  if (limit_mb >= 0) {
    cfg.memory_limit_bytes = bench::mb(limit_mb);
    cfg.policy = bench::backend_policy(flags.get("backend", "remote"));
  }
  cfg.validate_invariants = flags.get_bool("validate", false);
  cfg.trace = sinks.trace.get();
  cfg.metrics = sinks.metrics.get();
  cfg.profiler = sinks.profiler.get();
  const std::string label =
      bench::label("hash_aggregate/%s", core::to_string(cfg.policy));
  sinks.begin_run(label);
  const workloads::HashAggregateResult r = workloads::run_hash_aggregate(cfg);
  sinks.end_run();

  std::printf("hash_aggregate (%s): %zu groups (%s), %.1f virtual s, "
              "%lld pagefaults, %lld swap-outs, %lld updates\n",
              core::to_string(cfg.policy), r.groups.size(),
              r.exact ? "exact" : "MISMATCH!", to_seconds(r.total_time),
              static_cast<long long>(r.pagefaults),
              static_cast<long long>(r.swap_outs),
              static_cast<long long>(r.updates_sent));
  print_phase_summary(r.passes, r.phase_names);
  const std::string artifact = workload_artifact_json(
      "hash_aggregate", label,
      bench::label("group-by over D=%lld, limit %lld B/node",
                   static_cast<long long>(cfg.workload.num_transactions),
                   static_cast<long long>(cfg.memory_limit_bytes)),
      r.total_time, r.passes, r.phase_names, r.pagefaults, r.exact, r.stats,
      sinks);
  if (!sinks.write(artifact)) return 1;
  return r.exact ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(
      argc, argv,
      bench::with_workload_flags(bench::with_policy_flags(
          {{"scale", "hpa/hash_aggregate: transaction-count scale"},
           {"rows", "hash_join: rows per side (default 40000)"},
           {"limit-kb", "hash_join: per-node build-table limit (default 192)"},
           {"app-nodes",
            "application execution nodes (default: hpa 8, others 4)"},
           {"memory-nodes",
            "memory-available nodes (default: hpa 16, others 4)"},
           {"validate", "run store invariant checks at phase barriers"},
           {"trace-out", "write a Chrome trace_event JSON here"},
           {"metrics-out", "write per-node gauge time-series JSON here"},
           {"json-out", "write the machine-readable run artifact here"},
           {"profile-out",
            "write the per-pass attribution profile JSON here"}})));
  const std::string name = bench::parse_workload_flag(flags);
  if (name == "hpa") return run_hpa_workload(flags);
  if (name == "hash_join") return run_hash_join_workload(flags);
  if (name == "hash_aggregate") return run_hash_aggregate_workload(flags);
  std::fprintf(stderr, "workload '%s' has no driver\n", name.c_str());
  return 2;
}
