// bench_workloads: run any catalog workload end-to-end with the full
// observability stack (--trace-out / --metrics-out / --json-out /
// --profile-out) and a memory-limit/backend selection.
//
// The HPA benches each reproduce one paper table or figure; this harness is
// the workload-generic smoke driver: `--workload hpa | hash_join |
// hash_aggregate` selects from the runtime catalog (`--list-workloads`
// prints it), every workload takes the same flag set, and every run goes
// through obs::RunObserver, so each emits the same rmswap.run_artifact/v2
// shape and tools/check_artifact.py validates all of them.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "sched/job.hpp"
#include "workloads/hash_aggregate.hpp"
#include "workloads/hash_join.hpp"

using namespace rms;

namespace {

/// The flags every workload takes: cluster shape, memory limit and swap
/// backend, tiered budget, and --validate. An absent flag keeps the
/// workload's default; a negative limit means none.
void apply_common_flags(const Flags& flags, double default_limit_mb,
                        sched::PhasedConfig& cfg) {
  cfg.app_nodes = static_cast<std::size_t>(
      flags.get_int("app-nodes", static_cast<std::int64_t>(cfg.app_nodes)));
  cfg.memory_nodes = static_cast<std::size_t>(flags.get_int(
      "memory-nodes", static_cast<std::int64_t>(cfg.memory_nodes)));
  const double limit_mb = flags.get_double("limit-mb", default_limit_mb);
  cfg.memory_limit_bytes = limit_mb < 0 ? -1 : bench::mb(limit_mb);
  cfg.policy = limit_mb < 0
                   ? core::SwapPolicy::kNoLimit
                   : bench::backend_policy(flags.get("backend", "remote"));
  const double budget_mb = flags.get_double("tiered-budget-mb", -1.0);
  if (budget_mb >= 0) cfg.tiered_remote_budget_bytes = bench::mb(budget_mb);
  cfg.validate_invariants = flags.get_bool("validate", false);
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

int run_hpa_workload(const Flags& flags, obs::RunObserver* observer) {
  // A small paper-shaped mining run: the full HPA pipeline (all passes) at
  // a bench-friendly scale.
  const double scale = flags.get_double("scale", 0.01);
  mining::QuestParams wl = mining::QuestParams::paper_experiment(scale);
  const mining::TransactionDb db = mining::QuestGenerator(wl).generate();

  hpa::HpaConfig cfg;
  apply_common_flags(flags, -1.0, cfg);
  cfg.workload = wl;
  cfg.shared_db = &db;
  cfg.min_support = 0.00025;
  cfg.hash_lines = 800'000;
  cfg.max_k = 2;

  const std::string label = bench::label("hpa/%s", hpa::describe(cfg).c_str());
  if (observer) observer->begin_run(cfg, label);
  const hpa::HpaResult r = hpa::run_hpa(cfg);
  if (observer) observer->end_run(hpa::run_section(cfg, r));
  hpa::print_report(r, observer ? observer->last_profile() : nullptr);
  return 0;
}

int run_hash_join_workload(const Flags& flags, obs::RunObserver* observer) {
  workloads::HashJoinConfig cfg;
  apply_common_flags(flags, 0.192, cfg);
  cfg.build_rows = flags.get_int("rows", 40'000);
  cfg.probe_rows = flags.get_int("rows", 40'000);
  const std::string label =
      bench::label("hash_join/%s", core::to_string(cfg.policy));
  if (observer) observer->begin_run(cfg, label);
  const workloads::HashJoinResult r = workloads::run_hash_join(cfg);
  if (observer) {
    obs::RunSection run = sched::phased_run_section("hash_join", r);
    run.description =
        bench::label("%lld build x %lld probe rows, limit %lld B/node",
                     static_cast<long long>(cfg.build_rows),
                     static_cast<long long>(cfg.probe_rows),
                     static_cast<long long>(cfg.memory_limit_bytes));
    run.exact = r.exact();
    observer->end_run(std::move(run));
  }

  std::printf("hash_join (%s): output %llu vs reference %llu (%s), "
              "%.1f virtual s, %lld pagefaults\n",
              core::to_string(cfg.policy),
              static_cast<unsigned long long>(r.output),
              static_cast<unsigned long long>(r.expected),
              r.exact() ? "exact" : "MISMATCH!", to_seconds(r.total_time),
              static_cast<long long>(r.pagefaults));
  print_phase_summary(r.passes, r.phase_names);
  return r.exact() ? 0 : 1;
}

int run_hash_aggregate_workload(const Flags& flags,
                                obs::RunObserver* observer) {
  workloads::HashAggregateConfig cfg;
  apply_common_flags(flags, 0.02, cfg);
  cfg.workload =
      mining::QuestParams::paper_experiment(flags.get_double("scale", 0.003));
  const std::string label =
      bench::label("hash_aggregate/%s", core::to_string(cfg.policy));
  if (observer) observer->begin_run(cfg, label);
  const workloads::HashAggregateResult r = workloads::run_hash_aggregate(cfg);
  if (observer) {
    obs::RunSection run = sched::phased_run_section("hash_aggregate", r);
    run.description =
        bench::label("group-by over D=%lld, limit %lld B/node",
                     static_cast<long long>(cfg.workload.num_transactions),
                     static_cast<long long>(cfg.memory_limit_bytes));
    run.exact = r.exact;
    observer->end_run(std::move(run));
  }

  std::printf("hash_aggregate (%s): %zu groups (%s), %.1f virtual s, "
              "%lld pagefaults, %lld swap-outs, %lld updates\n",
              core::to_string(cfg.policy), r.groups.size(),
              r.exact ? "exact" : "MISMATCH!", to_seconds(r.total_time),
              static_cast<long long>(r.pagefaults),
              static_cast<long long>(r.swap_outs),
              static_cast<long long>(r.updates_sent));
  print_phase_summary(r.passes, r.phase_names);
  return r.exact ? 0 : 1;
}

int run_workload(const std::string& name, const Flags& flags,
                 obs::RunObserver* observer) {
  if (name == "hpa") return run_hpa_workload(flags, observer);
  if (name == "hash_join") return run_hash_join_workload(flags, observer);
  if (name == "hash_aggregate") {
    return run_hash_aggregate_workload(flags, observer);
  }
  std::fprintf(stderr, "workload '%s' has no case in bench_workloads\n",
               name.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(
      argc, argv,
      bench::with_workload_flags(bench::with_policy_flags(
          {{"scale", "hpa/hash_aggregate: transaction-count scale"},
           {"rows", "hash_join: rows per side (default 40000)"},
           {"limit-mb",
            "per-node memory limit in MB (default: hpa none, hash_join "
            "0.192, hash_aggregate 0.02)"},
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
  const std::unique_ptr<obs::RunObserver> observer =
      bench::make_observer(flags);
  const int rc = run_workload(name, flags, observer.get());
  if (observer && !observer->write()) return 1;
  return rc;
}
