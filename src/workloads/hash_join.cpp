#include "workloads/hash_join.hpp"

#include <memory>
#include <unordered_map>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "core/hash_line_store.hpp"
#include "runtime/cpu_charger.hpp"
#include "sched/data_path.hpp"
#include "sched/world.hpp"

namespace rms::workloads {
namespace {

using runtime::CpuCharger;

struct Row {
  mining::Item key = 0;
  std::uint32_t row_id = 0;
};

std::vector<Row> make_rows(std::int64_t n, std::uint32_t keys,
                           std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<Row> rows;
  rows.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    // Zipf-ish skew: a quarter of the rows hit a hot tenth of the keys.
    const mining::Item key = rng.bernoulli(0.25)
                                 ? rng.below(keys / 10 + 1)
                                 : rng.below(keys);
    rows.push_back(Row{key, static_cast<std::uint32_t>(i)});
  }
  return rows;
}

// Build-table entry for one R row: {join key, tagged row id}. A plain
// function because GCC 12 miscompiles initializer-list construction inside
// coroutines ("array used as initializer").
mining::Itemset make_entry(mining::Item key, std::uint32_t row_id) {
  mining::Itemset s;
  s.push_back(key);
  s.push_back(1'000'000u + row_id);
  return s;
}

class HashJoinWorkload final : public sched::PhasedJob {
 public:
  explicit HashJoinWorkload(HashJoinConfig cfg)
      : PhasedJob(cfg), cfg_(std::move(cfg)) {
    RMS_CHECK(cfg_.lines_per_node >= 1);
  }

  /// Join alone on a single-job world.
  HashJoinResult run();

  // ---- sched::JobRuntime ----
  const char* workload_name() const override { return "hash_join"; }
  void launch(const sched::JobEnv& env,
              std::function<void()> on_done) override;

  // ---- runtime::Workload ----
  void register_phases(runtime::PhaseRegistry& phases) override {
    RMS_CHECK(phases.add("build") == kJoinBuildPhase);
    RMS_CHECK(phases.add("probe") == kJoinProbePhase);
  }
  bool done(std::size_t /*pass*/) const override { return false; }
  sim::Task<> run_phase(std::size_t idx, runtime::PhaseId phase,
                        std::size_t pass) override {
    switch (phase) {
      case kJoinBuildPhase:
        co_await build(idx);
        break;
      case kJoinProbePhase:
        co_await probe(idx);
        break;
      default:
        RMS_CHECK(false);
    }
    (void)pass;
  }

 private:
  void fill_report(sched::JobReport& rep) override;

  // Key -> (owner node, local line).
  std::pair<std::size_t, core::LineId> place(mining::Item key) const {
    const std::uint64_t h = (key * 0x9e3779b97f4a7c15ULL) >> 16;
    const std::size_t gline = h % (cfg_.lines_per_node * cfg_.app_nodes);
    return {gline % cfg_.app_nodes,
            static_cast<core::LineId>(gline / cfg_.app_nodes)};
  }

  sim::Task<> build(std::size_t idx) {
    cluster::Node& node = app_node(idx);
    // Per-row CPU is charged in chunks on the owning node, like every
    // workload loop (tuple parse on build, hash probe on probe), keeping
    // events proportional to faults, not rows.
    const std::vector<PlacedRow>& rows = build_by_node_[idx];
    co_await sched::build_lines(
        node, *stores_[idx], rows.size(), node.costs().per_tx_parse,
        [&rows](std::size_t j) { return rows[j].line; },
        [&rows](std::size_t j) {
          return make_entry(rows[j].key, rows[j].row_id);
        });
    stores_[idx]->set_phase(core::HashLineStore::Phase::kCount);
  }

  sim::Task<> probe(std::size_t idx) {
    cluster::Node& node = app_node(idx);
    core::HashLineStore& store = *stores_[idx];
    CpuCharger lookup(node, node.costs().per_probe);
    const std::vector<PlacedRow>& rows = probe_by_node_[idx];
    const auto line_at = [&rows](std::size_t j) { return rows[j].line; };
    for (std::size_t i = 0; i < rows.size(); ++i) {
      store.prefetch_ahead(i, rows.size(), line_at);
      const PlacedRow& row = rows[i];
      if (const auto matches = store.try_count_matches(row.line, row.key)) {
        output_ += *matches;
      } else {
        output_ += co_await store.count_matches(row.line, row.key);
      }
      if (lookup.add(1)) co_await lookup.flush();
    }
    co_await lookup.flush();
  }

  struct PlacedRow {
    core::LineId line = 0;
    mining::Item key = 0;
    std::uint32_t row_id = 0;
  };

  /// Input generation, partitioning, and the scalar reference.
  void prepare_inputs();

  const HashJoinConfig cfg_;

  std::vector<std::vector<PlacedRow>> build_by_node_;
  std::vector<std::vector<PlacedRow>> probe_by_node_;
  std::uint64_t output_ = 0;
  HashJoinResult result_;
};

void HashJoinWorkload::prepare_inputs() {
  const std::vector<Row> build_rows =
      make_rows(cfg_.build_rows, cfg_.keys, cfg_.build_seed);
  const std::vector<Row> probe_rows =
      make_rows(cfg_.probe_rows, cfg_.keys, cfg_.probe_seed);
  build_by_node_.resize(cfg_.app_nodes);
  probe_by_node_.resize(cfg_.app_nodes);
  for (const Row& r : build_rows) {
    const auto placed = place(r.key);
    build_by_node_[placed.first].push_back(
        PlacedRow{placed.second, r.key, r.row_id});
  }
  for (const Row& r : probe_rows) {
    const auto placed = place(r.key);
    probe_by_node_[placed.first].push_back(
        PlacedRow{placed.second, r.key, r.row_id});
  }
  std::unordered_map<mining::Item, std::uint64_t> ref_counts;
  for (const Row& r : build_rows) ++ref_counts[r.key];
  for (const Row& r : probe_rows) {
    const auto it = ref_counts.find(r.key);
    if (it != ref_counts.end()) result_.expected += it->second;
  }
}

void HashJoinWorkload::launch(const sched::JobEnv& env,
                              std::function<void()> on_done) {
  attach(env);
  // One store per application node; they precede the runner and live until
  // the job is destroyed.
  for (std::size_t n = 0; n < cfg_.app_nodes; ++n) {
    create_store(n, store_config(cfg_.lines_per_node));
  }
  // Inputs, their per-node partition, and the scalar reference.
  prepare_inputs();
  // One pass of build + probe, with no warmup: the join starts before the
  // first availability broadcasts land.
  start_runner(1, 1, 0, std::move(on_done));
}

HashJoinResult HashJoinWorkload::run() {
  static_cast<sched::PhasedResult&>(result_) = run_standalone({});
  result_.output = output_;
  return std::move(result_);
}

void HashJoinWorkload::fill_report(sched::JobReport& rep) {
  if (rep.completed) {
    result_.output = output_;
    rep.exact = result_.output == result_.expected;
    rep.summary = "output=" + std::to_string(result_.output);
  }
}

}  // namespace

HashJoinResult run_hash_join(const HashJoinConfig& config) {
  return HashJoinWorkload(config).run();
}

sched::JobRuntimePtr make_hash_join_job(HashJoinConfig config) {
  RMS_CHECK_MSG(config.metrics == nullptr && config.profiler == nullptr,
                "scheduled jobs do not own observability sinks");
  return std::make_unique<HashJoinWorkload>(std::move(config));
}

}  // namespace rms::workloads
