#include "workloads/hash_join.hpp"

#include <memory>
#include <unordered_map>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "core/availability.hpp"
#include "core/hash_line_store.hpp"
#include "core/memory_server.hpp"
#include "obs/metrics.hpp"
#include "runtime/cpu_charger.hpp"
#include "runtime/runner.hpp"
#include "sim/simulation.hpp"

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

class HashJoinWorkload final : public runtime::Workload {
 public:
  explicit HashJoinWorkload(const HashJoinConfig& cfg) : cfg_(cfg) {
    RMS_CHECK(cfg_.app_nodes >= 1);
    RMS_CHECK(cfg_.lines_per_node >= 1);
    RMS_CHECK_MSG(cfg_.memory_limit_bytes < 0 ||
                      cfg_.policy != core::SwapPolicy::kNoLimit,
                  "a memory limit needs a swap policy");
  }

  HashJoinResult run();

  // ---- sched job mode (shared world; see sched/job.hpp) ----
  void launch(const sched::JobEnv& env, std::function<void()> on_done);
  sim::Task<std::int64_t> reclaim(std::int64_t target_bytes);
  std::int64_t donated_bytes() const;
  sched::JobReport harvest();

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
  void check_invariants(std::size_t idx) override {
    if (stores_[idx]) stores_[idx]->check_invariants();
  }

 private:
  // Scheduled jobs execute on world-assigned slot nodes (ext_app_ids_);
  // the single-run world uses the identity layout.
  net::NodeId app_id(std::size_t idx) const {
    return ext_app_ids_.empty() ? static_cast<net::NodeId>(idx)
                                : ext_app_ids_[idx];
  }

  // Key -> (owner node, local line).
  std::pair<std::size_t, core::LineId> place(mining::Item key) const {
    const std::uint64_t h = (key * 0x9e3779b97f4a7c15ULL) >> 16;
    const std::size_t gline = h % (cfg_.lines_per_node * cfg_.app_nodes);
    return {gline % cfg_.app_nodes,
            static_cast<core::LineId>(gline / cfg_.app_nodes)};
  }

  sim::Task<> build(std::size_t idx) {
    cluster::Node& node = cluster_->node(app_id(idx));
    core::HashLineStore& store = *stores_[idx];
    // Per-row CPU is charged in chunks on the owning node with the same
    // CpuCharger the miner's scan loops use (tuple parse on build, hash
    // probe on probe), keeping events proportional to faults, not rows.
    CpuCharger parse(node, node.costs().per_tx_parse);
    const std::vector<PlacedRow>& rows = build_by_node_[idx];
    const auto line_at = [&rows](std::size_t j) { return rows[j].line; };
    store.size_lines(rows.size(), line_at);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      store.prefetch_ahead(i, rows.size(), line_at);
      const PlacedRow& row = rows[i];
      const mining::Itemset entry = make_entry(row.key, row.row_id);
      if (!store.try_insert(row.line, entry)) {
        co_await store.insert(row.line, entry);
      }
      if (parse.add(1)) co_await parse.flush();
    }
    co_await parse.flush();
    store.set_phase(core::HashLineStore::Phase::kCount);
  }

  sim::Task<> probe(std::size_t idx) {
    cluster::Node& node = cluster_->node(app_id(idx));
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

  /// Input generation, partitioning, and the scalar reference — shared by
  /// both entry modes.
  void prepare_inputs();
  /// One store per application node against that node's broker (both
  /// modes; stores precede the runner and live until harvest/teardown).
  void create_stores();

  const HashJoinConfig& cfg_;
  // Single-run mode owns its simulation and world; a scheduled job borrows
  // the shared ones and the owning members stay empty.
  sim::Simulation own_sim_;
  sim::Simulation* sim_ = &own_sim_;
  std::unique_ptr<cluster::Cluster> own_cluster_;
  cluster::Cluster* cluster_ = nullptr;
  std::vector<net::NodeId> ext_app_ids_;  // world slot ids (job mode)
  sched::SlotTable* slots_ = nullptr;
  std::unique_ptr<runtime::PhasedRunner> runner_;  // job mode only
  std::vector<std::unique_ptr<core::MemoryServer>> servers_;
  std::unique_ptr<placement::MemoryBroker> own_broker_;
  std::vector<placement::MemoryBroker*> brokers_;  // one per app node
  std::vector<std::unique_ptr<core::HashLineStore>> stores_;

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

void HashJoinWorkload::create_stores() {
  stores_.resize(cfg_.app_nodes);
  for (std::size_t n = 0; n < cfg_.app_nodes; ++n) {
    core::HashLineStore::Config scfg;
    scfg.num_lines = cfg_.lines_per_node;
    scfg.memory_limit_bytes = cfg_.memory_limit_bytes;
    scfg.policy = cfg_.memory_limit_bytes < 0 ? core::SwapPolicy::kNoLimit
                                              : cfg_.policy;
    scfg.tiered_remote_budget_bytes = cfg_.tiered_remote_budget_bytes;
    scfg.trace = cfg_.trace;
    stores_[n] = std::make_unique<core::HashLineStore>(
        cluster_->node(app_id(n)), scfg, brokers_[n]);
  }
}

HashJoinResult HashJoinWorkload::run() {
  // World construction: application nodes first, then memory-available
  // nodes, one shared broker pre-seeded with their availability (this
  // workload exercises the swap path, not the monitor protocol).
  cluster::ClusterConfig ccfg;
  ccfg.num_nodes = cfg_.app_nodes + cfg_.memory_nodes;
  own_cluster_ = std::make_unique<cluster::Cluster>(*sim_, ccfg);
  cluster_ = own_cluster_.get();
  if (cfg_.profiler != nullptr) {
    for (std::size_t i = 0; i < cluster_->size(); ++i) {
      cluster_->node(static_cast<net::NodeId>(i))
          .set_profile_hook(cfg_.profiler);
    }
  }
  std::vector<net::NodeId> mem_ids;
  for (std::size_t m = 0; m < cfg_.memory_nodes; ++m) {
    const auto id = static_cast<net::NodeId>(cfg_.app_nodes + m);
    mem_ids.push_back(id);
    core::MemoryServer::Config mscfg;
    mscfg.trace = cfg_.trace;
    servers_.push_back(
        std::make_unique<core::MemoryServer>(cluster_->node(id), mscfg));
    sim_->spawn(servers_.back()->serve());
  }
  own_broker_ = std::make_unique<placement::MemoryBroker>(mem_ids);
  for (net::NodeId id : mem_ids) {
    own_broker_->update(core::AvailabilityInfo{id, 32 << 20, 1}, 0);
  }
  brokers_.assign(cfg_.app_nodes, own_broker_.get());
  create_stores();

  if (cfg_.metrics != nullptr) {
    for (std::size_t n = 0; n < cfg_.app_nodes; ++n) {
      core::HashLineStore& s = *stores_[n];
      const auto node = static_cast<std::int32_t>(n);
      cfg_.metrics->add_gauge("resident_bytes", node, [&s] {
        return static_cast<double>(s.resident_bytes());
      });
      cfg_.metrics->add_gauge("lines_remote", node, [&s] {
        return static_cast<double>(s.remote_lines());
      });
      cfg_.metrics->add_gauge("lines_disk", node, [&s] {
        return static_cast<double>(s.disk_lines());
      });
    }
    sim_->spawn(obs::sample_process(*sim_, *cfg_.metrics));
  }

  // Inputs, their per-node partition, and the scalar reference.
  prepare_inputs();

  // One pass of build + probe under the generic phased runner.
  runtime::RunnerConfig rcfg;
  rcfg.participants = cfg_.app_nodes;
  rcfg.first_pass = 1;
  rcfg.max_pass = 1;
  rcfg.validate_invariants = cfg_.validate_invariants;
  rcfg.trace = cfg_.trace;
  runtime::PhasedRunner runner(*sim_, *this, rcfg);
  runner.start();
  sim_->run();
  RMS_CHECK_MSG(runner.finished(), "simulation drained before the join did");

  result_.output = output_;
  result_.total_time = runner.total_time();
  result_.passes = runner.passes();
  result_.phase_names = runner.phases().names();
  for (auto& s : stores_) result_.pagefaults += s->pagefaults();
  for (std::size_t i = 0; i < cluster_->size(); ++i) {
    result_.stats.merge(cluster_->node(static_cast<net::NodeId>(i)).stats());
  }
  result_.stats.merge(cluster_->network().stats());

  // Destroy still-suspended daemon frames (servers) while the cluster
  // objects their locals reference are alive; the gauges registered above
  // capture stores that die with us — drop them (the series stays).
  sim_->shutdown();
  if (cfg_.metrics != nullptr) cfg_.metrics->clear_gauges();
  return result_;
}

// ---------------------------------------------------------------------------
// Scheduled-job mode: run inside a shared sched::World.
// ---------------------------------------------------------------------------

void HashJoinWorkload::launch(const sched::JobEnv& env,
                              std::function<void()> on_done) {
  RMS_CHECK_MSG(cfg_.metrics == nullptr && cfg_.profiler == nullptr,
                "scheduled jobs do not own observability sinks");
  RMS_CHECK(env.sim != nullptr && env.cluster != nullptr);
  RMS_CHECK_MSG(env.app_nodes.size() == cfg_.app_nodes,
                "slot lease must match the job's participant count");
  RMS_CHECK(env.brokers.size() == cfg_.app_nodes);
  sim_ = env.sim;
  cluster_ = env.cluster;
  ext_app_ids_ = env.app_nodes;
  brokers_ = env.brokers;
  slots_ = env.slots;

  create_stores();
  prepare_inputs();
  if (slots_ != nullptr) {
    for (std::size_t i = 0; i < cfg_.app_nodes; ++i) {
      slots_->bind(app_id(i), [this, i]() -> core::HashLineStore* {
        return stores_[i].get();
      });
    }
  }

  runtime::RunnerConfig rcfg;
  rcfg.participants = cfg_.app_nodes;
  rcfg.first_pass = 1;
  rcfg.max_pass = 1;
  rcfg.validate_invariants = cfg_.validate_invariants;
  rcfg.trace = cfg_.trace;
  rcfg.tracks.reserve(cfg_.app_nodes);
  for (net::NodeId id : ext_app_ids_) {
    rcfg.tracks.push_back(static_cast<std::int32_t>(id));
  }
  rcfg.on_finished = std::move(on_done);
  runner_ = std::make_unique<runtime::PhasedRunner>(*sim_, *this, rcfg);
  runner_->start();
}

sim::Task<std::int64_t> HashJoinWorkload::reclaim(std::int64_t target_bytes) {
  std::int64_t freed = 0;
  for (auto& store : stores_) {
    if (freed >= target_bytes) break;
    if (store) freed += co_await store->reclaim(target_bytes - freed);
  }
  co_return freed;
}

std::int64_t HashJoinWorkload::donated_bytes() const {
  std::int64_t sum = 0;
  for (const auto& store : stores_) {
    if (store) sum += store->remote_held_bytes();
  }
  return sum;
}

sched::JobReport HashJoinWorkload::harvest() {
  sched::JobReport rep;
  rep.completed = runner_ != nullptr && runner_->finished();
  if (runner_ != nullptr) {
    rep.total_time = runner_->total_time();
    rep.passes = runner_->passes();
    rep.phase_names = runner_->phases().names();
  }
  for (const auto& store : stores_) {
    if (!store) continue;
    rep.pagefaults += store->pagefaults();
    rep.swap_outs += store->swap_outs();
    rep.updates_sent += store->updates_sent();
    rep.degraded_evictions += store->failover().degraded_evictions;
  }
  if (rep.completed) {
    result_.output = output_;
    rep.exact = result_.output == result_.expected;
    rep.summary = "output=" + std::to_string(result_.output);
  }
  if (slots_ != nullptr) {
    for (std::size_t i = 0; i < cfg_.app_nodes; ++i) {
      slots_->unbind(app_id(i));
    }
  }
  return rep;
}

/// Owns the config copy and the workload it parameterizes.
class HashJoinJob final : public sched::JobRuntime {
 public:
  explicit HashJoinJob(HashJoinConfig cfg)
      : cfg_(std::move(cfg)), workload_(cfg_) {}

  const char* workload_name() const override { return "hash_join"; }
  void launch(const sched::JobEnv& env,
              std::function<void()> on_done) override {
    workload_.launch(env, std::move(on_done));
  }
  sim::Task<std::int64_t> reclaim(std::int64_t target_bytes) override {
    return workload_.reclaim(target_bytes);
  }
  std::int64_t donated_bytes() const override {
    return workload_.donated_bytes();
  }
  sched::JobReport harvest() override { return workload_.harvest(); }

 private:
  HashJoinConfig cfg_;
  HashJoinWorkload workload_;
};

}  // namespace

HashJoinResult run_hash_join(const HashJoinConfig& config) {
  HashJoinWorkload workload(config);
  return workload.run();
}

sched::JobRuntimePtr make_hash_join_job(HashJoinConfig config) {
  return std::make_unique<HashJoinJob>(std::move(config));
}

}  // namespace rms::workloads
