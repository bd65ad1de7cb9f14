#include "workloads/hash_aggregate.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "cluster/cluster.hpp"
#include "core/hash_line_store.hpp"
#include "sched/data_path.hpp"
#include "sched/world.hpp"
#include "transport/tags.hpp"
#include "transport/transport.hpp"

namespace rms::workloads {
namespace {

using cluster::Node;
using mining::Itemset;
using sched::shuffle_key;

/// Collect-phase payload: one node's owned (item, count) groups.
struct AggGroups {
  std::vector<mining::CountedItemset> groups;
};

class HashAggregateWorkload final : public sched::PhasedJob {
 public:
  explicit HashAggregateWorkload(HashAggregateConfig cfg)
      : PhasedJob(cfg), cfg_(std::move(cfg)) {
    RMS_CHECK(cfg_.hash_lines >= cfg_.app_nodes);
  }

  /// Aggregate alone on a single-job world.
  HashAggregateResult run();

  // ---- sched::JobRuntime ----
  const char* workload_name() const override { return "hash_aggregate"; }
  void launch(const sched::JobEnv& env,
              std::function<void()> on_done) override;

  // ---- runtime::Workload ----
  void register_phases(runtime::PhaseRegistry& phases) override {
    RMS_CHECK(phases.add("build") == kAggBuildPhase);
    RMS_CHECK(phases.add("scan") == kAggScanPhase);
    RMS_CHECK(phases.add("collect") == kAggCollectPhase);
  }
  bool done(std::size_t /*pass*/) const override { return false; }
  sim::Task<> run_phase(std::size_t idx, runtime::PhaseId phase,
                        std::size_t pass) override {
    switch (phase) {
      case kAggBuildPhase:
        co_await build(idx);
        break;
      case kAggScanPhase:
        co_await scan(idx);
        break;
      case kAggCollectPhase:
        co_await collect(idx);
        break;
      default:
        RMS_CHECK(false);
    }
    (void)pass;
  }

 private:
  void fill_report(sched::JobReport& rep) override;

  // ---- partition helpers (uniform: line mod app_nodes) ----
  /// A group key's (owner participant, local line).
  std::pair<std::size_t, core::LineId> place(const Itemset& key) const {
    const auto gline = static_cast<std::size_t>(key.hash() % cfg_.hash_lines);
    return {gline % cfg_.app_nodes,
            static_cast<core::LineId>(gline / cfg_.app_nodes)};
  }
  std::size_t local_line_count(std::size_t idx) const {
    return (cfg_.hash_lines + cfg_.app_nodes - 1 - idx) / cfg_.app_nodes;
  }

  sim::Task<> build(std::size_t idx);
  sim::Task<> scan(std::size_t idx);
  sim::Task<> collect(std::size_t idx);
  /// Database, partition and group-key preparation.
  void prepare_inputs();
  /// result_.exact: compare result_.groups to a scalar one-pass reference.
  void check_exactness();

  const HashAggregateConfig cfg_;

  mining::TransactionDb generated_db_;
  const mining::TransactionDb* db_ = nullptr;
  std::vector<mining::TransactionDb> partitions_;

  /// Host-precomputed group keys per owner: (local line, item).
  std::vector<std::vector<std::pair<core::LineId, mining::Item>>>
      groups_by_owner_;

  net::Tag tuple_tag_ = 0;
  net::Tag gather_tag_ = 0;

  HashAggregateResult result_;
};

// ---------------------------------------------------------------------------
// build: per-node store creation + owned-key inserts.
// ---------------------------------------------------------------------------

sim::Task<> HashAggregateWorkload::build(std::size_t idx) {
  Node& node = app_node(idx);
  create_store(idx, store_config(local_line_count(idx)));

  const auto& groups = groups_by_owner_[idx];
  co_await sched::build_lines(
      node, *stores_[idx], groups.size(), node.costs().per_probe,
      [&groups](std::size_t j) { return groups[j].first; },
      [&groups](std::size_t j) { return shuffle_key(groups[j].second); });
}

// ---------------------------------------------------------------------------
// scan: partition scan ships keyed tuples; owners probe their store.
// ---------------------------------------------------------------------------

sim::Task<> HashAggregateWorkload::scan(std::size_t idx) {
  sched::ShuffleSpec spec;
  spec.tag = tuple_tag_;
  spec.element_bytes = 8;  // item + framing
  co_await sched::shuffle_phase<mining::Item>(
      app_node(idx), env_.app_nodes, idx, *stores_[idx], partitions_[idx],
      spec,
      [](std::span<const mining::Item> tx, std::vector<mining::Item>& out) {
        out.assign(tx.begin(), tx.end());
      },
      [this](const Itemset& key) { return place(key); });
}

// ---------------------------------------------------------------------------
// collect: fetch lines home, gather the global group table on node 0.
// ---------------------------------------------------------------------------

sim::Task<> HashAggregateWorkload::collect(std::size_t idx) {
  Node& node = app_node(idx);
  const cluster::CostModel& costs = node.costs();
  core::HashLineStore& store = *stores_[idx];

  AggGroups local;
  co_await store.collect([&](const mining::CountedItemset& e) {
    if (e.count > 0) local.groups.push_back(e);
  });
  co_await node.compute(costs.per_probe *
                        static_cast<std::int64_t>(store.size()));

  // Group keys are owned disjointly, so local tables concatenate; gather
  // all-to-one instead of HPA's all-to-all large exchange.
  constexpr std::int64_t kEntryBytes = 12;  // item + count + framing
  if (idx != 0) {
    const std::int64_t payload = std::max<std::int64_t>(
        16, kEntryBytes * static_cast<std::int64_t>(local.groups.size()));
    node.send_to(app_id(0), gather_tag_, payload, std::move(local));
    co_await node.compute(costs.per_message_cpu);
    co_return;
  }

  std::vector<mining::CountedItemset> global = std::move(local.groups);
  transport::Inbox inbox(node, gather_tag_);
  for (std::size_t j = 0; j + 1 < cfg_.app_nodes; ++j) {
    net::Message msg = co_await inbox.recv();
    const auto& remote = msg.as<AggGroups>();
    co_await node.compute(costs.per_message_cpu);
    global.insert(global.end(), remote.groups.begin(), remote.groups.end());
  }
  std::sort(global.begin(), global.end(),
            [](const mining::CountedItemset& a,
               const mining::CountedItemset& b) { return a.items < b.items; });
  result_.groups = std::move(global);
}

// ---------------------------------------------------------------------------
// Inputs, launch and result.
// ---------------------------------------------------------------------------

void HashAggregateWorkload::prepare_inputs() {
  if (cfg_.shared_db != nullptr) {
    db_ = cfg_.shared_db;
  } else {
    mining::QuestGenerator gen(cfg_.workload);
    generated_db_ = gen.generate();
    db_ = &generated_db_;
  }
  RMS_CHECK(!db_->empty());
  partitions_ = db_->partition(cfg_.app_nodes);

  // Host-side key partition: every item that can appear is a group.
  groups_by_owner_.assign(cfg_.app_nodes, {});
  for (mining::Item item = 0; item < cfg_.workload.num_items; ++item) {
    const auto [owner, line] = place(shuffle_key(item));
    groups_by_owner_[owner].emplace_back(line, item);
  }
}

void HashAggregateWorkload::check_exactness() {
  // Scalar reference: one in-memory pass over the same database.
  std::vector<std::uint32_t> ref(cfg_.workload.num_items, 0);
  for (std::size_t t = 0; t < db_->size(); ++t) {
    for (mining::Item item : db_->tx(t)) {
      RMS_CHECK(item < ref.size());
      ++ref[item];
    }
  }
  result_.exact = [&] {
    std::size_t nonzero = 0;
    for (std::uint32_t c : ref) nonzero += c > 0;
    if (result_.groups.size() != nonzero) return false;
    for (const mining::CountedItemset& g : result_.groups) {
      if (g.items.size() != 1 || g.items[0] >= ref.size() ||
          g.count != ref[g.items[0]]) {
        return false;
      }
    }
    return true;
  }();
}

void HashAggregateWorkload::launch(const sched::JobEnv& env,
                                   std::function<void()> on_done) {
  attach(env);
  tuple_tag_ = transport::TagRegistry::global().register_service("agg_tuples");
  gather_tag_ = transport::TagRegistry::global().register_service("agg_gather");
  prepare_inputs();
  // One pass of build/scan/collect; the 10 ms warmup lets the first
  // availability broadcasts land before any swap decision.
  start_runner(1, 1, msec(10), std::move(on_done));
}

HashAggregateResult HashAggregateWorkload::run() {
  static_cast<sched::PhasedResult&>(result_) = run_standalone({});
  check_exactness();
  return std::move(result_);
}

void HashAggregateWorkload::fill_report(sched::JobReport& rep) {
  if (rep.completed) {
    check_exactness();
    rep.exact = result_.exact;
    rep.summary = "groups=" + std::to_string(result_.groups.size());
  }
}

}  // namespace

HashAggregateResult run_hash_aggregate(const HashAggregateConfig& config) {
  return HashAggregateWorkload(config).run();
}

sched::JobRuntimePtr make_hash_aggregate_job(HashAggregateConfig config) {
  RMS_CHECK_MSG(config.metrics == nullptr && config.profiler == nullptr,
                "scheduled jobs do not own observability sinks");
  return std::make_unique<HashAggregateWorkload>(std::move(config));
}

}  // namespace rms::workloads
