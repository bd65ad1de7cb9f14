#include "workloads/hash_aggregate.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "cluster/cluster.hpp"
#include "core/availability.hpp"
#include "core/hash_line_store.hpp"
#include "core/memory_server.hpp"
#include "obs/metrics.hpp"
#include "runtime/cpu_charger.hpp"
#include "runtime/runner.hpp"
#include "sched/job.hpp"
#include "sim/process.hpp"
#include "sim/simulation.hpp"
#include "transport/stream.hpp"
#include "transport/tags.hpp"
#include "transport/transport.hpp"

namespace rms::workloads {
namespace {

using cluster::Node;
using mining::Itemset;
using net::NodeId;
using runtime::CpuCharger;

/// Scan-phase payload: a message block of group keys, or the end-of-stream
/// marker a sender broadcasts after finishing its partition.
struct AggMsg {
  std::vector<mining::Item> items;
  bool eos = false;
};

/// Collect-phase payload: one node's owned (item, count) groups.
struct AggGroups {
  std::vector<mining::CountedItemset> groups;
};

mining::Itemset make_key(mining::Item item) {
  // A plain function because GCC 12 miscompiles initializer-list
  // construction inside coroutines ("array used as initializer").
  mining::Itemset s;
  s.push_back(item);
  return s;
}

class HashAggregateWorkload final : public runtime::Workload {
 public:
  explicit HashAggregateWorkload(const HashAggregateConfig& cfg) : cfg_(cfg) {
    RMS_CHECK(cfg_.app_nodes >= 1);
    RMS_CHECK(cfg_.hash_lines >= cfg_.app_nodes);
    RMS_CHECK_MSG(cfg_.memory_limit_bytes < 0 ||
                      cfg_.policy != core::SwapPolicy::kNoLimit,
                  "a memory limit needs a swap policy");
    RMS_CHECK_MSG(cfg_.memory_limit_bytes < 0 ||
                      !core::uses_remote_memory(cfg_.policy) ||
                      cfg_.memory_nodes > 0,
                  "remote policies need at least one memory-available node");
  }

  HashAggregateResult run();

  // ---- sched job mode (shared world; see sched/job.hpp) ----
  void launch(const sched::JobEnv& env, std::function<void()> on_done);
  sim::Task<std::int64_t> reclaim(std::int64_t target_bytes);
  std::int64_t donated_bytes() const;
  sched::JobReport harvest();

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
      case kAggScanPhase: {
        stores_[idx]->set_phase(core::HashLineStore::Phase::kCount);
        sim::Process sender = sim_->spawn(scan_sender(idx));
        sim::Process receiver = sim_->spawn(scan_receiver(idx));
        co_await sender;
        co_await receiver;
        break;
      }
      case kAggCollectPhase:
        co_await collect(idx);
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
  // ---- topology helpers (uniform partition: line mod app_nodes) ----
  // Scheduled jobs execute on world-assigned slot nodes (ext_app_ids_);
  // the single-run world uses the identity layout.
  NodeId app_id(std::size_t idx) const {
    return ext_app_ids_.empty() ? static_cast<NodeId>(idx)
                                : ext_app_ids_[idx];
  }
  NodeId mem_id(std::size_t idx) const {
    return static_cast<NodeId>(cfg_.app_nodes + idx);
  }
  std::size_t global_line(const Itemset& key) const {
    return static_cast<std::size_t>(key.hash() % cfg_.hash_lines);
  }
  std::size_t owner_of_line(std::size_t gline) const {
    return gline % cfg_.app_nodes;
  }
  core::LineId local_line(std::size_t gline) const {
    return static_cast<core::LineId>(gline / cfg_.app_nodes);
  }
  std::size_t local_line_count(std::size_t idx) const {
    return (cfg_.hash_lines + cfg_.app_nodes - 1 - idx) / cfg_.app_nodes;
  }

  sim::Task<> build(std::size_t idx);
  sim::Process scan_sender(std::size_t idx);
  sim::Process scan_receiver(std::size_t idx);
  sim::Task<> collect(std::size_t idx);
  /// Database/partition/group-key preparation shared by both entry modes.
  void prepare_inputs();
  /// result_.exact: compare result_.groups to a scalar one-pass reference.
  void check_exactness();

  const HashAggregateConfig& cfg_;
  // Single-run mode owns its simulation and world; a scheduled job borrows
  // the shared ones and the owning members stay empty.
  sim::Simulation own_sim_;
  sim::Simulation* sim_ = &own_sim_;
  std::unique_ptr<cluster::Cluster> own_cluster_;
  cluster::Cluster* cluster_ = nullptr;
  std::vector<NodeId> ext_app_ids_;  // world slot ids (job mode)
  sched::SlotTable* slots_ = nullptr;
  std::unique_ptr<runtime::PhasedRunner> runner_;  // job mode only

  mining::TransactionDb generated_db_;
  const mining::TransactionDb* db_ = nullptr;
  std::vector<mining::TransactionDb> partitions_;

  std::vector<placement::MemoryBroker*> brokers_;
  std::vector<std::unique_ptr<placement::MemoryBroker>> own_brokers_;
  std::vector<std::unique_ptr<core::HashLineStore>> stores_;
  std::vector<std::unique_ptr<core::MemoryServer>> servers_;

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
  Node& node = cluster_->node(app_id(idx));
  const cluster::CostModel& costs = cluster_->node(app_id(idx)).costs();

  core::HashLineStore::Config scfg;
  scfg.num_lines = local_line_count(idx);
  scfg.memory_limit_bytes = cfg_.memory_limit_bytes;
  scfg.policy = cfg_.memory_limit_bytes < 0 ? core::SwapPolicy::kNoLimit
                                            : cfg_.policy;
  scfg.eviction = cfg_.eviction;
  scfg.tiered_remote_budget_bytes = cfg_.tiered_remote_budget_bytes;
  scfg.message_block_bytes = cfg_.message_block_bytes;
  scfg.trace = cfg_.trace;
  stores_[idx] = std::make_unique<core::HashLineStore>(node, scfg,
                                                       brokers_[idx]);

  core::HashLineStore& store = *stores_[idx];
  CpuCharger charge(node, costs.per_probe);
  const auto& groups = groups_by_owner_[idx];
  const auto line_at = [&groups](std::size_t j) { return groups[j].first; };
  store.size_lines(groups.size(), line_at);
  for (std::size_t i = 0; i < groups.size(); ++i) {
    store.prefetch_ahead(i, groups.size(), line_at);
    const core::LineId line = groups[i].first;
    const Itemset key = make_key(groups[i].second);
    if (!store.try_insert(line, key)) co_await store.insert(line, key);
    if (charge.add(1)) co_await charge.flush();
  }
  co_await charge.flush();
}

// ---------------------------------------------------------------------------
// scan: partition scan ships keyed tuples; owners probe their store.
// ---------------------------------------------------------------------------

sim::Process HashAggregateWorkload::scan_sender(std::size_t idx) {
  Node& node = cluster_->node(app_id(idx));
  const mining::TransactionDb& part = partitions_[idx];
  const cluster::CostModel& costs = node.costs();

  // One byte-budgeted stream per destination, rounded to whole tuples.
  const std::int64_t tuple_wire_bytes = 8;  // item + framing
  const std::int64_t batch_capacity =
      std::max<std::int64_t>(1, cfg_.message_block_bytes / tuple_wire_bytes);
  std::vector<transport::Stream<AggMsg>> streams;
  streams.reserve(cfg_.app_nodes);
  for (std::size_t j = 0; j < cfg_.app_nodes; ++j) {
    streams.emplace_back(batch_capacity * tuple_wire_bytes);
  }
  auto flush = [&](std::size_t owner) -> sim::Task<> {
    if (streams[owner].empty()) co_return;
    auto closed = streams[owner].take();
    node.send_to(app_id(owner), tuple_tag_, closed.bytes,
                 std::move(closed.batch));
    co_await node.compute(costs.per_message_cpu);
  };

  // Scan the local partition from the data disk in io_block_bytes reads.
  const std::int64_t bytes_per_tx =
      part.empty() ? 1 : std::max<std::int64_t>(1, part.approx_bytes() /
                              static_cast<std::int64_t>(part.size()));
  std::int64_t pending_bytes = 0;
  CpuCharger parse(node, costs.per_tx_parse);
  CpuCharger gen(node, costs.per_itemset_generate);
  for (std::size_t t = 0; t < part.size(); ++t) {
    pending_bytes += bytes_per_tx;
    if (pending_bytes >= cfg_.io_block_bytes) {
      co_await node.data_disk().read(cfg_.io_block_bytes,
                                     disk::Access::kSequential);
      pending_bytes = 0;
    }
    if (parse.add(1)) co_await parse.flush();
    if (gen.add(static_cast<std::int64_t>(part.tx(t).size()))) {
      co_await gen.flush();
    }
    for (mining::Item item : part.tx(t)) {
      const std::size_t owner = owner_of_line(global_line(make_key(item)));
      transport::Stream<AggMsg>& stream = streams[owner];
      stream.open().items.push_back(item);
      stream.note(tuple_wire_bytes);
      if (stream.due()) co_await flush(owner);
    }
  }
  if (pending_bytes > 0) {
    co_await node.data_disk().read(pending_bytes, disk::Access::kSequential);
  }
  co_await parse.flush();
  co_await gen.flush();

  // Flush stragglers, then broadcast end-of-stream (FIFO per destination
  // keeps every data block ahead of the marker).
  for (std::size_t owner = 0; owner < cfg_.app_nodes; ++owner) {
    co_await flush(owner);
  }
  for (std::size_t owner = 0; owner < cfg_.app_nodes; ++owner) {
    AggMsg eos;
    eos.eos = true;
    node.send_to(app_id(owner), tuple_tag_, 16, std::move(eos));
    co_await node.compute(costs.per_message_cpu);
  }
}

sim::Process HashAggregateWorkload::scan_receiver(std::size_t idx) {
  Node& node = cluster_->node(app_id(idx));
  const cluster::CostModel& costs = node.costs();
  core::HashLineStore& store = *stores_[idx];

  std::size_t eos_seen = 0;
  std::vector<core::LineId> lines;
  std::vector<Itemset> keys;
  transport::Inbox inbox(node, tuple_tag_);
  while (eos_seen < cfg_.app_nodes) {
    net::Message msg = co_await inbox.recv();
    const auto& data = msg.as<AggMsg>();
    if (data.eos) {
      ++eos_seen;
      continue;
    }
    co_await node.compute(costs.per_message_cpu +
                          costs.per_probe *
                              static_cast<std::int64_t>(data.items.size()));
    lines.clear();
    keys.clear();
    for (mining::Item item : data.items) {
      const Itemset key = make_key(item);
      const std::size_t gline = global_line(key);
      RMS_CHECK(owner_of_line(gline) == idx);
      lines.push_back(local_line(gline));
      keys.push_back(key);
    }
    co_await store.probe_block(lines, keys);
  }
}

// ---------------------------------------------------------------------------
// collect: fetch lines home, gather the global group table on node 0.
// ---------------------------------------------------------------------------

sim::Task<> HashAggregateWorkload::collect(std::size_t idx) {
  Node& node = cluster_->node(app_id(idx));
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
// Top-level run.
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
    const std::size_t gline = global_line(make_key(item));
    groups_by_owner_[owner_of_line(gline)].emplace_back(local_line(gline),
                                                        item);
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

HashAggregateResult HashAggregateWorkload::run() {
  // World construction: the full HPA-style topology — memory servers and
  // availability monitors on memory nodes, a placement broker and
  // availability client per application node.
  cluster::ClusterConfig ccfg;
  ccfg.num_nodes = cfg_.app_nodes + cfg_.memory_nodes;
  own_cluster_ = std::make_unique<cluster::Cluster>(*sim_, ccfg);
  cluster_ = own_cluster_.get();
  if (cfg_.profiler != nullptr) {
    for (std::size_t i = 0; i < cluster_->size(); ++i) {
      cluster_->node(static_cast<NodeId>(i)).set_profile_hook(cfg_.profiler);
    }
  }
  tuple_tag_ = transport::TagRegistry::global().register_service("agg_tuples");
  gather_tag_ = transport::TagRegistry::global().register_service("agg_gather");

  prepare_inputs();

  std::vector<NodeId> memory_ids;
  std::vector<NodeId> app_ids;
  for (std::size_t i = 0; i < cfg_.memory_nodes; ++i)
    memory_ids.push_back(mem_id(i));
  for (std::size_t i = 0; i < cfg_.app_nodes; ++i) app_ids.push_back(app_id(i));

  servers_.resize(cfg_.memory_nodes);
  for (std::size_t i = 0; i < cfg_.memory_nodes; ++i) {
    Node& node = cluster_->node(mem_id(i));
    core::MemoryServer::Config mscfg;
    mscfg.message_block_bytes = cfg_.message_block_bytes;
    mscfg.trace = cfg_.trace;
    servers_[i] = std::make_unique<core::MemoryServer>(node, mscfg);
    sim_->spawn(servers_[i]->serve());
    sim_->spawn(core::availability_monitor(
        node, core::MonitorConfig{cfg_.monitor_interval, app_ids}));
  }
  own_brokers_.resize(cfg_.app_nodes);
  brokers_.resize(cfg_.app_nodes);
  stores_.resize(cfg_.app_nodes);
  for (std::size_t i = 0; i < cfg_.app_nodes; ++i) {
    own_brokers_[i] = std::make_unique<placement::MemoryBroker>(
        memory_ids, cfg_.placement, static_cast<std::uint64_t>(app_id(i)));
    brokers_[i] = own_brokers_[i].get();
    if (cfg_.trace != nullptr) {
      brokers_[i]->set_trace(cfg_.trace, static_cast<std::int32_t>(app_id(i)));
    }
    core::ClientConfig clcfg;
    clcfg.shortage_threshold_bytes = cfg_.shortage_threshold_bytes;
    sim_->spawn(core::availability_client(
        cluster_->node(app_id(i)), *brokers_[i], clcfg,
        [this, i](NodeId holder) -> sim::Task<> {
          if (stores_[i]) co_await stores_[i]->migrate_away(holder);
        }));
  }

  if (cfg_.metrics != nullptr) {
    for (std::size_t n = 0; n < cfg_.app_nodes; ++n) {
      const auto node = static_cast<std::int32_t>(n);
      cfg_.metrics->add_gauge("resident_bytes", node, [this, n] {
        return stores_[n] ? static_cast<double>(stores_[n]->resident_bytes())
                          : 0.0;
      });
      cfg_.metrics->add_gauge("lines_remote", node, [this, n] {
        return stores_[n] ? static_cast<double>(stores_[n]->remote_lines())
                          : 0.0;
      });
      cfg_.metrics->add_gauge("lines_disk", node, [this, n] {
        return stores_[n] ? static_cast<double>(stores_[n]->disk_lines())
                          : 0.0;
      });
    }
    sim_->spawn(obs::sample_process(*sim_, *cfg_.metrics));
  }

  // One pass of build/scan/collect under the generic phased runner.
  runtime::RunnerConfig rcfg;
  rcfg.participants = cfg_.app_nodes;
  rcfg.first_pass = 1;
  rcfg.max_pass = 1;
  rcfg.validate_invariants = cfg_.validate_invariants;
  // Let the first availability broadcasts land before any swap decision.
  rcfg.warmup = msec(10);
  rcfg.trace = cfg_.trace;
  runtime::PhasedRunner runner(*sim_, *this, rcfg);
  runner.start();
  sim_->run();
  RMS_CHECK_MSG(runner.finished(),
                "simulation drained before the aggregation finished");

  result_.total_time = runner.total_time();
  result_.passes = runner.passes();
  result_.phase_names = runner.phases().names();
  for (auto& s : stores_) {
    result_.pagefaults += s->pagefaults();
    result_.swap_outs += s->swap_outs();
    result_.updates_sent += s->updates_sent();
  }
  for (std::size_t i = 0; i < cluster_->size(); ++i) {
    Node& node = cluster_->node(static_cast<NodeId>(i));
    result_.stats.merge(node.stats());
    result_.stats.merge(node.data_disk().stats());
    result_.stats.merge(node.swap_disk().stats());
  }
  result_.stats.merge(cluster_->network().stats());

  check_exactness();

  // Destroy still-suspended daemon frames (monitors, servers) while the
  // cluster objects their locals reference are alive; drop gauges that
  // capture this workload before it dies (the recorded series stays).
  sim_->shutdown();
  if (cfg_.metrics != nullptr) cfg_.metrics->clear_gauges();
  return result_;
}

// ---------------------------------------------------------------------------
// Scheduled-job mode: run inside a shared sched::World.
// ---------------------------------------------------------------------------

void HashAggregateWorkload::launch(const sched::JobEnv& env,
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

  tuple_tag_ = transport::TagRegistry::global().register_service("agg_tuples");
  gather_tag_ = transport::TagRegistry::global().register_service("agg_gather");
  prepare_inputs();

  // Stores are created lazily in the build phase; bind the slots now so
  // world daemons can reach whatever store the slot carries at that point.
  stores_.resize(cfg_.app_nodes);
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
  // Availability broadcasts are already flowing in a long-lived world, but
  // keep the single-run warmup so a job admitted at t=0 behaves alike.
  rcfg.warmup = msec(10);
  rcfg.trace = cfg_.trace;
  rcfg.tracks.reserve(cfg_.app_nodes);
  for (NodeId id : ext_app_ids_) {
    rcfg.tracks.push_back(static_cast<std::int32_t>(id));
  }
  rcfg.on_finished = std::move(on_done);
  runner_ = std::make_unique<runtime::PhasedRunner>(*sim_, *this, rcfg);
  runner_->start();
}

sim::Task<std::int64_t> HashAggregateWorkload::reclaim(
    std::int64_t target_bytes) {
  std::int64_t freed = 0;
  for (auto& store : stores_) {
    if (freed >= target_bytes) break;
    if (store) freed += co_await store->reclaim(target_bytes - freed);
  }
  co_return freed;
}

std::int64_t HashAggregateWorkload::donated_bytes() const {
  std::int64_t sum = 0;
  for (const auto& store : stores_) {
    if (store) sum += store->remote_held_bytes();
  }
  return sum;
}

sched::JobReport HashAggregateWorkload::harvest() {
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
    check_exactness();
    rep.exact = result_.exact;
    rep.summary = "groups=" + std::to_string(result_.groups.size());
  }
  if (slots_ != nullptr) {
    for (std::size_t i = 0; i < cfg_.app_nodes; ++i) {
      slots_->unbind(app_id(i));
    }
  }
  return rep;
}

/// Owns the config copy and the workload it parameterizes.
class HashAggregateJob final : public sched::JobRuntime {
 public:
  explicit HashAggregateJob(HashAggregateConfig cfg)
      : cfg_(std::move(cfg)), workload_(cfg_) {}

  const char* workload_name() const override { return "hash_aggregate"; }
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
  HashAggregateConfig cfg_;
  HashAggregateWorkload workload_;
};

}  // namespace

HashAggregateResult run_hash_aggregate(const HashAggregateConfig& config) {
  HashAggregateWorkload workload(config);
  return workload.run();
}

sched::JobRuntimePtr make_hash_aggregate_job(HashAggregateConfig config) {
  return std::make_unique<HashAggregateJob>(std::move(config));
}

}  // namespace rms::workloads
