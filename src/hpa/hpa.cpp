#include "hpa/hpa.hpp"

#include <algorithm>
#include <memory>

#include "cluster/fault.hpp"
#include "core/availability.hpp"
#include "core/hash_line_store.hpp"
#include "core/memory_server.hpp"
#include "core/protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/cpu_charger.hpp"
#include "runtime/runner.hpp"
#include "runtime/workload.hpp"
#include "sim/process.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "transport/stream.hpp"
#include "transport/tags.hpp"
#include "transport/transport.hpp"

namespace rms::hpa {
namespace {

using cluster::Node;
using runtime::CpuCharger;
using mining::Itemset;
using net::NodeId;

// Mining-phase wire tags, from the central registry (docs/PROTOCOL.md).
constexpr net::Tag kPass1Counts = transport::TagRegistry::kPass1Counts;
constexpr net::Tag kCountData = transport::TagRegistry::kCountData;
constexpr net::Tag kLargeExchange = transport::TagRegistry::kLargeExchange;

/// Counting-phase payload: a 4 KB message block of k-itemsets, or the
/// end-of-stream marker a sender broadcasts after finishing its scan.
struct CountMsg {
  std::vector<Itemset> itemsets;
  bool eos = false;
};

struct Pass1Counts {
  std::vector<std::uint32_t> counts;
};

struct LargeList {
  std::vector<mining::CountedItemset> larges;
};

class HpaWorkload final : public runtime::Workload {
 public:
  explicit HpaWorkload(const HpaConfig& cfg) : cfg_(cfg) {
    RMS_CHECK(cfg_.app_nodes >= 1);
    RMS_CHECK(cfg_.hash_lines >= cfg_.app_nodes);
    RMS_CHECK(cfg_.min_support > 0 && cfg_.min_support <= 1.0);
    RMS_CHECK_MSG(cfg_.memory_limit_bytes < 0 ||
                      cfg_.policy != core::SwapPolicy::kNoLimit,
                  "a memory limit needs a swap policy");
    RMS_CHECK_MSG(!uses_remote_memory_policy() || cfg_.memory_nodes > 0,
                  "remote policies need at least one memory-available node");
  }

  bool uses_remote_memory_policy() const {
    return cfg_.memory_limit_bytes >= 0 && core::uses_remote_memory(cfg_.policy);
  }

  HpaResult run();

  // ---- sched job mode (shared world; see sched/job.hpp) ----
  void launch(const sched::JobEnv& env, std::function<void()> on_done);
  sim::Task<std::int64_t> reclaim(std::int64_t target_bytes);
  std::int64_t donated_bytes() const;
  sched::JobReport harvest();

  // ---- runtime::Workload ----
  void register_phases(runtime::PhaseRegistry& phases) override {
    RMS_CHECK(phases.add("build") == kBuildPhase);
    RMS_CHECK(phases.add("count") == kCountPhase);
    RMS_CHECK(phases.add("determine") == kDeterminePhase);
  }
  bool has_prologue() const override { return true; }
  sim::Task<> prologue(std::size_t idx) override { co_await pass1(idx); }
  void end_prologue(const runtime::PassTiming& timing) override {
    result_.passes.back().duration = timing.duration();
  }
  bool done(std::size_t /*pass*/) const override {
    // Node 0 maintains the canonical state; all nodes see the same answer.
    return global_large_prev_.empty();
  }
  void begin_pass(std::size_t k) override { generate_candidates(k); }
  bool proceed(std::size_t /*pass*/) const override {
    return total_candidates_ != 0;
  }
  void abort_pass(std::size_t /*pass*/) override {
    // The sequential miner records nothing for a candidate-less pass;
    // mirror that so results compare exactly.
    result_.passes.pop_back();
    global_large_prev_.clear();
  }
  sim::Task<> run_phase(std::size_t idx, runtime::PhaseId phase,
                        std::size_t k) override {
    switch (phase) {
      case kBuildPhase:
        co_await build_store(idx, k);
        break;
      case kCountPhase: {
        stores_[idx]->set_phase(core::HashLineStore::Phase::kCount);
        sim::Process sender = sim_->spawn(count_sender(idx, k));
        sim::Process receiver = sim_->spawn(count_receiver(idx, k));
        co_await sender;
        co_await receiver;
        break;
      }
      case kDeterminePhase:
        co_await determine_large(idx, k);
        break;
      default:
        RMS_CHECK(false);
    }
  }
  void check_invariants(std::size_t idx) override {
    if (stores_[idx]) stores_[idx]->check_invariants();
  }
  void end_pass(const runtime::PassTiming& timing) override {
    finish_pass_report(timing);
  }
  void end_pass_local(std::size_t idx, std::size_t /*pass*/) override {
    failover_total_.merge(stores_[idx]->failover());
    integrity_total_.merge(stores_[idx]->integrity());
    store_stats_total_.merge(stores_[idx]->stats());
    stores_[idx].reset();
  }

 private:
  // ---- topology helpers ----
  // Scheduled jobs execute on world-assigned slot nodes (ext_app_ids_);
  // the single-run world uses the identity layout.
  NodeId app_id(std::size_t idx) const {
    return ext_app_ids_.empty() ? static_cast<NodeId>(idx)
                                : ext_app_ids_[idx];
  }
  NodeId mem_id(std::size_t idx) const {
    return static_cast<NodeId>(cfg_.app_nodes + idx);
  }
  std::size_t global_line(const Itemset& s) const {
    return static_cast<std::size_t>(s.hash() % cfg_.hash_lines);
  }

  // Line ownership. Uniform: line mod app_nodes. Weighted: line ids are
  // uniform hash buckets, so splitting each block of kWeightResolution
  // consecutive residues by the integer cuts reproduces the requested
  // proportions exactly per block.
  static constexpr std::size_t kWeightResolution = 10'000;

  std::size_t owner_of_line(std::size_t gline) const {
    if (cuts_.empty()) return gline % cfg_.app_nodes;
    const std::size_t r = gline % kWeightResolution;
    std::size_t owner = 0;
    while (r >= cuts_[owner + 1]) ++owner;
    return owner;
  }
  core::LineId local_line(std::size_t gline) const {
    if (cuts_.empty()) {
      return static_cast<core::LineId>(gline / cfg_.app_nodes);
    }
    const std::size_t q = gline / kWeightResolution;
    const std::size_t r = gline % kWeightResolution;
    const std::size_t owner = owner_of_line(gline);
    const std::size_t width = cuts_[owner + 1] - cuts_[owner];
    return static_cast<core::LineId>(q * width + (r - cuts_[owner]));
  }
  std::size_t local_line_count(std::size_t idx) const {
    if (cuts_.empty()) {
      return (cfg_.hash_lines + cfg_.app_nodes - 1 - idx) / cfg_.app_nodes;
    }
    return (cfg_.hash_lines / kWeightResolution) *
           (cuts_[idx + 1] - cuts_[idx]);
  }

  void build_partition_cuts() {
    if (cfg_.partition_weights.empty()) return;
    RMS_CHECK_MSG(cfg_.partition_weights.size() == cfg_.app_nodes,
                  "partition_weights must have one entry per app node");
    RMS_CHECK_MSG(cfg_.hash_lines % kWeightResolution == 0,
                  "weighted partitioning needs hash_lines % 10000 == 0");
    double total = 0;
    for (double w : cfg_.partition_weights) {
      RMS_CHECK(w > 0);
      total += w;
    }
    cuts_.assign(cfg_.app_nodes + 1, 0);
    double cum = 0;
    for (std::size_t i = 0; i < cfg_.app_nodes; ++i) {
      cum += cfg_.partition_weights[i];
      cuts_[i + 1] = static_cast<std::size_t>(
          cum / total * static_cast<double>(kWeightResolution) + 0.5);
      RMS_CHECK_MSG(cuts_[i + 1] > cuts_[i],
                    "partition weight too small for the resolution");
    }
    cuts_.back() = kWeightResolution;
  }

  // ---- phase bodies (the runner owns barriers, spans, and timing) ----
  sim::Process count_sender(std::size_t idx, std::size_t k);
  sim::Process count_receiver(std::size_t idx, std::size_t k);

  sim::Task<> pass1(std::size_t idx);
  sim::Task<> build_store(std::size_t idx, std::size_t k);
  sim::Task<> determine_large(std::size_t idx, std::size_t k);

  void generate_candidates(std::size_t k);
  void finish_pass_report(const runtime::PassTiming& timing);
  void register_gauges();
  /// Database/partition/threshold preparation shared by both entry modes.
  void prepare_inputs();
  /// result_.mined equals the sequential miner over the same database.
  bool check_exactness() const;

  const HpaConfig& cfg_;
  std::vector<std::size_t> cuts_;  // weighted-partition residue cuts
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
  std::uint32_t min_count_ = 1;

  std::vector<placement::MemoryBroker*> brokers_;
  std::vector<std::unique_ptr<placement::MemoryBroker>> own_brokers_;
  std::vector<std::unique_ptr<core::HashLineStore>> stores_;
  std::vector<std::unique_ptr<core::MemoryServer>> servers_;

  // Canonical global mining state. Every node receives the same exchanged
  // messages; the canonical copy avoids holding one merged copy per node.
  std::vector<char> is_large1_;
  std::vector<Itemset> global_large_prev_;
  std::vector<std::vector<std::pair<core::LineId, Itemset>>> cand_by_owner_;
  std::int64_t total_candidates_ = 0;

  HpaResult result_;
  core::FailoverStats failover_total_;
  core::IntegrityStats integrity_total_;
  StatsRegistry store_stats_total_;
  /// At-rest corruption draws (FaultPlan episodes); fixed stream so runs
  /// with identical configs corrupt identically.
  Pcg32 corrupt_rest_rng_{0xa27e57, 0x11};
};

// ---------------------------------------------------------------------------
// Pass 1: local item counting + all-to-all count exchange.
// ---------------------------------------------------------------------------

sim::Task<> HpaWorkload::pass1(std::size_t idx) {
  Node& node = cluster_->node(app_id(idx));
  const mining::TransactionDb& part = partitions_[idx];
  const cluster::CostModel& costs = node.costs();

  std::vector<std::uint32_t> counts(cfg_.workload.num_items, 0);

  // Scan the local partition from the data disk in 64 KB blocks.
  const std::int64_t bytes_per_tx =
      part.empty() ? 1 : std::max<std::int64_t>(1, part.approx_bytes() /
                              static_cast<std::int64_t>(part.size()));
  std::int64_t pending_bytes = 0;
  CpuCharger parse(node, costs.per_tx_parse);
  for (std::size_t t = 0; t < part.size(); ++t) {
    pending_bytes += bytes_per_tx;
    if (pending_bytes >= cfg_.io_block_bytes) {
      co_await node.data_disk().read(cfg_.io_block_bytes,
                                     disk::Access::kSequential);
      pending_bytes = 0;
    }
    for (mining::Item it : part.tx(t)) {
      RMS_CHECK(it < counts.size());
      ++counts[it];
    }
    if (parse.add(1)) co_await parse.flush();
  }
  if (pending_bytes > 0) {
    co_await node.data_disk().read(pending_bytes, disk::Access::kSequential);
  }
  co_await parse.flush();

  // Exchange partial counts all-to-all; every node ends with global counts.
  const std::int64_t payload =
      static_cast<std::int64_t>(counts.size()) * 4;
  for (std::size_t j = 0; j < cfg_.app_nodes; ++j) {
    if (j == idx) continue;
    node.send_to(app_id(j), kPass1Counts, payload, Pass1Counts{counts});
    co_await node.compute(costs.per_message_cpu);
  }
  std::vector<std::uint32_t> total = counts;
  transport::Inbox inbox(node, kPass1Counts);
  for (std::size_t j = 0; j + 1 < cfg_.app_nodes; ++j) {
    net::Message msg = co_await inbox.recv();
    const auto& remote = msg.as<Pass1Counts>();
    RMS_CHECK(remote.counts.size() == total.size());
    co_await node.compute(costs.per_message_cpu);
    for (std::size_t i = 0; i < total.size(); ++i) total[i] += remote.counts[i];
  }

  // Determine L1 (identical on every node); node 0 records the canonical
  // copy and the pass report.
  if (idx == 0) {
    is_large1_.assign(total.size(), 0);
    global_large_prev_.clear();
    for (std::size_t i = 0; i < total.size(); ++i) {
      if (total[i] >= min_count_) {
        is_large1_[i] = 1;
        Itemset s;
        s.push_back(static_cast<mining::Item>(i));
        global_large_prev_.push_back(s);
        result_.mined.support.emplace(s, total[i]);
      }
    }
    result_.mined.large_by_k.push_back(global_large_prev_);

    PassReport rep;
    rep.k = 1;
    rep.candidates_global = static_cast<std::int64_t>(total.size());
    rep.large_global = static_cast<std::int64_t>(global_large_prev_.size());
    result_.passes.push_back(std::move(rep));
  }
}

// ---------------------------------------------------------------------------
// Candidate generation (canonical) and store build (per node).
// ---------------------------------------------------------------------------

void HpaWorkload::generate_candidates(std::size_t k) {
  // Real HPA: every node scans the full candidate stream and keeps its own
  // share. The scan itself is identical on all nodes, so it is executed
  // once here; each node is charged the full scan in virtual time. A
  // counting scan of the same stream sizes each owner's share first, so the
  // partition (4.9 M entries in the paper's pass 2) is allocated once.
  std::vector<std::size_t> share(cfg_.app_nodes, 0);
  mining::for_each_candidate(global_large_prev_, [&](const Itemset& c) {
    ++share[owner_of_line(global_line(c))];
  });
  cand_by_owner_.assign(cfg_.app_nodes, {});
  for (std::size_t i = 0; i < cfg_.app_nodes; ++i) {
    cand_by_owner_[i].reserve(share[i]);
  }
  total_candidates_ = 0;
  mining::for_each_candidate(global_large_prev_, [&](const Itemset& c) {
    ++total_candidates_;
    const std::size_t gline = global_line(c);
    cand_by_owner_[owner_of_line(gline)].emplace_back(local_line(gline), c);
  });

  PassReport rep;
  rep.k = k;
  rep.candidates_global = total_candidates_;
  rep.candidates_per_node.resize(cfg_.app_nodes);
  for (std::size_t i = 0; i < cfg_.app_nodes; ++i) {
    rep.candidates_per_node[i] =
        static_cast<std::int64_t>(cand_by_owner_[i].size());
  }
  result_.passes.push_back(std::move(rep));
}

sim::Task<> HpaWorkload::build_store(std::size_t idx, std::size_t k) {
  Node& node = cluster_->node(app_id(idx));
  const cluster::CostModel& costs = node.costs();

  core::HashLineStore::Config scfg;
  scfg.num_lines = local_line_count(idx);
  scfg.memory_limit_bytes = cfg_.memory_limit_bytes;
  scfg.policy = cfg_.memory_limit_bytes < 0 ? core::SwapPolicy::kNoLimit
                                            : cfg_.policy;
  scfg.eviction = cfg_.eviction;
  scfg.tiered_remote_budget_bytes = cfg_.tiered_remote_budget_bytes;
  scfg.message_block_bytes = cfg_.message_block_bytes;
  if (cfg_.remote_determination) scfg.fetch_filter_min_count = min_count_;
  scfg.replicate_k = cfg_.replicate_k;
  scfg.quarantine_after = cfg_.quarantine_after;
  scfg.integrity_disk_shadow = cfg_.integrity_disk_shadow;
  scfg.rpc_deadline = cfg_.rpc_deadline;
  scfg.rpc_max_retries = cfg_.rpc_max_retries;
  scfg.rpc_window = cfg_.rpc_window;
  scfg.trace = cfg_.trace;
  stores_[idx] = std::make_unique<core::HashLineStore>(node, scfg,
                                                       brokers_[idx]);

  // Full candidate-stream scan (hash + destination test for every
  // candidate, §2.2 step 1).
  co_await node.compute(costs.per_candidate_gen * total_candidates_);

  // Insert this node's share into the (possibly limited) store.
  core::HashLineStore& store = *stores_[idx];
  CpuCharger charge(node, costs.per_probe);
  auto& own = cand_by_owner_[idx];
  const auto line_at = [&own](std::size_t j) { return own[j].first; };
  store.size_lines(own.size(), line_at);
  for (std::size_t i = 0; i < own.size(); ++i) {
    store.prefetch_ahead(i, own.size(), line_at);
    const auto& [line, itemset] = own[i];
    if (!store.try_insert(line, itemset)) co_await store.insert(line, itemset);
    if (charge.add(1)) co_await charge.flush();
  }
  co_await charge.flush();
  own.clear();
  own.shrink_to_fit();
  (void)k;
}

// ---------------------------------------------------------------------------
// Counting phase: sender scans and ships k-itemsets; receiver probes.
// ---------------------------------------------------------------------------

sim::Process HpaWorkload::count_sender(std::size_t idx, std::size_t k) {
  Node& node = cluster_->node(app_id(idx));
  const mining::TransactionDb& part = partitions_[idx];
  const cluster::CostModel& costs = node.costs();

  // One byte-budgeted stream per destination. The budget rounds the 4 KB
  // wire block down to a whole number of itemsets, so a stream comes due at
  // exactly the batch boundary the hand-rolled capacity check used.
  const std::int64_t itemset_wire_bytes = static_cast<std::int64_t>(k) * 4 + 4;
  const std::int64_t batch_capacity =
      std::max<std::int64_t>(1, cfg_.message_block_bytes / itemset_wire_bytes);

  std::vector<transport::Stream<CountMsg>> streams;
  streams.reserve(cfg_.app_nodes);
  for (std::size_t j = 0; j < cfg_.app_nodes; ++j) {
    streams.emplace_back(batch_capacity * itemset_wire_bytes);
  }

  auto flush = [&](std::size_t owner) -> sim::Task<> {
    if (streams[owner].empty()) co_return;
    auto closed = streams[owner].take();
    node.send_to(app_id(owner), kCountData, closed.bytes,
                 std::move(closed.batch));
    co_await node.compute(costs.per_message_cpu);
  };

  const auto keep = [this](mining::Item it) {
    return it < is_large1_.size() && is_large1_[it] != 0;
  };

  const std::int64_t bytes_per_tx =
      part.empty() ? 1 : std::max<std::int64_t>(1, part.approx_bytes() /
                              static_cast<std::int64_t>(part.size()));
  std::int64_t pending_bytes = 0;
  CpuCharger gen(node, costs.per_itemset_generate);
  CpuCharger parse(node, costs.per_tx_parse);
  std::vector<Itemset> scratch;

  for (std::size_t t = 0; t < part.size(); ++t) {
    pending_bytes += bytes_per_tx;
    if (pending_bytes >= cfg_.io_block_bytes) {
      co_await node.data_disk().read(cfg_.io_block_bytes,
                                     disk::Access::kSequential);
      pending_bytes = 0;
    }
    if (parse.add(1)) co_await parse.flush();

    scratch.clear();
    mining::for_each_k_subset(part.tx(t), k, keep,
                              [&](const Itemset& s) { scratch.push_back(s); });
    if (gen.add(static_cast<std::int64_t>(scratch.size()))) {
      co_await gen.flush();
    }
    for (const Itemset& s : scratch) {
      const std::size_t owner = owner_of_line(global_line(s));
      transport::Stream<CountMsg>& stream = streams[owner];
      stream.open().itemsets.push_back(s);
      stream.note(itemset_wire_bytes);
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
    CountMsg eos;
    eos.eos = true;
    node.send_to(app_id(owner), kCountData, 16, std::move(eos));
    co_await node.compute(costs.per_message_cpu);
  }
}

sim::Process HpaWorkload::count_receiver(std::size_t idx, std::size_t k) {
  Node& node = cluster_->node(app_id(idx));
  const cluster::CostModel& costs = node.costs();
  core::HashLineStore& store = *stores_[idx];

  std::size_t eos_seen = 0;
  std::vector<core::LineId> lines;
  transport::Inbox inbox(node, kCountData);
  while (eos_seen < cfg_.app_nodes) {
    net::Message msg = co_await inbox.recv();
    const auto& data = msg.as<CountMsg>();
    if (data.eos) {
      ++eos_seen;
      continue;
    }
    co_await node.compute(costs.per_message_cpu +
                          costs.per_probe *
                              static_cast<std::int64_t>(data.itemsets.size()));
    lines.clear();
    for (const Itemset& s : data.itemsets) {
      const std::size_t gline = global_line(s);
      RMS_CHECK(owner_of_line(gline) == idx);
      lines.push_back(local_line(gline));
    }
    co_await store.probe_block(lines, data.itemsets);
  }
  (void)k;
}

// ---------------------------------------------------------------------------
// Large-itemset determination and exchange.
// ---------------------------------------------------------------------------

sim::Task<> HpaWorkload::determine_large(std::size_t idx, std::size_t k) {
  Node& node = cluster_->node(app_id(idx));
  const cluster::CostModel& costs = node.costs();
  core::HashLineStore& store = *stores_[idx];

  // Bring every line home and pick local large itemsets.
  LargeList local;
  co_await store.collect([&](const mining::CountedItemset& e) {
    if (e.count >= min_count_) local.larges.push_back(e);
  });
  co_await node.compute(costs.per_probe *
                        static_cast<std::int64_t>(store.size()));

  // Broadcast local larges; await everyone else's (§2.2 step 3).
  const std::int64_t entry_bytes = static_cast<std::int64_t>(k) * 4 + 8;
  const std::int64_t payload = std::max<std::int64_t>(
      16, entry_bytes * static_cast<std::int64_t>(local.larges.size()));
  for (std::size_t j = 0; j < cfg_.app_nodes; ++j) {
    if (j == idx) continue;
    node.send_to(app_id(j), kLargeExchange, payload, LargeList{local.larges});
    co_await node.compute(costs.per_message_cpu);
  }

  std::vector<mining::CountedItemset> global = std::move(local.larges);
  transport::Inbox inbox(node, kLargeExchange);
  for (std::size_t j = 0; j + 1 < cfg_.app_nodes; ++j) {
    net::Message msg = co_await inbox.recv();
    const auto& remote = msg.as<LargeList>();
    co_await node.compute(costs.per_message_cpu);
    global.insert(global.end(), remote.larges.begin(), remote.larges.end());
  }

  std::sort(global.begin(), global.end(),
            [](const mining::CountedItemset& a,
               const mining::CountedItemset& b) { return a.items < b.items; });

  if (idx == 0) {
    // Record the canonical global large set for pass k.
    global_large_prev_.clear();
    std::vector<Itemset> large_k;
    for (const mining::CountedItemset& e : global) {
      large_k.push_back(e.items);
      result_.mined.support.emplace(e.items, e.count);
    }
    global_large_prev_ = large_k;
    result_.mined.large_by_k.push_back(std::move(large_k));
  }
}

// ---------------------------------------------------------------------------
// Per-pass report assembly (PhasedRunner end_pass hook).
// ---------------------------------------------------------------------------

void HpaWorkload::finish_pass_report(const runtime::PassTiming& timing) {
  PassReport& rep = result_.passes.back();
  RMS_CHECK(rep.k == timing.pass);
  rep.large_global =
      static_cast<std::int64_t>(result_.mined.large_by_k.back().size());
  rep.duration = timing.duration();
  rep.phase_time.resize(kNumPhases);
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    rep.phase_time[p] = timing.phase_time(p);
  }
  rep.pagefaults_per_node.resize(cfg_.app_nodes);
  rep.swap_outs_per_node.resize(cfg_.app_nodes);
  rep.updates_per_node.resize(cfg_.app_nodes);
  for (std::size_t i = 0; i < cfg_.app_nodes; ++i) {
    rep.pagefaults_per_node[i] = stores_[i]->pagefaults();
    rep.swap_outs_per_node[i] = stores_[i]->swap_outs();
    rep.updates_per_node[i] = stores_[i]->updates_sent();
  }
}

// ---------------------------------------------------------------------------
// Top-level run.
// ---------------------------------------------------------------------------

void HpaWorkload::prepare_inputs() {
  if (cfg_.shared_db != nullptr) {
    db_ = cfg_.shared_db;
  } else {
    mining::QuestGenerator gen(cfg_.workload);
    generated_db_ = gen.generate();
    db_ = &generated_db_;
  }
  RMS_CHECK(!db_->empty());
  partitions_ = db_->partition(cfg_.app_nodes);
  min_count_ = static_cast<std::uint32_t>(std::max<std::int64_t>(
      1,
      static_cast<std::int64_t>(cfg_.min_support *
                                    static_cast<double>(db_->size()) +
                                0.5)));
  result_.mined.num_transactions = static_cast<std::int64_t>(db_->size());
  result_.mined.min_count = min_count_;
}

bool HpaWorkload::check_exactness() const {
  // Re-mine sequentially (the reference path the unit tests compare
  // against), stopping at the same itemset size, and require an identical
  // support table.
  mining::AprioriOptions options;
  options.max_k = cfg_.max_k;
  const mining::AprioriResult seq =
      mining::apriori(*db_, cfg_.min_support, options);
  if (seq.support.size() != result_.mined.support.size()) return false;
  for (const auto& [itemset, count] : seq.support) {
    const auto it = result_.mined.support.find(itemset);
    if (it == result_.mined.support.end() || it->second != count) {
      return false;
    }
  }
  return true;
}

HpaResult HpaWorkload::run() {
  // World construction.
  build_partition_cuts();
  cluster::ClusterConfig ccfg = cfg_.cluster;
  ccfg.num_nodes = cfg_.app_nodes + cfg_.memory_nodes;
  own_cluster_ = std::make_unique<cluster::Cluster>(*sim_, ccfg);
  cluster_ = own_cluster_.get();
  if (cfg_.profiler != nullptr) {
    for (std::size_t i = 0; i < cluster_->size(); ++i) {
      cluster_->node(static_cast<cluster::NodeId>(i))
          .set_profile_hook(cfg_.profiler);
    }
  }
  prepare_inputs();

  // Memory-available nodes: servers + monitors.
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
    mscfg.rpc_window = cfg_.rpc_window;
    mscfg.trace = cfg_.trace;
    servers_[i] = std::make_unique<core::MemoryServer>(node, mscfg);
    sim_->spawn(servers_[i]->serve());
    sim_->spawn(core::availability_monitor(
        node, core::MonitorConfig{cfg_.monitor_interval, app_ids}));
  }

  // Application nodes: one placement::MemoryBroker each (availability view
  // + destination policy), an availability client feeding it with the
  // migration hook, plus a failure detector whose verdicts re-home lines
  // off dead holders.
  own_brokers_.resize(cfg_.app_nodes);
  brokers_.resize(cfg_.app_nodes);
  stores_.resize(cfg_.app_nodes);
  for (std::size_t i = 0; i < cfg_.app_nodes; ++i) {
    own_brokers_[i] = std::make_unique<placement::MemoryBroker>(
        memory_ids, cfg_.placement, static_cast<std::uint64_t>(app_id(i)));
    brokers_[i] = own_brokers_[i].get();
    if (cfg_.stale_after_intervals > 0) {
      brokers_[i]->set_max_age(cfg_.monitor_interval *
                               cfg_.stale_after_intervals);
    }
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
    if (uses_remote_memory_policy()) {
      core::DetectorConfig dcfg;
      dcfg.expected_interval = cfg_.monitor_interval;
      dcfg.miss_threshold = cfg_.suspect_after_misses;
      sim_->spawn(core::failure_detector(
          cluster_->node(app_id(i)), *brokers_[i], dcfg,
          [this, i](NodeId suspect) -> sim::Task<> {
            if (stores_[i]) co_await stores_[i]->handle_holder_failure(suspect);
          }));
    }
  }

  // Fault injection: withdrawals of memory-available nodes (Figure 5).
  for (const HpaConfig::Withdrawal& w : cfg_.withdrawals) {
    RMS_CHECK(w.memory_node_index < cfg_.memory_nodes);
    Node& victim = cluster_->node(mem_id(w.memory_node_index));
    sim_->call_at(w.at, [&victim] {
      victim.memory().external_bytes = victim.memory().total_bytes;
    });
  }

  // Fault injection: crash-stops, loss bursts, and corruption episodes
  // (robustness extensions).
  {
    cluster::FaultPlan plan;
    for (const HpaConfig::Crash& c : cfg_.crashes) {
      RMS_CHECK(c.memory_node_index < cfg_.memory_nodes);
      plan.crashes.push_back(cluster::FaultPlan::Crash{
          mem_id(c.memory_node_index), c.at, c.restart_at});
    }
    plan.loss_bursts = cfg_.loss_bursts;
    bool any_wire_corruption = false;
    for (const HpaConfig::Corruption& c : cfg_.corruption) {
      NodeId focus = -1;
      if (c.memory_node_index >= 0) {
        RMS_CHECK(static_cast<std::size_t>(c.memory_node_index) <
                  cfg_.memory_nodes);
        focus = mem_id(static_cast<std::size_t>(c.memory_node_index));
      }
      plan.corruption.push_back(cluster::FaultPlan::Corruption{
          c.at, c.duration, c.flip_rate, c.rest_flip_rate, focus, c.scrub});
      if (c.flip_rate > 0.0) any_wire_corruption = true;
    }
    // The corruptor is installed only when an episode needs it: with no
    // injection the delivery path never draws from the corruption RNG and
    // results stay bit-identical with pre-integrity builds.
    if (any_wire_corruption) {
      cluster_->network().set_corruptor(core::corrupt_line_payloads);
    }
    cluster::CorruptionHooks hooks;
    if (!cfg_.corruption.empty()) {
      hooks.at_rest = [this](NodeId node, double rate) {
        for (auto& server : servers_) {
          if (node >= 0 && server->node().id() != node) continue;
          server->corrupt_stored(rate, corrupt_rest_rng_);
        }
      };
      hooks.scrub = [this](NodeId node) {
        for (auto& server : servers_) {
          if (node >= 0 && server->node().id() != node) continue;
          server->verify_stored();
        }
      };
    }
    plan.install(*cluster_, hooks);
  }

  if (cfg_.metrics != nullptr) {
    register_gauges();
    sim_->spawn(obs::sample_process(*sim_, *cfg_.metrics));
  }

  // Mining proper: the generic phased runner owns barriers, phase spans,
  // invariant hooks, and per-pass report assembly; this class is the
  // Workload it drives. first_pass is 2 because pass 1 is the prologue
  // (no hash-line store, no phases — see pass1()).
  runtime::RunnerConfig rcfg;
  rcfg.participants = cfg_.app_nodes;
  rcfg.first_pass = 2;
  rcfg.max_pass = cfg_.max_k;
  rcfg.validate_invariants = cfg_.validate_invariants;
  // Let the first availability broadcasts land before any swap decision.
  rcfg.warmup = msec(10);
  rcfg.trace = cfg_.trace;
  runtime::PhasedRunner runner(*sim_, *this, rcfg);
  runner.start();
  sim_->run();
  RMS_CHECK_MSG(runner.finished(),
                "simulation drained before mining finished");
  result_.total_time = runner.total_time();
  result_.phase_names = runner.phases().names();

  // Assemble mining metadata and merged statistics.
  for (std::size_t p = 0; p < result_.passes.size(); ++p) {
    result_.mined.passes.push_back(mining::PassInfo{
        result_.passes[p].k, result_.passes[p].candidates_global,
        result_.passes[p].large_global});
  }
  for (std::size_t i = 0; i < cluster_->size(); ++i) {
    Node& node = cluster_->node(static_cast<NodeId>(i));
    result_.stats.merge(node.stats());
    result_.stats.merge(node.data_disk().stats());
    result_.stats.merge(node.swap_disk().stats());
  }
  result_.stats.merge(cluster_->network().stats());
  // Backend-scoped counters live in the stores' own registries; "store.*"
  // keys duplicate node-level bumps already merged above, so only the
  // "backend."-namespaced ones are exported.
  for (const auto& [name, value] : store_stats_total_.counters()) {
    if (value != 0 && name.starts_with("backend.")) {
      result_.stats.bump(name, value);
    }
  }
  // Placement decision counters live in the brokers (which outlive the
  // per-pass stores); zero-valued slots are pre-registered scratch and are
  // skipped so disk-only runs do not grow placement keys.
  for (const auto& broker : brokers_) {
    for (const auto& [name, value] : broker->stats().counters()) {
      if (value != 0) result_.stats.bump(name, value);
    }
  }
  result_.failover = failover_total_;
  result_.integrity = integrity_total_;

  // Destroy still-suspended daemon frames (monitors, servers) while the
  // cluster objects their locals reference are alive.
  sim_->shutdown();
  // The gauges registered above capture this Runner; drop them before the
  // captured state dies with us (the recorded series stays).
  if (cfg_.metrics != nullptr) cfg_.metrics->clear_gauges();
  return result_;
}

void HpaWorkload::register_gauges() {
  obs::MetricsSampler& m = *cfg_.metrics;
  m.set_interval(cfg_.monitor_interval);
  // Per-application-node residency and RPC gauges. Stores are rebuilt each
  // pass and torn down at pass end, so every callback null-checks.
  for (std::size_t i = 0; i < cfg_.app_nodes; ++i) {
    const auto node = static_cast<std::int32_t>(app_id(i));
    const auto store_gauge = [this, i](auto fn) {
      return [this, i, fn]() -> double {
        return stores_[i] ? fn(*stores_[i]) : 0.0;
      };
    };
    m.add_gauge("resident_bytes", node, store_gauge([](const auto& s) {
      return static_cast<double>(s.resident_bytes());
    }));
    m.add_gauge("remote_held_bytes", node, store_gauge([](const auto& s) {
      return static_cast<double>(s.remote_held_bytes());
    }));
    m.add_gauge("lines_resident", node, store_gauge([](const auto& s) {
      return static_cast<double>(s.resident_lines());
    }));
    m.add_gauge("lines_remote", node, store_gauge([](const auto& s) {
      return static_cast<double>(s.remote_lines());
    }));
    m.add_gauge("lines_disk", node, store_gauge([](const auto& s) {
      return static_cast<double>(s.disk_lines());
    }));
    m.add_gauge("outstanding_rpcs", node, store_gauge([](const auto& s) {
      return static_cast<double>(s.outstanding_rpcs());
    }));
    m.add_gauge("rpc_window", node, store_gauge([](const auto& s) {
      return static_cast<double>(s.rpc_window());
    }));
    m.add_gauge("heartbeat_staleness_s", node, [this, i]() -> double {
      return to_seconds(brokers_[i]->oldest_report_age(sim_->now()));
    });
  }
  // Per-memory-node donation (how much RAM the node is lending out).
  for (std::size_t i = 0; i < cfg_.memory_nodes; ++i) {
    const auto node = static_cast<std::int32_t>(mem_id(i));
    m.add_gauge("donated_bytes", node, [this, i]() -> double {
      return static_cast<double>(
          cluster_->node(mem_id(i)).memory().donated_bytes);
    });
  }
  // Cluster-wide: kernel event throughput (a cheap progress heartbeat).
  m.add_gauge("executed_events", -1, [this]() -> double {
    return static_cast<double>(sim_->executed_events());
  });
}

// ---------------------------------------------------------------------------
// Scheduled-job mode: run inside a shared sched::World.
// ---------------------------------------------------------------------------

void HpaWorkload::launch(const sched::JobEnv& env,
                         std::function<void()> on_done) {
  RMS_CHECK_MSG(cfg_.metrics == nullptr && cfg_.profiler == nullptr,
                "scheduled jobs do not own observability sinks");
  RMS_CHECK_MSG(cfg_.withdrawals.empty() && cfg_.crashes.empty() &&
                    cfg_.loss_bursts.empty() && cfg_.corruption.empty(),
                "fault injection belongs to the world, not a scheduled job");
  RMS_CHECK(env.sim != nullptr && env.cluster != nullptr);
  RMS_CHECK_MSG(env.app_nodes.size() == cfg_.app_nodes,
                "slot lease must match the job's participant count");
  RMS_CHECK(env.brokers.size() == cfg_.app_nodes);
  sim_ = env.sim;
  cluster_ = env.cluster;
  ext_app_ids_ = env.app_nodes;
  brokers_ = env.brokers;
  slots_ = env.slots;

  build_partition_cuts();
  prepare_inputs();

  // Stores are rebuilt each pass; bind the slots to getters so world
  // daemons always reach whatever store the slot carries right now.
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
  rcfg.first_pass = 2;
  rcfg.max_pass = cfg_.max_k;
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

sim::Task<std::int64_t> HpaWorkload::reclaim(std::int64_t target_bytes) {
  std::int64_t freed = 0;
  for (auto& store : stores_) {
    if (freed >= target_bytes) break;
    if (store) freed += co_await store->reclaim(target_bytes - freed);
  }
  co_return freed;
}

std::int64_t HpaWorkload::donated_bytes() const {
  std::int64_t sum = 0;
  for (const auto& store : stores_) {
    if (store) sum += store->remote_held_bytes();
  }
  return sum;
}

sched::JobReport HpaWorkload::harvest() {
  sched::JobReport rep;
  rep.completed = runner_ != nullptr && runner_->finished();
  if (runner_ != nullptr) {
    rep.total_time = runner_->total_time();
    rep.passes = runner_->passes();
    rep.phase_names = runner_->phases().names();
  }
  // Stores are torn down at every pass end; the per-pass reports carry the
  // counters.
  for (const PassReport& p : result_.passes) {
    for (std::int64_t v : p.pagefaults_per_node) rep.pagefaults += v;
    for (std::int64_t v : p.swap_outs_per_node) rep.swap_outs += v;
    for (std::int64_t v : p.updates_per_node) rep.updates_sent += v;
  }
  rep.degraded_evictions = failover_total_.degraded_evictions;
  if (rep.completed) {
    rep.exact = check_exactness();
    rep.summary = "large=" + std::to_string(result_.mined.support.size());
  }
  if (slots_ != nullptr) {
    for (std::size_t i = 0; i < cfg_.app_nodes; ++i) {
      slots_->unbind(app_id(i));
    }
  }
  return rep;
}

/// Owns the config copy and the workload it parameterizes.
class HpaJob final : public sched::JobRuntime {
 public:
  explicit HpaJob(HpaConfig cfg) : cfg_(std::move(cfg)), workload_(cfg_) {}

  const char* workload_name() const override { return "hpa"; }
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
  HpaConfig cfg_;
  HpaWorkload workload_;
};

}  // namespace

HpaResult run_hpa(const HpaConfig& config) {
  HpaWorkload workload(config);
  return workload.run();
}

sched::JobRuntimePtr make_hpa_job(HpaConfig config) {
  return std::make_unique<HpaJob>(std::move(config));
}

std::vector<double> paper_table3_weights() {
  return {602559, 641243, 582149, 614412, 604851, 596359, 622679, 607629};
}

std::int64_t PassReport::max_pagefaults() const {
  std::int64_t m = 0;
  for (std::int64_t f : pagefaults_per_node) m = std::max(m, f);
  return m;
}

const PassReport* HpaResult::pass(std::size_t k) const {
  for (const PassReport& p : passes) {
    if (p.k == k) return &p;
  }
  return nullptr;
}

}  // namespace rms::hpa
