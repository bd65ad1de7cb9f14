#include "hpa/hpa.hpp"

#include <algorithm>
#include <memory>

#include "core/hash_line_store.hpp"
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

class HpaWorkload final : public sched::PhasedJob {
 public:
  explicit HpaWorkload(HpaConfig cfg) : cfg_(std::move(cfg)) {
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

  /// The run's result, read after World::run_one_job returned.
  HpaResult result(sched::World& world);

  // ---- sched::JobRuntime ----
  const char* workload_name() const override { return "hpa"; }
  void launch(const sched::JobEnv& env,
              std::function<void()> on_done) override;

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
        sim::Process sender = sim().spawn(count_sender(idx, k));
        sim::Process receiver = sim().spawn(count_receiver(idx, k));
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
  void fill_report(sched::JobReport& rep) override;

  // ---- line partition helpers ----
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
  /// Database, partition and support-threshold preparation.
  void prepare_inputs();
  /// result_.mined equals the sequential miner over the same database.
  bool check_exactness() const;

  const HpaConfig cfg_;
  std::vector<std::size_t> cuts_;  // weighted-partition residue cuts

  mining::TransactionDb generated_db_;
  const mining::TransactionDb* db_ = nullptr;
  std::vector<mining::TransactionDb> partitions_;
  std::uint32_t min_count_ = 1;

  // Canonical global mining state. Every node receives the same exchanged
  // messages; the canonical copy avoids holding one merged copy per node.
  std::vector<char> is_large1_;
  std::vector<Itemset> global_large_prev_;
  std::vector<std::vector<std::pair<core::LineId, Itemset>>> cand_by_owner_;
  std::int64_t total_candidates_ = 0;

  HpaResult result_;
  // Stores are torn down at every pass end; their counters fold in here.
  core::FailoverStats failover_total_;
  core::IntegrityStats integrity_total_;
  StatsRegistry store_stats_total_;
};

// ---------------------------------------------------------------------------
// Pass 1: local item counting + all-to-all count exchange.
// ---------------------------------------------------------------------------

sim::Task<> HpaWorkload::pass1(std::size_t idx) {
  Node& node = app_node(idx);
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
  Node& node = app_node(idx);
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
                                                       env_.brokers[idx]);

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
  Node& node = app_node(idx);
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
  Node& node = app_node(idx);
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
  Node& node = app_node(idx);
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
// Inputs, launch and result.
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

void HpaWorkload::launch(const sched::JobEnv& env,
                         std::function<void()> on_done) {
  attach(env, cfg_.app_nodes);
  build_partition_cuts();
  prepare_inputs();
  if (cfg_.metrics != nullptr) {
    register_gauges();
    sim().spawn(obs::sample_process(sim(), *cfg_.metrics));
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
  start_runner(std::move(rcfg), std::move(on_done));
}

HpaResult HpaWorkload::result(sched::World& world) {
  result_.total_time = runner().total_time();
  result_.phase_names = runner().phases().names();
  for (const PassReport& p : result_.passes) {
    result_.mined.passes.push_back(
        mining::PassInfo{p.k, p.candidates_global, p.large_global});
  }
  result_.stats = world.merged_stats(store_stats_total_);
  result_.failover = failover_total_;
  result_.integrity = integrity_total_;
  return std::move(result_);
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
      return to_seconds(env_.brokers[i]->oldest_report_age(sim().now()));
    });
  }
  // Per-memory-node donation (how much RAM the node is lending out).
  for (NodeId id : env_.brokers[0]->memory_nodes()) {
    m.add_gauge("donated_bytes", static_cast<std::int32_t>(id),
                [this, id]() -> double {
                  return static_cast<double>(
                      env_.cluster->node(id).memory().donated_bytes);
                });
  }
  // Cluster-wide: kernel event throughput (a cheap progress heartbeat).
  m.add_gauge("executed_events", -1, [this]() -> double {
    return static_cast<double>(sim().executed_events());
  });
}

void HpaWorkload::fill_report(sched::JobReport& rep) {
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
}

/// The single-job world run_hpa() builds around `cfg`.
sched::WorldConfig one_job_world(const HpaConfig& cfg) {
  sched::WorldConfig w;
  w.layout = sched::WorldConfig::Layout::kSingleJob;
  w.app_nodes = cfg.app_nodes;
  w.memory_nodes = cfg.memory_nodes;
  w.message_block_bytes = cfg.message_block_bytes;
  w.monitor_interval = cfg.monitor_interval;
  w.shortage_threshold_bytes = cfg.shortage_threshold_bytes;
  w.placement = cfg.placement;
  w.stale_after_intervals = cfg.stale_after_intervals;
  w.rpc_window = cfg.rpc_window;
  // Failure verdicts re-home lines off dead holders; only remote policies
  // park lines there.
  const bool remote =
      cfg.memory_limit_bytes >= 0 && core::uses_remote_memory(cfg.policy);
  w.suspect_after_misses = remote ? cfg.suspect_after_misses : 0;
  w.cluster = cfg.cluster;
  w.seed = cfg.cluster.seed;
  w.withdrawals = cfg.withdrawals;
  w.crashes = cfg.crashes;
  w.loss_bursts = cfg.loss_bursts;
  w.corruption = cfg.corruption;
  w.trace = cfg.trace;
  w.profiler = cfg.profiler;
  return w;
}

}  // namespace

HpaResult run_hpa(const HpaConfig& config) {
  sim::Simulation sim;
  sched::World world(sim, one_job_world(config));
  HpaWorkload job(config);
  world.run_one_job(job);
  HpaResult result = job.result(world);
  // Destroy still-suspended frames (daemons, in-flight store calls) while
  // the world and the job's stores they reference are alive; then drop the
  // gauges that capture the job (the recorded series stays).
  sim.shutdown();
  if (config.metrics != nullptr) config.metrics->clear_gauges();
  return result;
}

sched::JobRuntimePtr make_hpa_job(HpaConfig config) {
  RMS_CHECK_MSG(config.metrics == nullptr && config.profiler == nullptr,
                "scheduled jobs do not own observability sinks");
  RMS_CHECK_MSG(config.withdrawals.empty() && config.crashes.empty() &&
                    config.loss_bursts.empty() && config.corruption.empty(),
                "fault injection belongs to the world, not a scheduled job");
  return std::make_unique<HpaWorkload>(std::move(config));
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
