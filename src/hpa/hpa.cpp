#include "hpa/hpa.hpp"

#include <algorithm>
#include <memory>

#include "core/hash_line_store.hpp"
#include "core/protocol.hpp"
#include "obs/trace.hpp"
#include "runtime/workload.hpp"
#include "sched/data_path.hpp"
#include "transport/tags.hpp"
#include "transport/transport.hpp"

namespace rms::hpa {
namespace {

using cluster::Node;
using mining::Itemset;
using net::NodeId;

// Mining-phase wire tags, from the central registry (docs/PROTOCOL.md).
constexpr net::Tag kPass1Counts = transport::TagRegistry::kPass1Counts;
constexpr net::Tag kCountData = transport::TagRegistry::kCountData;
constexpr net::Tag kLargeExchange = transport::TagRegistry::kLargeExchange;

struct Pass1Counts {
  std::vector<std::uint32_t> counts;
};

struct LargeList {
  std::vector<mining::CountedItemset> larges;
};

class HpaWorkload final : public sched::PhasedJob {
 public:
  explicit HpaWorkload(HpaConfig cfg) : PhasedJob(cfg), cfg_(std::move(cfg)) {
    RMS_CHECK(cfg_.hash_lines >= cfg_.app_nodes);
    RMS_CHECK(cfg_.min_support > 0 && cfg_.min_support <= 1.0);
  }

  /// Mine alone on a single-job world with `wcfg`'s world-only fields.
  HpaResult run(sched::WorldConfig wcfg);

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
        co_await build_store(idx);
        break;
      case kCountPhase:
        co_await count(idx, k);
        break;
      case kDeterminePhase:
        co_await determine_large(idx, k);
        break;
      default:
        RMS_CHECK(false);
    }
  }
  void end_pass(const runtime::PassTiming& timing) override {
    finish_pass_report(timing);
  }
  void end_pass_local(std::size_t idx, std::size_t /*pass*/) override {
    retire_store(idx);
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

  /// An itemset's (owner participant, local line).
  std::pair<std::size_t, core::LineId> place(const Itemset& s) const {
    const std::size_t gline = global_line(s);
    if (cuts_.empty()) {
      return {gline % cfg_.app_nodes,
              static_cast<core::LineId>(gline / cfg_.app_nodes)};
    }
    const std::size_t q = gline / kWeightResolution;
    const std::size_t r = gline % kWeightResolution;
    std::size_t owner = 0;
    while (r >= cuts_[owner + 1]) ++owner;
    const std::size_t width = cuts_[owner + 1] - cuts_[owner];
    return {owner, static_cast<core::LineId>(q * width + (r - cuts_[owner]))};
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
  sim::Task<> pass1(std::size_t idx);
  sim::Task<> build_store(std::size_t idx);
  sim::Task<> count(std::size_t idx, std::size_t k);
  sim::Task<> determine_large(std::size_t idx, std::size_t k);

  void generate_candidates(std::size_t k);
  void finish_pass_report(const runtime::PassTiming& timing);
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
};

// ---------------------------------------------------------------------------
// Pass 1: local item counting + all-to-all count exchange.
// ---------------------------------------------------------------------------

sim::Task<> HpaWorkload::pass1(std::size_t idx) {
  Node& node = app_node(idx);
  const mining::TransactionDb& part = partitions_[idx];
  const cluster::CostModel& costs = node.costs();

  // Scan the local partition from the data disk and count its items.
  std::vector<std::uint32_t> counts(cfg_.workload.num_items, 0);
  sched::PartitionScan scan(node, part, cfg_.io_block_bytes);
  for (std::size_t t = 0; t < part.size(); ++t) {
    if (scan.next()) co_await scan.catch_up();
    for (mining::Item it : part.tx(t)) {
      RMS_CHECK(it < counts.size());
      ++counts[it];
    }
  }
  co_await scan.finish();

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
    ++share[place(c).first];
  });
  cand_by_owner_.assign(cfg_.app_nodes, {});
  for (std::size_t i = 0; i < cfg_.app_nodes; ++i) {
    cand_by_owner_[i].reserve(share[i]);
  }
  total_candidates_ = 0;
  mining::for_each_candidate(global_large_prev_, [&](const Itemset& c) {
    ++total_candidates_;
    const auto [owner, line] = place(c);
    cand_by_owner_[owner].emplace_back(line, c);
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

sim::Task<> HpaWorkload::build_store(std::size_t idx) {
  Node& node = app_node(idx);
  const cluster::CostModel& costs = node.costs();

  core::HashLineStore::Config scfg = store_config(local_line_count(idx));
  scfg.eviction = cfg_.eviction;
  scfg.message_block_bytes = cfg_.message_block_bytes;
  if (cfg_.remote_determination) scfg.fetch_filter_min_count = min_count_;
  scfg.replicate_k = cfg_.replicate_k;
  scfg.quarantine_after = cfg_.quarantine_after;
  scfg.integrity_disk_shadow = cfg_.integrity_disk_shadow;
  scfg.rpc_deadline = cfg_.rpc_deadline;
  scfg.rpc_max_retries = cfg_.rpc_max_retries;
  scfg.rpc_window = cfg_.rpc_window;
  create_store(idx, scfg);

  // Full candidate-stream scan (hash + destination test for every
  // candidate, §2.2 step 1).
  co_await node.compute(costs.per_candidate_gen * total_candidates_);

  // Insert this node's share into the (possibly limited) store.
  auto& own = cand_by_owner_[idx];
  co_await sched::build_lines(
      node, *stores_[idx], own.size(), costs.per_probe,
      [&own](std::size_t j) { return own[j].first; },
      [&own](std::size_t j) { return own[j].second; });
  own.clear();
  own.shrink_to_fit();
}

// ---------------------------------------------------------------------------
// Counting phase: every node scans its partition and ships each k-subset of
// large items to the owner of its hash line, which probes it (§2.2 step 2).
// ---------------------------------------------------------------------------

sim::Task<> HpaWorkload::count(std::size_t idx, std::size_t k) {
  sched::ShuffleSpec spec;
  spec.tag = kCountData;
  spec.element_bytes = static_cast<std::int64_t>(k) * 4 + 4;
  spec.block_bytes = cfg_.message_block_bytes;
  spec.io_block_bytes = cfg_.io_block_bytes;
  const auto keep = [this](mining::Item it) {
    return it < is_large1_.size() && is_large1_[it] != 0;
  };
  co_await sched::shuffle_phase<Itemset>(
      app_node(idx), env_.app_nodes, idx, *stores_[idx], partitions_[idx],
      spec,
      [k, keep](std::span<const mining::Item> tx, std::vector<Itemset>& out) {
        mining::for_each_k_subset(
            tx, k, keep, [&out](const Itemset& s) { out.push_back(s); });
      },
      [this](const Itemset& s) { return place(s); });
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
  attach(env);
  build_partition_cuts();
  prepare_inputs();
  // Mining proper: the generic phased runner owns barriers, phase spans,
  // invariant hooks, and per-pass report assembly; this class is the
  // Workload it drives. The first phased pass is 2 because pass 1 is the
  // prologue (no hash-line store, no phases — see pass1()). The 10 ms
  // warmup lets the first availability broadcasts land before any swap
  // decision.
  start_runner(2, cfg_.max_k, msec(10), std::move(on_done));
}

HpaResult HpaWorkload::run(sched::WorldConfig wcfg) {
  sched::PhasedResult r = run_standalone(std::move(wcfg));
  result_.total_time = r.total_time;
  result_.phase_names = std::move(r.phase_names);
  result_.stats = std::move(r.stats);
  result_.failover = r.failover;
  result_.integrity = r.integrity;
  for (const PassReport& p : result_.passes) {
    result_.mined.passes.push_back(
        mining::PassInfo{p.k, p.candidates_global, p.large_global});
  }
  return std::move(result_);
}

void HpaWorkload::fill_report(sched::JobReport& rep) {
  if (rep.completed) {
    rep.exact = check_exactness();
    rep.summary = "large=" + std::to_string(result_.mined.support.size());
  }
}

/// The world-only fields of the single-job world run_hpa() builds.
sched::WorldConfig world_fields(const HpaConfig& cfg) {
  sched::WorldConfig w;
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
  return w;
}

}  // namespace

HpaResult run_hpa(const HpaConfig& config) {
  return HpaWorkload(config).run(world_fields(config));
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
