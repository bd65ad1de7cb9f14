// Hash Partitioned Apriori (HPA) on the simulated ATM-connected PC cluster.
//
// This is the paper's application (§2.2, §3.3): candidate itemsets are
// partitioned across application execution nodes by a hash function; during
// the counting phase each node scans its local transaction partition, forms
// k-itemsets, and ships each to the owner node in 4 KB message blocks; the
// owner probes its hash-line store — which is where the memory limit and
// the remote-memory machinery of core:: take over.
//
// One call to `run_hpa` builds a single-job sched::World (cluster, disks,
// monitors, memory servers, failure detectors, the fault plan), launches
// the miner on it as a sched::JobRuntime — the same launch the scheduler
// performs — mines to completion, and returns both the mining result
// (bit-comparable with the sequential miner) and the per-pass timing and
// fault statistics the paper's tables and figures are built from.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/fault.hpp"
#include "common/stats.hpp"
#include "core/failover.hpp"
#include "core/integrity.hpp"
#include "core/policy.hpp"
#include "mining/apriori.hpp"
#include "mining/generator.hpp"
#include "placement/placement.hpp"
#include "sched/world.hpp"

namespace rms::obs {
class TraceRecorder;
class MetricsSampler;
class ProfileHook;
}

namespace rms::hpa {

struct HpaConfig {
  std::size_t app_nodes = 8;      // the paper's evaluation uses 8 (§5.1)
  std::size_t memory_nodes = 16;  // maximum memory-available nodes

  mining::QuestParams workload = mining::QuestParams::paper_experiment();
  double min_support = 0.001;  // paper experiment: 0.1%

  std::size_t hash_lines = 800'000;        // global candidate hash lines
  std::int64_t message_block_bytes = 4096; // §5.1
  std::int64_t io_block_bytes = 65536;     // §5.1

  /// Per-node memory usage limit for candidate itemsets; -1 disables.
  std::int64_t memory_limit_bytes = -1;
  core::SwapPolicy policy = core::SwapPolicy::kNoLimit;
  /// Victim selection for evictions (paper: LRU; others for ablation).
  core::EvictionPolicy eviction = core::EvictionPolicy::kLru;
  /// Swap-destination strategy for each node's placement::MemoryBroker
  /// (--placement on the benches). kPaperRoundRobin is bit-identical to the
  /// paper's hard-coded heuristic.
  placement::PolicyKind placement = placement::PolicyKind::kPaperRoundRobin;
  /// kTiered only: per-node byte budget for primary copies parked in remote
  /// memory; evictions past it spill to the local disk (-1 = unlimited).
  std::int64_t tiered_remote_budget_bytes = -1;
  /// Extension: memory servers filter sub-threshold entries out of
  /// end-of-pass fetches ("remote determination"), shrinking the collect
  /// transfer. Off by default (the paper ships lines back whole).
  bool remote_determination = false;

  /// Relative share of hash lines owned by each application node. Empty:
  /// uniform (line mod app_nodes). The paper's hash function produced a
  /// ~10% spread (Table 3); `paper_table3_weights()` reproduces those
  /// proportions so skew-dependent effects (the busiest node still swapping
  /// at the 15 MB limit) appear. Requires hash_lines % 10000 == 0.
  std::vector<double> partition_weights;

  Time monitor_interval = sec(3);
  std::int64_t shortage_threshold_bytes = 256 << 10;
  std::size_t max_k = mining::Itemset::kMaxK;

  cluster::ClusterConfig cluster;  // costs/link/disks; num_nodes is derived

  // ---- fault injection, installed by the world (sched::WorldConfig) ----
  /// Memory-node withdrawals for the migration experiment (Figure 5).
  using Withdrawal = sched::WorldConfig::Withdrawal;
  std::vector<Withdrawal> withdrawals;
  /// Crash-stops of memory-available nodes (robustness extension).
  using Crash = sched::WorldConfig::Crash;
  std::vector<Crash> crashes;
  /// Scripted periods of elevated message loss on every link.
  std::vector<cluster::FaultPlan::LossBurst> loss_bursts;
  /// Payload-corruption episodes (integrity extension).
  using Corruption = sched::WorldConfig::Corruption;
  std::vector<Corruption> corruption;
  /// Quarantine a holder in the placement broker after this many checksum
  /// mismatches on payloads it served (it stops attracting swap-outs).
  int quarantine_after = 3;
  /// kTiered only: keep a checksummed local disk shadow of every remotely
  /// parked line, enabling corruption repair without replicate_k.
  bool integrity_disk_shadow = false;
  /// Mirror each swapped-out line on a second memory node (0 or 1).
  int replicate_k = 0;
  /// Per-attempt RPC deadline / retry budget for the swap path.
  Time rpc_deadline = msec(2000);
  int rpc_max_retries = 2;
  /// Sliding-window size for swap-path and migration RPCs (transport flow
  /// control). 1 preserves the paper's fully synchronous behaviour
  /// bit-for-bit; >= 2 pipelines end-of-pass fetches across holders.
  int rpc_window = 1;
  /// Failure detector: declare a memory node dead after this many missed
  /// availability heartbeats.
  int suspect_after_misses = 3;
  /// Availability staleness: entries older than this many monitor intervals
  /// stop attracting swap-outs (0 = never expire).
  int stale_after_intervals = 0;
  /// Debug: run HashLineStore::check_invariants() (residency core plus the
  /// active backend's replica/holder/batch bookkeeping) at every phase
  /// barrier. Pure assertions — no virtual-time effect. Failover tests turn
  /// this on.
  bool validate_invariants = false;

  /// Reuse a pre-generated database (the benches sweep many configurations
  /// over one workload); when null the workload parameters generate one.
  const mining::TransactionDb* shared_db = nullptr;

  // ---- observability (all null by default: zero-cost when disabled) ----
  /// Trace sink: swap/RPC/failover spans plus per-pass phase spans. Must
  /// outlive the run. Recording is passive — virtual-time results are
  /// bit-identical with or without it.
  obs::TraceRecorder* trace = nullptr;
  /// Gauge sampler: per-node residency/RPC/staleness time-series at
  /// `monitor_interval` granularity. The runner registers its gauges, spawns
  /// the sampling process, and clears the gauges before returning.
  obs::MetricsSampler* metrics = nullptr;
  /// Profiler sink: when set, every node feeds CPU and disk busy intervals
  /// directly to it (bypassing the trace ring) so per-pass attribution stays
  /// exact even when the ring drops events. Stamped by obs::RunObserver; pair
  /// with `trace` (the profiler also consumes the recorded spans).
  obs::ProfileHook* profiler = nullptr;
};

// HPA's phase ids in the runtime phase registry, in registration (and
// execution) order. HpaResult::phase_names carries the matching names.
inline constexpr std::size_t kBuildPhase = 0;      // candidate gen + store
inline constexpr std::size_t kCountPhase = 1;      // scan + distributed probe
inline constexpr std::size_t kDeterminePhase = 2;  // collect + large exchange
inline constexpr std::size_t kNumPhases = 3;

struct PassReport {
  std::size_t k = 0;
  std::int64_t candidates_global = 0;  // paper Table 2 "C"
  std::int64_t large_global = 0;       // paper Table 2 "L"
  Time duration = 0;                   // virtual pass time (max across nodes)
  /// Barrier-to-barrier phase breakdown, indexed by the runtime phase
  /// registry (kBuildPhase/kCountPhase/kDeterminePhase); empty for pass 1.
  std::vector<Time> phase_time;
  std::vector<std::int64_t> candidates_per_node;  // paper Table 3
  std::vector<std::int64_t> pagefaults_per_node;
  std::vector<std::int64_t> swap_outs_per_node;
  std::vector<std::int64_t> updates_per_node;

  /// phase_time by registry id; 0 when the pass recorded no phases.
  Time phase(std::size_t p) const {
    return p < phase_time.size() ? phase_time[p] : 0;
  }
  std::int64_t max_pagefaults() const;  // paper Table 4 "Max"
};

struct HpaResult {
  std::vector<PassReport> passes;
  Time total_time = 0;

  /// Phase-registry names, indexed like PassReport::phase_time ("build",
  /// "count", "determine") — report rendering and the artifact key their
  /// phase tables off this so the layers cannot drift.
  std::vector<std::string> phase_names;

  /// Mining output in the same shape as the sequential miner, for equality
  /// checks and rule derivation.
  mining::AprioriResult mined;

  /// Merged counters from every node, network and disk.
  StatsRegistry stats;

  /// Failover accounting merged across every node's store and every pass
  /// (all zero when no fault-handling machinery fired).
  core::FailoverStats failover;

  /// Line-integrity accounting (checksums, repair, re-replication) merged
  /// the same way; all zero when nothing corrupted and redundancy held.
  core::IntegrityStats integrity;

  const PassReport* pass(std::size_t k) const;
};

HpaResult run_hpa(const HpaConfig& config);

/// The same miner as a job for a shared sched::World, run on
/// scheduler-leased slots. config.metrics and config.profiler must be null
/// and every fault-injection list empty (the world owns the cluster); the
/// world-level fields (memory_nodes, monitor_interval, placement,
/// rpc_window, cluster, ...) are ignored — the world supplies them.
/// config.trace may point at the world's shared recorder.
sched::JobRuntimePtr make_hpa_job(HpaConfig config);

/// The candidate-partition proportions the paper observed across its 8
/// application nodes (Table 3: 602,559 ... 607,629 of 4,871,881).
std::vector<double> paper_table3_weights();

}  // namespace rms::hpa
