// hash_join: distributed counting hash join R ⋈ S on the remote-memory
// machinery — the paper's "ad hoc query processing" domain.
//
// Build-side tuples are hashed into the same per-node hash-line stores the
// miner uses (entries encode (join key, row tag)); when the build side
// exceeds the per-node memory limit, lines spill to memory-available nodes
// exactly like candidate itemsets, and probe-side lookups fault them back
// (`count_matches`, a read query one-way updates cannot answer).
//
// The workload is a runtime::Workload with two phases ("build", "probe")
// driven by runtime::PhasedRunner: each application node builds and probes
// its own key partition in SPMD lockstep, so the phase skeleton (barriers,
// spans, invariant hooks) is shared with HPA instead of hand-rolled.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/time.hpp"
#include "core/policy.hpp"
#include "runtime/workload.hpp"
#include "sched/job.hpp"

namespace rms::obs {
class TraceRecorder;
class MetricsSampler;
class ProfileHook;
}

namespace rms::workloads {

// Phase ids in the runtime phase registry, in registration order.
inline constexpr std::size_t kJoinBuildPhase = 0;  // insert R partition
inline constexpr std::size_t kJoinProbePhase = 1;  // count S matches
inline constexpr std::size_t kJoinNumPhases = 2;

struct HashJoinConfig {
  std::size_t app_nodes = 4;
  std::size_t memory_nodes = 4;
  std::size_t lines_per_node = 512;

  std::int64_t build_rows = 40'000;
  std::int64_t probe_rows = 40'000;
  std::uint32_t keys = 5'000;
  std::uint64_t build_seed = 11;
  std::uint64_t probe_seed = 22;

  /// Per-node build-table limit; -1 disables (and the policy is ignored).
  std::int64_t memory_limit_bytes = 192'000;
  core::SwapPolicy policy = core::SwapPolicy::kRemoteSwap;
  /// kTiered only: remote-tier byte budget (-1 = unlimited).
  std::int64_t tiered_remote_budget_bytes = -1;

  /// Run HashLineStore::check_invariants at every phase barrier.
  bool validate_invariants = false;

  // ---- observability (all null by default: zero-cost when disabled) ----
  obs::TraceRecorder* trace = nullptr;
  obs::MetricsSampler* metrics = nullptr;
  obs::ProfileHook* profiler = nullptr;
};

struct HashJoinResult {
  std::uint64_t output = 0;    // counting-join cardinality
  std::uint64_t expected = 0;  // in-memory scalar reference
  bool exact() const { return output == expected; }

  Time total_time = 0;
  std::vector<runtime::PassTiming> passes;  // one pass: build + probe
  std::vector<std::string> phase_names;
  std::int64_t pagefaults = 0;

  /// Merged counters from every node, disk, the network, the stores'
  /// backends and the placement brokers.
  StatsRegistry stats;
};

/// Runs the join alone on a single-job sched::World: memory servers with
/// availability monitors on the memory_nodes donors, and a broker and
/// availability client per application node. The join starts at t=0,
/// before the first broadcast lands, so its first evictions may degrade to
/// the local disk.
HashJoinResult run_hash_join(const HashJoinConfig& config);

/// The same join as a job for a shared sched::World, run on
/// scheduler-leased slots. config.metrics and config.profiler must be
/// null; config.memory_nodes is ignored — the world supplies the donor
/// pool.
sched::JobRuntimePtr make_hash_join_job(HashJoinConfig config);

}  // namespace rms::workloads
