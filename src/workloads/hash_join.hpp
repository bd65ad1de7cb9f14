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

#include "sched/job.hpp"

namespace rms::workloads {

// Phase ids in the runtime phase registry, in registration order.
inline constexpr std::size_t kJoinBuildPhase = 0;  // insert R partition
inline constexpr std::size_t kJoinProbePhase = 1;  // count S matches
inline constexpr std::size_t kJoinNumPhases = 2;

/// The join's settings; the cluster shape, build-table limit, swap
/// policy, tiered budget, invariant sweep and observability sinks come from
/// sched::PhasedConfig.
struct HashJoinConfig : sched::PhasedConfig {
  HashJoinConfig() {
    memory_limit_bytes = 192'000;  // spills part of every build table
    policy = core::SwapPolicy::kRemoteSwap;
  }

  std::size_t lines_per_node = 512;

  std::int64_t build_rows = 40'000;
  std::int64_t probe_rows = 40'000;
  std::uint32_t keys = 5'000;
  std::uint64_t build_seed = 11;
  std::uint64_t probe_seed = 22;
};

/// One pass (build + probe), the store counters and fault ledgers, and the
/// merged counters (sched::PhasedResult), plus the join's own figures.
struct HashJoinResult : sched::PhasedResult {
  std::uint64_t output = 0;    // counting-join cardinality
  std::uint64_t expected = 0;  // in-memory scalar reference
  bool exact() const { return output == expected; }
};

/// Runs the join alone on a single-job sched::World: memory servers with
/// availability monitors on the memory_nodes donors, and a broker and
/// availability client per application node. The join starts at t=0,
/// before the first broadcast lands, so its first evictions may degrade to
/// the local disk.
HashJoinResult run_hash_join(const HashJoinConfig& config);

/// The same join as a job for a shared sched::World, run on
/// scheduler-leased slots. config.metrics and config.profiler must be
/// null, and the shared world's donor pool stands in for
/// config.memory_nodes. config.trace may point at the world's shared
/// recorder.
sched::JobRuntimePtr make_hash_join_job(HashJoinConfig config);

}  // namespace rms::workloads
