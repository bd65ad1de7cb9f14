// hash_aggregate: remote-memory-backed distributed group-by over the
// transaction database — the third workload on the phased runtime.
//
// Group keys (items) are hash-partitioned across application execution
// nodes into the same per-node hash-line stores the miner uses; each node
// scans its local transaction partition and ships every item occurrence to
// the key's owner in message blocks (the HPA counting idiom), where it is
// counted by a store probe — so under a memory limit the aggregation table
// swaps to memory-available nodes and one-way remote updates apply just as
// they do to candidate itemsets. A final collect phase brings every line
// home and gathers the per-item counts on node 0.
//
// Three phases under runtime::PhasedRunner:
//   build   — create the store, insert one group entry per owned key
//   scan    — partition scan; ship keyed tuples to owners; owners probe
//   collect — fetch lines home; all-to-one count exchange to node 0
//
// The result carries the global (item, count) table plus an exactness flag
// against a scalar in-memory reference over the same database.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mining/generator.hpp"
#include "mining/itemset.hpp"
#include "mining/transaction_db.hpp"
#include "sched/job.hpp"

namespace rms::workloads {

// Phase ids in the runtime phase registry, in registration order.
inline constexpr std::size_t kAggBuildPhase = 0;
inline constexpr std::size_t kAggScanPhase = 1;
inline constexpr std::size_t kAggCollectPhase = 2;
inline constexpr std::size_t kAggNumPhases = 3;

/// The group-by's settings; the cluster shape, memory limit, swap policy,
/// tiered budget, invariant sweep and observability sinks come from
/// sched::PhasedConfig.
struct HashAggregateConfig : sched::PhasedConfig {
  /// The database to aggregate (QUEST-generated unless shared_db is set).
  mining::QuestParams workload = mining::QuestParams::paper_experiment(0.01);
  const mining::TransactionDb* shared_db = nullptr;

  std::size_t hash_lines = 4096;  // global group hash lines
};

/// One pass (build/scan/collect), the store counters and fault ledgers,
/// and the merged counters (sched::PhasedResult), plus the group table.
struct HashAggregateResult : sched::PhasedResult {
  /// Global per-item counts, sorted by item, zero-count groups omitted —
  /// gathered on node 0 in the collect phase.
  std::vector<mining::CountedItemset> groups;
  /// groups == the scalar single-pass reference over the same database.
  bool exact = false;
};

HashAggregateResult run_hash_aggregate(const HashAggregateConfig& config);

/// The same workload as a job for a shared sched::World, run on
/// scheduler-leased slots. config.metrics and config.profiler must be null
/// (the shared world cannot attribute them per job), and the shared
/// world's donor pool stands in for config.memory_nodes. config.trace may
/// point at the world's shared recorder.
sched::JobRuntimePtr make_hash_aggregate_job(HashAggregateConfig config);

}  // namespace rms::workloads
