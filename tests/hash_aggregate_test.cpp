// hash_aggregate integration tests: the distributed group-by on the phased
// runtime must reproduce the scalar single-pass reference exactly under
// every swap backend, and its runtime-assembled report must be coherent.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "mining/generator.hpp"
#include "workloads/hash_aggregate.hpp"

namespace rms::workloads {
namespace {

mining::QuestParams small_workload() {
  mining::QuestParams p;
  p.num_transactions = 2000;
  p.num_items = 150;
  p.avg_transaction_size = 8;
  p.avg_pattern_size = 3;
  p.num_patterns = 30;
  p.seed = 7;
  return p;
}

HashAggregateConfig small_config() {
  HashAggregateConfig c;
  c.app_nodes = 4;
  c.memory_nodes = 4;
  c.workload = small_workload();
  c.hash_lines = 1024;
  return c;
}

/// The scalar reference the workload checks itself against, recomputed
/// independently here so `exact` cannot be trivially self-consistent.
std::map<mining::Item, std::int64_t> scalar_counts(
    const mining::TransactionDb& db) {
  std::map<mining::Item, std::int64_t> counts;
  for (std::size_t i = 0; i < db.size(); ++i) {
    for (const mining::Item item : db.tx(i)) ++counts[item];
  }
  return counts;
}

TEST(HashAggregate, MatchesScalarReferenceNoLimit) {
  const HashAggregateConfig cfg = small_config();
  const HashAggregateResult r = run_hash_aggregate(cfg);
  EXPECT_TRUE(r.exact);
  EXPECT_GT(r.total_time, 0);
  EXPECT_EQ(r.pagefaults, 0);

  const mining::TransactionDb db =
      mining::QuestGenerator(cfg.workload).generate();
  const auto ref = scalar_counts(db);
  ASSERT_EQ(r.groups.size(), ref.size());
  for (const mining::CountedItemset& g : r.groups) {
    ASSERT_EQ(g.items.size(), 1u);
    const auto it = ref.find(g.items[0]);
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(static_cast<std::int64_t>(g.count), it->second);
  }
  // Sorted by item, no zero-count groups.
  for (std::size_t i = 1; i < r.groups.size(); ++i) {
    EXPECT_LT(r.groups[i - 1].items[0], r.groups[i].items[0]);
  }
  for (const mining::CountedItemset& g : r.groups) EXPECT_GT(g.count, 0u);
}

TEST(HashAggregate, ExactUnderEverySwapBackend) {
  for (const core::SwapPolicy policy :
       {core::SwapPolicy::kDiskSwap, core::SwapPolicy::kRemoteSwap,
        core::SwapPolicy::kRemoteUpdate, core::SwapPolicy::kTiered}) {
    HashAggregateConfig c = small_config();
    // 150 items x 24 B across 4 nodes is ~900 B of groups per node; a
    // 256 B limit forces the table through the swap machinery.
    c.memory_limit_bytes = 256;
    c.policy = policy;
    c.validate_invariants = true;
    if (policy == core::SwapPolicy::kTiered) {
      c.tiered_remote_budget_bytes = 128;
    }
    const HashAggregateResult r = run_hash_aggregate(c);
    EXPECT_TRUE(r.exact) << core::to_string(policy);
    EXPECT_GT(r.swap_outs, 0) << core::to_string(policy);
    if (policy == core::SwapPolicy::kRemoteUpdate) {
      // Scan probes to evicted lines become one-way updates, not faults.
      EXPECT_GT(r.updates_sent, 0);
    } else {
      EXPECT_GT(r.pagefaults, 0) << core::to_string(policy);
    }
  }
}

TEST(HashAggregate, StatsCarryBackendAndPlacementCounters) {
  HashAggregateConfig c = small_config();
  c.memory_limit_bytes = 256;
  c.policy = core::SwapPolicy::kRemoteSwap;
  const HashAggregateResult r = run_hash_aggregate(c);
  ASSERT_GT(r.swap_outs, 0);
  EXPECT_EQ(r.stats.counter("backend.remote.swap_outs"), r.swap_outs);
  EXPECT_EQ(r.stats.counter("backend.remote.faults"), r.pagefaults);
  EXPECT_EQ(r.stats.counter("placement.paper-rr.chosen"), r.swap_outs);
}

TEST(HashAggregate, RunsAreDeterministic) {
  HashAggregateConfig c = small_config();
  c.memory_limit_bytes = 256;
  c.policy = core::SwapPolicy::kRemoteSwap;
  const HashAggregateResult a = run_hash_aggregate(c);
  const HashAggregateResult b = run_hash_aggregate(c);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.pagefaults, b.pagefaults);
  EXPECT_EQ(a.swap_outs, b.swap_outs);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t i = 0; i < a.groups.size(); ++i) {
    EXPECT_EQ(a.groups[i].count, b.groups[i].count);
  }
}

TEST(HashAggregate, ReportCarriesPhaseBreakdownThatTilesThePass) {
  const HashAggregateResult r = run_hash_aggregate(small_config());
  ASSERT_EQ(r.phase_names.size(), kAggNumPhases);
  EXPECT_EQ(r.phase_names[kAggBuildPhase], "build");
  EXPECT_EQ(r.phase_names[kAggScanPhase], "scan");
  EXPECT_EQ(r.phase_names[kAggCollectPhase], "collect");
  ASSERT_EQ(r.passes.size(), 1u);
  const runtime::PassTiming& t = r.passes[0];
  ASSERT_EQ(t.phase_end.size(), kAggNumPhases);
  Time sum = 0;
  for (std::size_t p = 0; p < kAggNumPhases; ++p) {
    EXPECT_GT(t.phase_time(p), 0) << r.phase_names[p];
    sum += t.phase_time(p);
  }
  // Barrier-aligned windows tile the pass exactly.
  EXPECT_EQ(sum, t.duration());
  EXPECT_EQ(r.total_time, t.end);
}

TEST(HashAggregate, SharedDbAvoidsRegeneration) {
  HashAggregateConfig c = small_config();
  const mining::TransactionDb db =
      mining::QuestGenerator(c.workload).generate();
  c.shared_db = &db;
  const HashAggregateResult r = run_hash_aggregate(c);
  EXPECT_TRUE(r.exact);
  const auto ref = scalar_counts(db);
  EXPECT_EQ(r.groups.size(), ref.size());
}

}  // namespace
}  // namespace rms::workloads
