// hash_join integration tests: the standalone distributed counting join,
// run as a one-job world, must equal the in-memory scalar join with no
// limit and under each swap policy examples/hash_join runs, and its result
// must carry the counters of the tier its spill went to.
#include <gtest/gtest.h>

#include "workloads/hash_join.hpp"

namespace rms::workloads {
namespace {

/// Two nodes, a few thousand rows, and a limit that spills part of every
/// node's build table.
HashJoinConfig small_config() {
  HashJoinConfig c;
  c.app_nodes = 2;
  c.memory_nodes = 2;
  c.build_rows = 4'000;
  c.probe_rows = 4'000;
  c.keys = 1'000;
  c.memory_limit_bytes = 24'000;
  return c;
}

TEST(HashJoin, ExactWithNoLimit) {
  HashJoinConfig c = small_config();
  c.memory_limit_bytes = -1;
  c.policy = core::SwapPolicy::kNoLimit;
  const HashJoinResult r = run_hash_join(c);
  EXPECT_TRUE(r.exact());
  EXPECT_GT(r.expected, 0u);
  EXPECT_EQ(r.pagefaults, 0);
  EXPECT_GT(r.total_time, 0);
  ASSERT_EQ(r.passes.size(), 1u);
  EXPECT_EQ(r.phase_names, (std::vector<std::string>{"build", "probe"}));
}

TEST(HashJoin, ExactUnderTheExamplePolicies) {
  for (const core::SwapPolicy policy :
       {core::SwapPolicy::kRemoteSwap, core::SwapPolicy::kDiskSwap,
        core::SwapPolicy::kTiered}) {
    HashJoinConfig c = small_config();
    c.policy = policy;
    c.validate_invariants = true;
    // As in examples/hash_join: the remote tier holds far less than the
    // spill, so both tiers see traffic.
    if (policy == core::SwapPolicy::kTiered) {
      c.tiered_remote_budget_bytes = c.memory_limit_bytes / 8;
    }
    const HashJoinResult r = run_hash_join(c);
    EXPECT_TRUE(r.exact()) << core::to_string(policy);
    EXPECT_GT(r.pagefaults, 0) << core::to_string(policy);
  }
}

TEST(HashJoin, DiskSwapRunReportsSwapDiskCounters) {
  HashJoinConfig c = small_config();
  c.policy = core::SwapPolicy::kDiskSwap;
  const HashJoinResult r = run_hash_join(c);
  ASSERT_GT(r.pagefaults, 0);
  // Every fault went to the local swap disk; the join reads no data disk.
  EXPECT_EQ(r.stats.counter("backend.disk.faults"), r.pagefaults);
  EXPECT_EQ(r.stats.counter("disk.read.count"), r.pagefaults);
  EXPECT_GT(r.stats.counter("disk.write.count"), 0);
  EXPECT_EQ(r.stats.counter("placement.paper-rr.chosen"), 0);
}

TEST(HashJoin, RemoteSwapRunReportsPlacementAndBackendCounters) {
  HashJoinConfig c = small_config();
  c.policy = core::SwapPolicy::kRemoteSwap;
  const HashJoinResult r = run_hash_join(c);
  ASSERT_GT(r.pagefaults, 0);
  EXPECT_GT(r.stats.counter("backend.remote.swap_outs"), 0);
  EXPECT_GT(r.stats.counter("placement.paper-rr.chosen"), 0);
  // The availability monitors broadcast on the join's own world.
  EXPECT_GT(r.stats.counter("monitor.broadcasts"), 0);
}

}  // namespace
}  // namespace rms::workloads
