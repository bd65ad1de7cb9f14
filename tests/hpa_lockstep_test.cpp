// Lockstep regression: the runtime-ported HPA must reproduce the
// pre-refactor miner bit-for-bit in virtual time.
//
// The expected integer-nanosecond values below were captured from the
// original hpa::Runner (hard-coded app_main/coordinator loop, commit
// 242cffd) on three configurations that exercise every phase path: an
// unconstrained run, a memory-limited remote-update run (pagefaults,
// swap-outs, and update batching all active), and a crash-failover run
// (replication, failure detection, re-replication). Any divergence --
// one extra await, a reordered barrier, a changed charge -- shifts these
// totals and fails the test.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "hpa/hpa.hpp"
#include "mining/generator.hpp"

namespace rms::hpa {
namespace {

mining::QuestParams small_workload() {
  mining::QuestParams p;
  p.num_transactions = 3000;
  p.num_items = 200;
  p.avg_transaction_size = 8;
  p.avg_pattern_size = 3;
  p.num_patterns = 40;
  p.seed = 3;
  return p;
}

HpaConfig small_config() {
  HpaConfig c;
  c.app_nodes = 4;
  c.memory_nodes = 4;
  c.workload = small_workload();
  c.min_support = 0.02;
  c.hash_lines = 4096;
  return c;
}

/// One pass of the pre-refactor reference: candidate count, large count,
/// duration, and the build/count/determine phase breakdown, all integer ns.
struct PassRef {
  std::int64_t k;
  std::int64_t candidates;
  std::int64_t large;
  Time duration;
  Time build;
  Time count;
  Time determine;
};

// Pass 1 has no phase breakdown (the prologue runs outside the phase loop).
const std::vector<PassRef> kNoLimitRef = {
    {1, 200, 79, 17015284, 0, 0, 0},
    {2, 3081, 345, 584710267, 27924000, 540286267, 16500000},
    {3, 1227, 111, 1311660500, 11288000, 1293092500, 7280000},
    {4, 56, 11, 2394787167, 544000, 2392946767, 1296400},
    {5, 2, 1, 3529661567, 28000, 3528639300, 994267},
};
constexpr Time kNoLimitTotal = 7847834785;

void expect_pass(const HpaResult& r, const PassRef& ref) {
  const PassReport* p = r.pass(static_cast<std::size_t>(ref.k));
  ASSERT_NE(p, nullptr) << "pass " << ref.k;
  EXPECT_EQ(p->candidates_global, ref.candidates) << "pass " << ref.k;
  EXPECT_EQ(p->large_global, ref.large) << "pass " << ref.k;
  EXPECT_EQ(p->duration, ref.duration) << "pass " << ref.k;
  if (ref.k == 1) {
    EXPECT_TRUE(p->phase_time.empty()) << "pass 1 has no phase loop";
    return;
  }
  ASSERT_EQ(p->phase_time.size(), kNumPhases) << "pass " << ref.k;
  EXPECT_EQ(p->phase(kBuildPhase), ref.build) << "pass " << ref.k;
  EXPECT_EQ(p->phase(kCountPhase), ref.count) << "pass " << ref.k;
  EXPECT_EQ(p->phase(kDeterminePhase), ref.determine) << "pass " << ref.k;
}

TEST(HpaLockstep, NoLimitRunIsBitIdenticalToPreRefactorRunner) {
  const HpaResult r = run_hpa(small_config());
  EXPECT_EQ(r.total_time, kNoLimitTotal);
  ASSERT_EQ(r.passes.size(), kNoLimitRef.size());
  for (const PassRef& ref : kNoLimitRef) expect_pass(r, ref);
  for (const PassReport& p : r.passes) {
    EXPECT_EQ(p.max_pagefaults(), 0) << "pass " << p.k;
  }
  // The registry-driven phase names match the old hard-coded order.
  ASSERT_EQ(r.phase_names.size(), kNumPhases);
  EXPECT_EQ(r.phase_names[kBuildPhase], "build");
  EXPECT_EQ(r.phase_names[kCountPhase], "count");
  EXPECT_EQ(r.phase_names[kDeterminePhase], "determine");
}

TEST(HpaLockstep, RemoteUpdateUnderLimitIsBitIdentical) {
  HpaConfig c = small_config();
  c.memory_limit_bytes = 8 << 10;
  c.policy = core::SwapPolicy::kRemoteUpdate;
  const HpaResult r = run_hpa(c);
  EXPECT_EQ(r.total_time, 8464579494);

  // Only pass 2 exceeds the 8 KB limit; passes 3-5 fit and replay the
  // unconstrained timings exactly.
  std::vector<PassRef> ref = kNoLimitRef;
  ref[1].duration = 1201454976;
  ref[1].build = 608396307;
  ref[1].count = 547092000;
  ref[1].determine = 45966669;
  for (const PassRef& pr : ref) expect_pass(r, pr);

  const PassReport* p2 = r.pass(2);
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(p2->pagefaults_per_node, (std::vector<std::int64_t>{97, 92, 78, 86}));
  EXPECT_EQ(p2->swap_outs_per_node,
            (std::vector<std::int64_t>{437, 438, 442, 423}));
  EXPECT_EQ(p2->updates_per_node,
            (std::vector<std::int64_t>{11098, 11539, 11968, 11800}));
}

TEST(HpaLockstep, CrashFailoverRunIsBitIdentical) {
  HpaConfig c = small_config();
  c.memory_limit_bytes = 8 << 10;
  c.policy = core::SwapPolicy::kRemoteSwap;
  c.replicate_k = 1;
  c.validate_invariants = true;
  c.crashes.push_back({0, sec(2), -1});
  const HpaResult r = run_hpa(c);
  EXPECT_EQ(r.total_time, 53905897312);

  std::vector<PassRef> ref = kNoLimitRef;
  ref[1].duration = 46642772794;
  ref[1].build = 1111815093;
  ref[1].count = 45406105433;
  ref[1].determine = 124852268;
  for (const PassRef& pr : ref) expect_pass(r, pr);

  const PassReport* p2 = r.pass(2);
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(p2->pagefaults_per_node,
            (std::vector<std::int64_t>{6888, 6532, 6905, 6658}));
  EXPECT_EQ(p2->swap_outs_per_node,
            (std::vector<std::int64_t>{7220, 6884, 7266, 7004}));
  EXPECT_EQ(p2->updates_per_node, (std::vector<std::int64_t>{0, 0, 0, 0}));
}

}  // namespace
}  // namespace rms::hpa
