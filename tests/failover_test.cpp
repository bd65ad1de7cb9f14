// Failover integration tests (robustness extension): memory-node crashes
// mid-run must never hang or abort the miner. Without replication the run
// degrades — orphaned lines lose their counts, but counts never inflate and
// the run completes. With replicate_k = 1 a single crash is invisible: the
// mining result stays bit-identical to the sequential reference.
#include <gtest/gtest.h>

#include "hpa/hpa.hpp"
#include "mining/apriori.hpp"
#include "mining/generator.hpp"

namespace rms::hpa {
namespace {

mining::QuestParams workload() {
  mining::QuestParams p;
  p.num_transactions = 6000;
  p.num_items = 200;
  p.avg_transaction_size = 8;
  p.avg_pattern_size = 3;
  p.num_patterns = 40;
  p.seed = 21;
  return p;
}

HpaConfig config(const mining::TransactionDb* db, core::SwapPolicy policy) {
  HpaConfig c;
  c.app_nodes = 4;
  c.memory_nodes = 6;
  c.workload = workload();
  c.min_support = 0.01;
  c.hash_lines = 2048;
  c.shared_db = db;
  c.policy = policy;
  // Fast monitor + tight RPC deadlines so crashes are noticed at test scale
  // (both the heartbeat detector and the in-band deadline path fire within a
  // fraction of a pass).
  c.monitor_interval = msec(200);
  c.rpc_deadline = msec(500);
  c.rpc_max_retries = 1;
  // Run the full store + backend invariant sweep (replica/holder
  // cross-consistency, update-batch byte accounting) at every phase barrier.
  c.validate_invariants = true;
  return c;
}

class FailoverFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new mining::TransactionDb(
        mining::QuestGenerator(workload()).generate());
    seq_ = new mining::AprioriResult(apriori(*db_, 0.01));
    HpaConfig probe = config(db_, core::SwapPolicy::kNoLimit);
    const HpaResult nolimit = run_hpa(probe);
    const PassReport* p2 = nolimit.pass(2);
    std::int64_t max_cand = 0;
    for (std::int64_t c : p2->candidates_per_node) {
      max_cand = std::max(max_cand, c);
    }
    limit_ = max_cand * 24 * 6 / 10;
    // Crash mid-way through the run: pass-2 counting is in full swing and
    // plenty of lines are swapped out.
    crash_at_ = nolimit.total_time / 3;
  }
  static void TearDownTestSuite() {
    delete db_;
    delete seq_;
  }

  static void expect_same_mining(const mining::AprioriResult& a,
                                 const mining::AprioriResult& b) {
    ASSERT_EQ(a.support.size(), b.support.size());
    for (const auto& [itemset, count] : a.support) {
      const auto it = b.support.find(itemset);
      ASSERT_NE(it, b.support.end()) << itemset.to_string();
      EXPECT_EQ(it->second, count) << itemset.to_string();
    }
  }

  /// Degraded runs may lose counts (orphaned lines) but can never invent
  /// them: every itemset reported large must be genuinely large, with a
  /// count no higher than the sequential truth.
  static void expect_counts_not_inflated(const mining::AprioriResult& truth,
                                         const mining::AprioriResult& got) {
    for (const auto& [itemset, count] : got.support) {
      const auto it = truth.support.find(itemset);
      ASSERT_NE(it, truth.support.end()) << itemset.to_string();
      EXPECT_LE(count, it->second) << itemset.to_string();
    }
  }

  static mining::TransactionDb* db_;
  static mining::AprioriResult* seq_;
  static std::int64_t limit_;
  static Time crash_at_;
};

mining::TransactionDb* FailoverFixture::db_ = nullptr;
mining::AprioriResult* FailoverFixture::seq_ = nullptr;
std::int64_t FailoverFixture::limit_ = 0;
Time FailoverFixture::crash_at_ = 0;

TEST_F(FailoverFixture, NoDestinationDegradesToDiskExactly) {
  // Every memory node withdraws its memory before the first eviction: the
  // availability table never offers a destination with headroom, so all
  // evictions take the disk-swap path. Disk swapping is lossless — the
  // result stays exact. (A crash instead of a withdrawal would race the
  // monitors' t=0 broadcast: one-way swap-outs aimed at a node that just
  // died are lost by design and orphan their lines.)
  HpaConfig c = config(db_, core::SwapPolicy::kRemoteUpdate);
  c.memory_limit_bytes = limit_;
  for (std::size_t i = 0; i < c.memory_nodes; ++i) {
    c.withdrawals.push_back({i, msec(1)});
  }
  const HpaResult r = run_hpa(c);
  expect_same_mining(*seq_, r.mined);
  EXPECT_GT(r.failover.degraded_evictions, 0);
  EXPECT_EQ(r.failover.orphaned_lines, 0);
  EXPECT_EQ(r.failover.promoted_lines, 0);
}

TEST_F(FailoverFixture, MidRunCrashOfEveryMemoryNodeStillCompletes) {
  // The worst case: all remote state vanishes mid-pass-2. Orphaned lines
  // restart empty (their counts are lost), later evictions degrade to disk,
  // and the run must still terminate with a sane (never inflated) result.
  HpaConfig c = config(db_, core::SwapPolicy::kRemoteUpdate);
  c.memory_limit_bytes = limit_;
  for (std::size_t i = 0; i < c.memory_nodes; ++i) {
    c.crashes.push_back({i, crash_at_, -1});
  }
  const HpaResult r = run_hpa(c);
  expect_counts_not_inflated(*seq_, r.mined);
  EXPECT_GT(r.failover.suspicions, 0);
  EXPECT_GT(r.failover.orphaned_lines, 0);
  EXPECT_EQ(r.failover.promoted_lines, 0);
}

TEST_F(FailoverFixture, SingleCrashWithoutReplicationDegrades) {
  HpaConfig c = config(db_, core::SwapPolicy::kRemoteUpdate);
  c.memory_limit_bytes = limit_;
  c.crashes = {{0, crash_at_, -1}};
  const HpaResult r = run_hpa(c);
  expect_counts_not_inflated(*seq_, r.mined);
  EXPECT_GT(r.failover.suspicions, 0);
  EXPECT_EQ(r.failover.promoted_lines, 0);
}

TEST_F(FailoverFixture, ReplicationMakesSingleCrashExact) {
  // The acceptance bar: replicate_k = 1, crash one memory node mid-pass-2,
  // and the mining result is bit-identical to the no-fault / sequential
  // reference — every lost primary had a live backup to promote. At
  // rpc_window 4 the end-of-pass fetch pipelines across the surviving
  // holders after the recovery.
  for (const int window : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "rpc_window=" << window);
    HpaConfig c = config(db_, core::SwapPolicy::kRemoteUpdate);
    c.memory_limit_bytes = limit_;
    c.replicate_k = 1;
    c.rpc_window = window;
    c.crashes = {{0, crash_at_, -1}};
    const HpaResult r = run_hpa(c);
    expect_same_mining(*seq_, r.mined);
    EXPECT_GT(r.failover.replicas_stored, 0);
    EXPECT_GT(r.failover.promoted_lines, 0);
    EXPECT_EQ(r.failover.orphaned_lines, 0);
  }
}

TEST_F(FailoverFixture, ReplicationAloneDoesNotPerturbTheResult) {
  HpaConfig c = config(db_, core::SwapPolicy::kRemoteUpdate);
  c.memory_limit_bytes = limit_;
  c.replicate_k = 1;
  const HpaResult r = run_hpa(c);
  expect_same_mining(*seq_, r.mined);
  EXPECT_GT(r.failover.replicas_stored, 0);
  EXPECT_EQ(r.failover.promoted_lines, 0);
  EXPECT_EQ(r.failover.suspicions, 0);
}

TEST_F(FailoverFixture, ReplicationProtectsSimpleSwappingToo) {
  HpaConfig c = config(db_, core::SwapPolicy::kRemoteSwap);
  c.memory_limit_bytes = limit_;
  c.replicate_k = 1;
  c.crashes = {{0, crash_at_, -1}};
  const HpaResult r = run_hpa(c);
  expect_same_mining(*seq_, r.mined);
  EXPECT_GT(r.failover.replicas_stored, 0);
  EXPECT_EQ(r.failover.orphaned_lines, 0);
}

TEST_F(FailoverFixture, CrashedNodeRestartsAndRejoins) {
  HpaConfig c = config(db_, core::SwapPolicy::kRemoteUpdate);
  c.memory_limit_bytes = limit_;
  c.replicate_k = 1;
  // Restart well before the run ends (the faulty run takes at least as long
  // as the unlimited probe, which ran to 3 * crash_at_).
  c.crashes = {{0, crash_at_, crash_at_ * 2}};
  const HpaResult r = run_hpa(c);
  expect_same_mining(*seq_, r.mined);
  EXPECT_EQ(r.stats.counter("node.crashes"), 1);
  EXPECT_EQ(r.stats.counter("node.restarts"), 1);
}

TEST_F(FailoverFixture, LossBurstIsAbsorbedByRetransmission) {
  // A scripted period of 30% message loss mid-pass-2 (no crash): the
  // transport retransmits, nothing is declared dead (the heartbeat
  // threshold is raised well above the burst), and the result stays exact.
  HpaConfig c = config(db_, core::SwapPolicy::kRemoteUpdate);
  c.memory_limit_bytes = limit_;
  c.rpc_deadline = msec(2000);  // ride out retransmission delays
  c.rpc_max_retries = 2;
  c.suspect_after_misses = 30;  // a 500 ms burst must not look like a crash
  c.loss_bursts = {{crash_at_, msec(500), 0.3}};
  const HpaResult r = run_hpa(c);
  expect_same_mining(*seq_, r.mined);
  EXPECT_GT(r.stats.counter("net.retransmissions"), 0);
  EXPECT_EQ(r.failover.orphaned_lines, 0);
}

}  // namespace
}  // namespace rms::hpa
