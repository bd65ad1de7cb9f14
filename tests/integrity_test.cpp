// End-to-end line-integrity tests (corruption extension): flipped bits in
// swapped lines — on the wire or at rest on a memory server — must never be
// counted into support totals. With a surviving good copy (replicate_k
// mirror or the tiered disk shadow) the run self-repairs and the mining
// result stays bit-identical to the sequential reference; with no good copy
// the line is orphaned (counts lost, never inflated). Also covers
// redundancy restoration: after a holder crash consumes backups by
// promotion, re-replication re-mirrors the survivors so a second crash is
// still harmless.
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
  // Fast monitor + tight RPC deadlines so crashes are noticed at test scale.
  c.monitor_interval = msec(200);
  c.rpc_deadline = msec(500);
  c.rpc_max_retries = 1;
  // Full invariant sweep at every phase barrier: checksum stamps, replica
  // counts vs unreplicated tracking, holder/byte accounting.
  c.validate_invariants = true;
  return c;
}

class IntegrityFixture : public ::testing::Test {
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
    // Mid-run instant: pass-2 counting in full swing, plenty swapped out.
    mid_run_ = nolimit.total_time / 3;
  }
  static void TearDownTestSuite() {
    delete db_;
    delete seq_;
  }

  /// A wire-corruption episode covering the whole (fault-lengthened) run.
  static HpaConfig::Corruption wire_episode(double flip_rate) {
    HpaConfig::Corruption ep;
    ep.at = msec(1);
    ep.duration = mid_run_ * 30;
    ep.flip_rate = flip_rate;
    return ep;
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

  /// Corrupt data must never inflate a count: every reported itemset is
  /// genuinely large with a count no higher than the sequential truth.
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
  static Time mid_run_;
};

mining::TransactionDb* IntegrityFixture::db_ = nullptr;
mining::AprioriResult* IntegrityFixture::seq_ = nullptr;
std::int64_t IntegrityFixture::limit_ = 0;
Time IntegrityFixture::mid_run_ = 0;

TEST_F(IntegrityFixture, WireCorruptionSweepWithReplicaSelfRepairs) {
  // Property sweep: policy x flip rate x rpc_window, replicate_k = 1. Every
  // detected corruption repairs from the mirror; the result can differ from
  // the sequential truth only if some line lost both copies (orphaned) —
  // and it must never inflate. At rpc_window 4 the end-of-pass fetch
  // pipelines across holders, so its replies are verified and repaired too.
  const core::SwapPolicy policies[] = {core::SwapPolicy::kRemoteUpdate,
                                       core::SwapPolicy::kRemoteSwap};
  const double rates[] = {0.001, 0.02};
  for (const int window : {1, 4}) {
    for (const core::SwapPolicy policy : policies) {
      for (const double rate : rates) {
        SCOPED_TRACE(testing::Message()
                     << core::to_string(policy) << " flip_rate=" << rate
                     << " rpc_window=" << window);
        HpaConfig c = config(db_, policy);
        c.memory_limit_bytes = limit_;
        c.replicate_k = 1;
        c.rpc_window = window;
        c.corruption = {wire_episode(rate)};
        const HpaResult r = run_hpa(c);
        expect_counts_not_inflated(*seq_, r.mined);
        if (r.failover.orphaned_lines == 0) {
          expect_same_mining(*seq_, r.mined);
        }
        if (rate >= 0.01) {
          // The high-rate runs must actually exercise the machinery.
          EXPECT_GT(r.stats.counter("net.corrupted_payloads"), 0);
        }
        if (rate <= 0.001) {
          // Acceptance bar: at realistic flip rates a single mirror absorbs
          // every hit — the output is exactly the fault-free result.
          EXPECT_EQ(r.failover.orphaned_lines, 0);
          expect_same_mining(*seq_, r.mined);
        }
      }
    }
  }
}

TEST_F(IntegrityFixture, AtRestCorruptionRepairsFromReplica) {
  // Flip bits in lines stored on every memory server mid-pass-2. Simple
  // swapping faults lines back during counting, so the owner's checksum
  // verification catches the rot in-band and promotes the mirror.
  HpaConfig c = config(db_, core::SwapPolicy::kRemoteSwap);
  c.memory_limit_bytes = limit_;
  c.replicate_k = 1;
  HpaConfig::Corruption ep;
  ep.at = mid_run_;
  ep.duration = msec(100);
  ep.rest_flip_rate = 0.05;
  c.corruption = {ep};
  const HpaResult r = run_hpa(c);
  expect_counts_not_inflated(*seq_, r.mined);
  EXPECT_GT(r.integrity.checksum_mismatches, 0);
  EXPECT_GT(r.integrity.repaired_from_replica +
                r.failover.promoted_lines, 0);
  if (r.failover.orphaned_lines == 0) expect_same_mining(*seq_, r.mined);
}

TEST_F(IntegrityFixture, ServerScrubDropsCorruptCopies) {
  // Same at-rest injection, but a scrub pass runs right after: the servers
  // drop the mismatched copies themselves, so owners see a clean miss
  // (ok=false) instead of a corrupt payload and recover via the mirror.
  HpaConfig c = config(db_, core::SwapPolicy::kRemoteSwap);
  c.memory_limit_bytes = limit_;
  c.replicate_k = 1;
  HpaConfig::Corruption ep;
  ep.at = mid_run_;
  ep.duration = msec(100);
  ep.rest_flip_rate = 0.05;
  ep.scrub = true;
  c.corruption = {ep};
  const HpaResult r = run_hpa(c);
  expect_counts_not_inflated(*seq_, r.mined);
  EXPECT_GT(r.stats.counter("server.scrub_mismatches"), 0);
  if (r.failover.orphaned_lines == 0) expect_same_mining(*seq_, r.mined);
}

TEST_F(IntegrityFixture, TieredShadowRepairsFromDiskExactly) {
  // No replica at all — the tiered backend's local disk shadow is the good
  // copy. Every corrupt remote payload repairs from the shadow, so the run
  // is exact even at an aggressive flip rate.
  HpaConfig c = config(db_, core::SwapPolicy::kTiered);
  c.memory_limit_bytes = limit_;
  c.integrity_disk_shadow = true;
  c.corruption = {wire_episode(0.02)};
  const HpaResult r = run_hpa(c);
  EXPECT_GT(r.stats.counter("net.corrupted_payloads"), 0);
  EXPECT_GT(r.integrity.repaired_from_disk, 0);
  EXPECT_EQ(r.integrity.lines_lost, 0);
  EXPECT_EQ(r.failover.orphaned_lines, 0);
  expect_same_mining(*seq_, r.mined);
}

TEST_F(IntegrityFixture, CorruptionWithoutRedundancyOrphansNeverInflates) {
  // No mirror, no shadow: a corrupt payload has no good copy left. The line
  // is orphaned — its counts are lost but garbage is never used, so the
  // result underestimates and never inflates.
  HpaConfig c = config(db_, core::SwapPolicy::kRemoteSwap);
  c.memory_limit_bytes = limit_;
  c.corruption = {wire_episode(0.05)};
  const HpaResult r = run_hpa(c);
  expect_counts_not_inflated(*seq_, r.mined);
  EXPECT_GT(r.integrity.checksum_mismatches, 0);
  EXPECT_GT(r.integrity.lines_lost, 0);
  // Every corrupt-orphan is an orphan, but a corrupted swap-out push also
  // orphans (the server rejects it, so the later fault-in just misses).
  EXPECT_LE(r.integrity.lines_lost, r.failover.orphaned_lines);
}

TEST_F(IntegrityFixture, RepeatedCorruptionQuarantinesTheHolder) {
  // One memory node serves corrupt payloads half the time. After
  // quarantine_after strikes each owner excludes it from placement; the
  // mirrors (always on other nodes) keep the run exact.
  HpaConfig c = config(db_, core::SwapPolicy::kRemoteSwap);
  c.memory_limit_bytes = limit_;
  c.replicate_k = 1;
  HpaConfig::Corruption ep = wire_episode(0.5);
  ep.memory_node_index = 0;  // only node 0's links corrupt
  c.corruption = {ep};
  const HpaResult r = run_hpa(c);
  EXPECT_GT(r.integrity.checksum_mismatches, 0);
  EXPECT_GT(r.integrity.quarantines, 0);
  expect_counts_not_inflated(*seq_, r.mined);
  if (r.failover.orphaned_lines == 0) expect_same_mining(*seq_, r.mined);
}

TEST_F(IntegrityFixture, ReReplicationSurvivesASecondCrash) {
  // Crash one holder mid-pass-2: backups are promoted (consuming the
  // redundancy) and re_replicate re-mirrors the survivors. A second crash
  // later must still find a good copy of everything — the acceptance bar
  // for redundancy restoration.
  HpaConfig c = config(db_, core::SwapPolicy::kRemoteUpdate);
  c.memory_limit_bytes = limit_;
  c.replicate_k = 1;
  c.crashes = {{0, mid_run_, -1}, {1, mid_run_ * 2, -1}};
  const HpaResult r = run_hpa(c);
  EXPECT_GT(r.failover.promoted_lines, 0);
  EXPECT_GT(r.integrity.re_replications, 0);
  EXPECT_EQ(r.failover.orphaned_lines, 0);
  expect_same_mining(*seq_, r.mined);
}

TEST_F(IntegrityFixture, ReReplicationProtectsSimpleSwappingToo) {
  HpaConfig c = config(db_, core::SwapPolicy::kRemoteSwap);
  c.memory_limit_bytes = limit_;
  c.replicate_k = 1;
  c.crashes = {{0, mid_run_, -1}, {1, mid_run_ * 2, -1}};
  const HpaResult r = run_hpa(c);
  EXPECT_GT(r.integrity.re_replications, 0);
  EXPECT_EQ(r.failover.orphaned_lines, 0);
  expect_same_mining(*seq_, r.mined);
}

TEST_F(IntegrityFixture, LostUpdateOpsNotDoubleCountedWithReplicas) {
  // Regression (failover accounting audit): update ops queued towards a
  // crashed holder used to be counted lost wholesale, even though mirror
  // ops survive at the primary and primary ops survive at the backup. With
  // full redundancy a single crash loses nothing — the result is exact and
  // the lost-op counter must agree.
  HpaConfig c = config(db_, core::SwapPolicy::kRemoteUpdate);
  c.memory_limit_bytes = limit_;
  c.replicate_k = 1;
  c.crashes = {{0, mid_run_, -1}};
  const HpaResult r = run_hpa(c);
  expect_same_mining(*seq_, r.mined);
  EXPECT_GT(r.failover.updates_mirrored, 0);
  EXPECT_EQ(r.failover.lost_update_ops, 0);
}

TEST_F(IntegrityFixture, CorruptionSeededRunsAreDeterministic) {
  // Same config, same seeds: the corruption draws, repairs, and virtual
  // timeline must replay identically.
  HpaConfig c = config(db_, core::SwapPolicy::kRemoteUpdate);
  c.memory_limit_bytes = limit_;
  c.replicate_k = 1;
  c.corruption = {wire_episode(0.02)};
  const HpaResult r1 = run_hpa(c);
  const HpaResult r2 = run_hpa(c);
  EXPECT_EQ(r1.total_time, r2.total_time);
  EXPECT_EQ(r1.integrity.checksum_mismatches, r2.integrity.checksum_mismatches);
  EXPECT_EQ(r1.integrity.lines_lost, r2.integrity.lines_lost);
  expect_same_mining(r1.mined, r2.mined);
}

}  // namespace
}  // namespace rms::hpa
