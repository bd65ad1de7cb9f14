// Property-based sweeps over the full system: for EVERY (swap policy x
// memory-limit fraction x memory-node count x eviction policy) combination,
// the distributed miner must produce exactly the sequential miner's large
// itemsets and supports, and the run reports must satisfy the structural
// invariants the experiments rely on.
#include <gtest/gtest.h>

#include <tuple>

#include "hpa/hpa.hpp"
#include "mining/apriori.hpp"
#include "mining/generator.hpp"

namespace rms::hpa {
namespace {

mining::QuestParams tiny_workload() {
  mining::QuestParams p;
  p.num_transactions = 1500;
  p.num_items = 120;
  p.avg_transaction_size = 8;
  p.avg_pattern_size = 3;
  p.num_patterns = 30;
  p.seed = 31;
  return p;
}

struct SharedWorld {
  mining::TransactionDb db;
  mining::AprioriResult seq;
  std::int64_t busiest_candidates;

  SharedWorld()
      : db(mining::QuestGenerator(tiny_workload()).generate()),
        seq(mining::apriori(db, 0.015)) {
    HpaConfig probe;
    probe.app_nodes = 4;
    probe.memory_nodes = 2;
    probe.workload = tiny_workload();
    probe.min_support = 0.015;
    probe.hash_lines = 1024;
    probe.shared_db = &db;
    const HpaResult r = run_hpa(probe);
    busiest_candidates = 0;
    for (std::int64_t c : r.pass(2)->candidates_per_node) {
      busiest_candidates = std::max(busiest_candidates, c);
    }
  }
};

SharedWorld& world() {
  static SharedWorld* w = new SharedWorld();
  return *w;
}

using PolicyCase =
    std::tuple<core::SwapPolicy, double /*limit fraction*/,
               std::size_t /*memory nodes*/, core::EvictionPolicy>;

class HpaPropertyTest : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(HpaPropertyTest, MinesExactlyAndObeysInvariants) {
  const auto [policy, fraction, memory_nodes, eviction] = GetParam();
  SharedWorld& w = world();

  HpaConfig cfg;
  cfg.app_nodes = 4;
  cfg.memory_nodes = memory_nodes;
  cfg.workload = tiny_workload();
  cfg.min_support = 0.015;
  cfg.hash_lines = 1024;
  cfg.shared_db = &w.db;
  cfg.policy = policy;
  cfg.eviction = eviction;
  cfg.memory_limit_bytes = static_cast<std::int64_t>(
      static_cast<double>(w.busiest_candidates) * 24.0 * fraction);

  const HpaResult r = run_hpa(cfg);

  // 1. Exact mining equality with the sequential reference.
  ASSERT_EQ(w.seq.support.size(), r.mined.support.size());
  for (const auto& [itemset, count] : w.seq.support) {
    const auto it = r.mined.support.find(itemset);
    ASSERT_NE(it, r.mined.support.end()) << itemset.to_string();
    EXPECT_EQ(it->second, count) << itemset.to_string();
  }

  // 2. Swapping occurred (the limit is below the busiest node's volume).
  const PassReport* p2 = r.pass(2);
  ASSERT_NE(p2, nullptr);
  std::int64_t swap_outs = 0;
  for (std::int64_t s : p2->swap_outs_per_node) swap_outs += s;
  EXPECT_GT(swap_outs, 0);

  // 3. Policy-specific traffic invariants.
  std::int64_t updates = 0;  // across every pass
  for (const PassReport& pass : r.passes) {
    for (std::int64_t u : pass.updates_per_node) updates += u;
  }
  if (policy == core::SwapPolicy::kRemoteUpdate) {
    EXPECT_GT(updates, 0);
    EXPECT_EQ(r.stats.counter("server.updates_applied"), updates);
  } else {
    EXPECT_EQ(updates, 0);
  }
  if (policy == core::SwapPolicy::kDiskSwap) {
    EXPECT_EQ(r.stats.counter("server.swap_out"), 0);
    EXPECT_GT(r.stats.counter("disk.write.count"), 0);
  } else {
    EXPECT_EQ(r.stats.counter("store.disk_swap_out"), 0);
  }

  // 4. Conservation: servers can only return lines they were given, and
  //    the aggregated pass report matches the global fault counter.
  EXPECT_LE(r.stats.counter("server.swap_in"),
            r.stats.counter("server.swap_out") +
                r.stats.counter("server.migrate_in"));
  std::int64_t faults = 0;  // across every pass, not just pass 2
  for (const PassReport& pass : r.passes) {
    for (std::int64_t f : pass.pagefaults_per_node) faults += f;
  }
  EXPECT_EQ(faults, r.stats.counter("store.pagefaults"));

  // 5. Timing sanity: limited run is no faster than the no-limit baseline.
  HpaConfig nolimit = cfg;
  nolimit.memory_limit_bytes = -1;
  nolimit.policy = core::SwapPolicy::kNoLimit;
  const HpaResult base = run_hpa(nolimit);
  EXPECT_GE(p2->duration, base.pass(2)->duration);
}

INSTANTIATE_TEST_SUITE_P(
    PolicySweep, HpaPropertyTest,
    ::testing::Combine(
        ::testing::Values(core::SwapPolicy::kDiskSwap,
                          core::SwapPolicy::kRemoteSwap,
                          core::SwapPolicy::kRemoteUpdate),
        ::testing::Values(0.35, 0.7),
        ::testing::Values(std::size_t{1}, std::size_t{3}),
        ::testing::Values(core::EvictionPolicy::kLru)),
    [](const ::testing::TestParamInfo<PolicyCase>& param_info) {
      std::string name = core::to_string(std::get<0>(param_info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      name += std::get<1>(param_info.param) < 0.5 ? "_tight" : "_loose";
      name += "_m" + std::to_string(std::get<2>(param_info.param));
      return name;
    });

INSTANTIATE_TEST_SUITE_P(
    EvictionSweep, HpaPropertyTest,
    ::testing::Combine(
        ::testing::Values(core::SwapPolicy::kRemoteSwap),
        ::testing::Values(0.5),
        ::testing::Values(std::size_t{2}),
        ::testing::Values(core::EvictionPolicy::kLru,
                          core::EvictionPolicy::kFifo,
                          core::EvictionPolicy::kRandom)),
    [](const ::testing::TestParamInfo<PolicyCase>& param_info) {
      return std::string("ev_") +
             core::to_string(std::get<3>(param_info.param));
    });

// Seeds sweep: the same invariants over different generated databases
// (exercises different candidate distributions and fault patterns).
class HpaSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HpaSeedTest, RemoteUpdateMatchesSequential) {
  mining::QuestParams p = tiny_workload();
  p.seed = GetParam();
  mining::TransactionDb db = mining::QuestGenerator(p).generate();
  const mining::AprioriResult seq = mining::apriori(db, 0.015);

  HpaConfig cfg;
  cfg.app_nodes = 3;  // odd node count: uneven partitions
  cfg.memory_nodes = 2;
  cfg.workload = p;
  cfg.min_support = 0.015;
  cfg.hash_lines = 1024;
  cfg.shared_db = &db;
  cfg.policy = core::SwapPolicy::kRemoteUpdate;
  cfg.memory_limit_bytes = 3000;  // well below any node's volume

  const HpaResult r = run_hpa(cfg);
  ASSERT_EQ(seq.support.size(), r.mined.support.size()) << "seed " << p.seed;
  for (const auto& [itemset, count] : seq.support) {
    const auto it = r.mined.support.find(itemset);
    ASSERT_NE(it, r.mined.support.end()) << itemset.to_string();
    EXPECT_EQ(it->second, count) << itemset.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HpaSeedTest,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u));

}  // namespace
}  // namespace rms::hpa
