// HashLineStore tests: the memory limit, LRU line eviction, the three swap
// policies, faulting, update batching, and end-of-pass collection.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "core/hash_line_store.hpp"
#include "core/memory_server.hpp"
#include "sim/process.hpp"
#include "sim/simulation.hpp"

namespace rms::core {
namespace {

using mining::Item;
using mining::Itemset;

// A world with one application node (0) and two memory servers (1, 2) whose
// availability is pre-seeded (no monitors: tests stay fully deterministic).
struct World {
  sim::Simulation sim;
  std::unique_ptr<cluster::Cluster> cl;
  std::unique_ptr<MemoryServer> server1;
  std::unique_ptr<MemoryServer> server2;
  placement::MemoryBroker table{{1, 2}};

  World() {
    cluster::ClusterConfig cfg;
    cfg.num_nodes = 3;
    cl = std::make_unique<cluster::Cluster>(sim, cfg);
    server1 = std::make_unique<MemoryServer>(cl->node(1));
    server2 = std::make_unique<MemoryServer>(cl->node(2));
    sim.spawn(server1->serve());
    sim.spawn(server2->serve());
    table.update(AvailabilityInfo{1, 32 << 20, 1}, 0);
    table.update(AvailabilityInfo{2, 32 << 20, 1}, 0);
  }

  HashLineStore::Config config(SwapPolicy policy, std::int64_t limit,
                               std::size_t lines = 8) {
    HashLineStore::Config c;
    c.num_lines = lines;
    c.memory_limit_bytes = limit;
    c.policy = policy;
    return c;
  }
};

// Drive a store script inside a process and run to completion.
template <typename Fn>
void drive(World& w, Fn&& body) {
  bool finished = false;
  auto proc = [](Fn& f, bool& done) -> sim::Process {
    co_await f();
    done = true;
  };
  w.sim.spawn(proc(body, finished));
  w.sim.run_until(sec(100));
  ASSERT_TRUE(finished) << "store script deadlocked";
}

Itemset pair_of(Item a, Item b) { return Itemset{a, b}; }

TEST(HashLineStore, NoLimitKeepsEverythingResident) {
  World w;
  HashLineStore store(w.cl->node(0), w.config(SwapPolicy::kNoLimit, -1),
                      &w.table);
  drive(w, [&]() -> sim::Task<> {
    for (Item i = 0; i < 20; ++i) {
      co_await store.insert(i % 8, pair_of(i, i + 100));
    }
    for (Item i = 0; i < 20; ++i) {
      co_await store.probe(i % 8, pair_of(i, i + 100));
    }
  });
  EXPECT_EQ(store.size(), 20u);
  EXPECT_EQ(store.resident_bytes(), 20 * 24);
  EXPECT_EQ(store.pagefaults(), 0);
  EXPECT_EQ(store.swap_outs(), 0);
}

TEST(HashLineStore, EvictionKeepsResidencyUnderLimit) {
  World w;
  // 8 lines x 3 entries x 24 B = 576 B total; limit 300 B.
  HashLineStore store(w.cl->node(0),
                      w.config(SwapPolicy::kRemoteSwap, 300), &w.table);
  drive(w, [&]() -> sim::Task<> {
    for (Item i = 0; i < 24; ++i) {
      co_await store.insert(i % 8, pair_of(i, i + 100));
    }
  });
  EXPECT_EQ(store.total_bytes(), 24 * 24);
  EXPECT_LE(store.resident_bytes(), 300);
  EXPECT_GT(store.swap_outs(), 0);
  EXPECT_EQ(w.server1->stored_lines() + w.server2->stored_lines(),
            static_cast<std::size_t>(store.swap_outs()) -
                static_cast<std::size_t>(store.pagefaults()));
}

TEST(HashLineStore, RemoteSwapFaultsBackAndCountsCorrectly) {
  World w;
  HashLineStore store(w.cl->node(0),
                      w.config(SwapPolicy::kRemoteSwap, 4 * 24), &w.table);
  std::map<std::string, std::uint32_t> final_counts;
  drive(w, [&]() -> sim::Task<> {
    // 8 lines, one entry each; limit allows 4 resident.
    for (Item i = 0; i < 8; ++i) {
      co_await store.insert(i, pair_of(i, i + 100));
    }
    store.set_phase(HashLineStore::Phase::kCount);
    // Probe every line 3x: swapped-out lines fault back in.
    for (int round = 0; round < 3; ++round) {
      for (Item i = 0; i < 8; ++i) {
        co_await store.probe(i, pair_of(i, i + 100));
      }
    }
    co_await store.collect([&](const mining::CountedItemset& e) {
      final_counts[e.items.to_string()] = e.count;
    });
  });
  EXPECT_GT(store.pagefaults(), 0);
  ASSERT_EQ(final_counts.size(), 8u);
  for (const auto& [name, count] : final_counts) {
    EXPECT_EQ(count, 3u) << name;
  }
}

TEST(HashLineStore, LruEvictsLeastRecentlyUsedLine) {
  World w;
  // 3 lines x 1 entry; limit 2 entries resident.
  HashLineStore store(w.cl->node(0),
                      w.config(SwapPolicy::kRemoteSwap, 2 * 24, 3), &w.table);
  drive(w, [&]() -> sim::Task<> {
    co_await store.insert(0, pair_of(0, 100));
    co_await store.insert(1, pair_of(1, 101));
    // Touch line 0 so line 1 is the LRU victim when line 2 arrives.
    store.set_phase(HashLineStore::Phase::kCount);
    co_await store.probe(0, pair_of(0, 100));
    store.set_phase(HashLineStore::Phase::kBuild);
    co_await store.insert(2, pair_of(2, 102));

    // Line 0 still resident (no fault), line 1 must fault.
    const std::int64_t before = store.pagefaults();
    store.set_phase(HashLineStore::Phase::kCount);
    co_await store.probe(0, pair_of(0, 100));
    EXPECT_EQ(store.pagefaults(), before);
    co_await store.probe(1, pair_of(1, 101));
    EXPECT_EQ(store.pagefaults(), before + 1);
  });
}

TEST(HashLineStore, RemoteSwapFaultCostMatchesTable4) {
  World w;
  HashLineStore store(w.cl->node(0),
                      w.config(SwapPolicy::kRemoteSwap, 24, 2), &w.table);
  drive(w, [&]() -> sim::Task<> {
    co_await store.insert(0, pair_of(0, 100));
    co_await store.insert(1, pair_of(1, 101));  // evicts line 0
    store.set_phase(HashLineStore::Phase::kCount);
    // Let the one-way swap-out drain at the server so the fault below
    // measures an unloaded round trip (the paper's Table 4 arithmetic).
    co_await w.sim.timeout(msec(50));
    co_await store.probe(0, pair_of(0, 100));   // faults line 0 back
  });
  ASSERT_EQ(store.pagefaults(), 1);
  const auto& fault_ms = w.cl->node(0).stats().summary("store.fault_ms");
  ASSERT_EQ(fault_ms.count(), 1u);
  // Paper Table 4: 1.90-2.37 ms per pagefault.
  EXPECT_GT(fault_ms.mean(), 1.8);
  EXPECT_LT(fault_ms.mean(), 2.7);
}

TEST(HashLineStore, DiskSwapFaultCostMatchesPaperDiskArithmetic) {
  World w;
  HashLineStore store(w.cl->node(0),
                      w.config(SwapPolicy::kDiskSwap, 24, 2), &w.table);
  drive(w, [&]() -> sim::Task<> {
    co_await store.insert(0, pair_of(0, 100));
    co_await store.insert(1, pair_of(1, 101));
    store.set_phase(HashLineStore::Phase::kCount);
    co_await store.probe(0, pair_of(0, 100));
  });
  ASSERT_EQ(store.pagefaults(), 1);
  const auto& fault_ms = w.cl->node(0).stats().summary("store.fault_ms");
  // "at least 13.0 msec in average to read data from 7,200 rpm hard disks".
  EXPECT_GT(fault_ms.mean(), 5.0);   // single sample: seek jitter applies
  EXPECT_LT(fault_ms.mean(), 25.0);
}

TEST(HashLineStore, RemoteUpdateDoesNotFaultDuringCounting) {
  World w;
  HashLineStore store(w.cl->node(0),
                      w.config(SwapPolicy::kRemoteUpdate, 4 * 24), &w.table);
  std::map<std::string, std::uint32_t> final_counts;
  drive(w, [&]() -> sim::Task<> {
    for (Item i = 0; i < 8; ++i) {
      co_await store.insert(i, pair_of(i, i + 100));
    }
    const std::int64_t build_faults = store.pagefaults();
    store.set_phase(HashLineStore::Phase::kCount);
    for (int round = 0; round < 5; ++round) {
      for (Item i = 0; i < 8; ++i) {
        co_await store.probe(i, pair_of(i, i + 100));
      }
    }
    // Counting must not have synchronously faulted once.
    EXPECT_EQ(store.pagefaults(), build_faults);
    EXPECT_GT(store.updates_sent(), 0);
    co_await store.collect([&](const mining::CountedItemset& e) {
      final_counts[e.items.to_string()] = e.count;
    });
  });
  ASSERT_EQ(final_counts.size(), 8u);
  for (const auto& [name, count] : final_counts) {
    EXPECT_EQ(count, 5u) << name;
  }
}

TEST(HashLineStore, RemoteUpdateBatchesFillToMessageBlock) {
  World w;
  HashLineStore::Config cfg = w.config(SwapPolicy::kRemoteUpdate, 24, 2);
  cfg.message_block_bytes = 160;  // 10 update ops per block
  cfg.update_op_bytes = 16;
  HashLineStore store(w.cl->node(0), cfg, &w.table);
  drive(w, [&]() -> sim::Task<> {
    co_await store.insert(0, pair_of(0, 100));
    co_await store.insert(1, pair_of(1, 101));  // line 0 evicted
    store.set_phase(HashLineStore::Phase::kCount);
    for (int i = 0; i < 25; ++i) {
      co_await store.probe(0, pair_of(0, 100));
    }
    co_await store.flush_updates();
  });
  // 25 updates at 10/block: 2 full blocks + 1 flush.
  EXPECT_EQ(store.updates_sent(), 25);
  EXPECT_EQ(w.cl->node(0).stats().counter("store.update_batches"), 3);
}

TEST(HashLineStore, ProbeBlockWithAMigratingLineTakesTheGeneralPath) {
  // A block whose middle element hits a line under migration: that element
  // parks on the line's migration trigger like probe() does, and the rest
  // of the block is applied after the line settled at its new holder.
  World w;
  HashLineStore store(w.cl->node(0),
                      w.config(SwapPolicy::kRemoteSwap, 2 * 24), &w.table);
  std::map<std::string, std::uint32_t> final_counts;
  Time migrated_at = -1;
  Time block_done = -1;
  drive(w, [&]() -> sim::Task<> {
    for (Item i = 0; i < 4; ++i) {
      co_await store.insert(i, pair_of(i, i + 100));
    }
    // Two lines fit: lines 0 and 1 were evicted, lines 2 and 3 resident.
    EXPECT_EQ(store.line(0).where, HashLineStore::Where::kRemote);
    EXPECT_EQ(store.line(3).where, HashLineStore::Where::kResident);
    store.set_phase(HashLineStore::Phase::kCount);
    auto migrate = [](HashLineStore& s, net::NodeId holder,
                      Time& done) -> sim::Process {
      co_await s.migrate_away(holder);
      done = s.node().sim().now();
    };
    w.sim.spawn(migrate(store, store.line(0).holder, migrated_at));
    // The migrator marked line 0 and now waits for its directive's reply.
    co_await w.sim.timeout(usec(1));
    EXPECT_EQ(store.line(0).where, HashLineStore::Where::kMigrating);

    const std::vector<LineId> lines{3, 0, 2};
    const std::vector<Itemset> itemsets{pair_of(3, 103), pair_of(0, 100),
                                        pair_of(2, 102)};
    co_await store.probe_block(lines, itemsets);
    block_done = w.sim.now();
    store.check_invariants();
    co_await store.collect([&](const mining::CountedItemset& e) {
      final_counts[e.items.to_string()] = e.count;
    });
  });
  EXPECT_EQ(store.lines_migrated(), 1);
  ASSERT_GE(migrated_at, 0);
  EXPECT_GE(block_done, migrated_at);  // parked until the line settled
  EXPECT_GT(store.pagefaults(), 0);    // then faulted it home
  EXPECT_EQ(final_counts[pair_of(0, 100).to_string()], 1u);
  EXPECT_EQ(final_counts[pair_of(1, 101).to_string()], 0u);
  EXPECT_EQ(final_counts[pair_of(2, 102).to_string()], 1u);
  EXPECT_EQ(final_counts[pair_of(3, 103).to_string()], 1u);
}

TEST(HashLineStore, EvictionsSpreadRoundRobinOverMemoryNodes) {
  World w;
  HashLineStore store(w.cl->node(0),
                      w.config(SwapPolicy::kRemoteSwap, 2 * 24, 16), &w.table);
  drive(w, [&]() -> sim::Task<> {
    for (Item i = 0; i < 16; ++i) {
      co_await store.insert(i, pair_of(i, i + 100));
    }
  });
  // 14 evictions alternate between the two memory-available nodes.
  EXPECT_EQ(store.lines_at(1) + store.lines_at(2), 14u);
  EXPECT_EQ(store.lines_at(1), 7u);
  EXPECT_EQ(store.lines_at(2), 7u);
}

TEST(HashLineStore, CollectStreamsEveryEntryUnderEveryPolicy) {
  for (SwapPolicy policy : {SwapPolicy::kDiskSwap, SwapPolicy::kRemoteSwap,
                            SwapPolicy::kRemoteUpdate}) {
    World w;
    HashLineStore store(w.cl->node(0), w.config(policy, 3 * 24), &w.table);
    std::size_t seen = 0;
    std::uint32_t total = 0;
    drive(w, [&]() -> sim::Task<> {
      for (Item i = 0; i < 12; ++i) {
        co_await store.insert(i % 8, pair_of(i, i + 100));
      }
      store.set_phase(HashLineStore::Phase::kCount);
      for (Item i = 0; i < 12; ++i) {
        co_await store.probe(i % 8, pair_of(i, i + 100));
      }
      co_await store.collect([&](const mining::CountedItemset& e) {
        ++seen;
        total += e.count;
      });
    });
    EXPECT_EQ(seen, 12u) << to_string(policy);
    EXPECT_EQ(total, 12u) << to_string(policy);
  }
}

TEST(HashLineStore, CountMatchesFindsKeyedEntries) {
  // The read-query API the hash-join example uses: entries encode keyed
  // tuples; count_matches returns how many share the probed key.
  World w;
  HashLineStore store(w.cl->node(0),
                      w.config(SwapPolicy::kRemoteSwap, 2 * 24, 4), &w.table);
  std::uint32_t k7 = 99, k8 = 99, k9 = 99;
  drive(w, [&]() -> sim::Task<> {
    co_await store.insert(0, pair_of(7, 1000));
    co_await store.insert(0, pair_of(7, 1001));
    co_await store.insert(0, pair_of(8, 1002));
    co_await store.insert(1, pair_of(9, 1003));  // line 0 may be evicted now
    store.set_phase(HashLineStore::Phase::kCount);
    k7 = co_await store.count_matches(0, 7);
    k8 = co_await store.count_matches(0, 8);
    k9 = co_await store.count_matches(1, 9);
    store.check_invariants();
  });
  EXPECT_EQ(k7, 2u);
  EXPECT_EQ(k8, 1u);
  EXPECT_EQ(k9, 1u);
}

TEST(HashLineStore, CountMatchesFaultsEvictedLinesUnderEveryPolicy) {
  for (SwapPolicy policy : {SwapPolicy::kDiskSwap, SwapPolicy::kRemoteSwap,
                            SwapPolicy::kRemoteUpdate}) {
    World w;
    HashLineStore store(w.cl->node(0), w.config(policy, 24, 2), &w.table);
    std::uint32_t matches = 0;
    drive(w, [&]() -> sim::Task<> {
      co_await store.insert(0, pair_of(5, 500));
      co_await store.insert(1, pair_of(6, 600));  // line 0 evicted
      store.set_phase(HashLineStore::Phase::kCount);
      const std::int64_t before = store.pagefaults();
      matches = co_await store.count_matches(0, 5);
      EXPECT_EQ(store.pagefaults(), before + 1) << to_string(policy);
    });
    EXPECT_EQ(matches, 1u) << to_string(policy);
  }
}

TEST(HashLineStore, CountMatchesMissReturnsZero) {
  World w;
  HashLineStore store(w.cl->node(0), w.config(SwapPolicy::kNoLimit, -1),
                      &w.table);
  std::uint32_t matches = 99;
  drive(w, [&]() -> sim::Task<> {
    co_await store.insert(0, pair_of(5, 500));
    matches = co_await store.count_matches(0, 777);
  });
  EXPECT_EQ(matches, 0u);
}

TEST(HashLineStore, ProbeOfNonCandidateIsMissEverywhere) {
  World w;
  HashLineStore store(w.cl->node(0),
                      w.config(SwapPolicy::kRemoteUpdate, 2 * 24), &w.table);
  std::uint32_t total = 0;
  drive(w, [&]() -> sim::Task<> {
    for (Item i = 0; i < 6; ++i) {
      co_await store.insert(i, pair_of(i, i + 100));
    }
    store.set_phase(HashLineStore::Phase::kCount);
    for (Item i = 0; i < 6; ++i) {
      co_await store.probe(i, pair_of(i, i + 999));  // never registered
    }
    co_await store.collect(
        [&](const mining::CountedItemset& e) { total += e.count; });
  });
  EXPECT_EQ(total, 0u);
}

TEST(HashLineStore, SizedBuildLeavesNoSlackInEntryArrays) {
  // After size_lines announced the build, every entry array is allocated
  // at its line's final count. Under a limit line 0 is evicted after two
  // inserts and faulted home for its last three: remote memory returns a
  // tight copy, which grows once more, straight to the final count.
  const std::vector<LineId> lines{0, 0, 1, 1, 2, 3, 1, 2, 3, 0, 0, 0};
  for (const auto& [policy, limit] :
       {std::pair{SwapPolicy::kNoLimit, std::int64_t{-1}},
        std::pair{SwapPolicy::kDiskSwap, std::int64_t{4 * 24}},
        std::pair{SwapPolicy::kRemoteSwap, std::int64_t{4 * 24}},
        std::pair{SwapPolicy::kRemoteUpdate, std::int64_t{4 * 24}}}) {
    World w;
    HashLineStore store(w.cl->node(0), w.config(policy, limit, 4), &w.table);
    store.size_lines(lines.size(), [&lines](std::size_t j) { return lines[j]; });
    bool line0_faulted = false;
    drive(w, [&]() -> sim::Task<> {
      for (std::size_t i = 0; i < lines.size(); ++i) {
        const Item a = static_cast<Item>(i);
        const std::int64_t faults = store.pagefaults();
        if (!store.try_insert(lines[i], pair_of(a, a + 100))) {
          co_await store.insert(lines[i], pair_of(a, a + 100));
        }
        if (lines[i] == 0 && store.pagefaults() > faults) line0_faulted = true;
        store.check_invariants();
      }
    });
    EXPECT_EQ(line0_faulted, limit >= 0) << to_string(policy);
    EXPECT_EQ(store.size(), lines.size());
    std::size_t resident = 0;
    for (LineId id = 0; id < 4; ++id) {
      const HashLineStore::Line& l = store.line(id);
      if (l.where != HashLineStore::Where::kResident) continue;
      ++resident;
      EXPECT_EQ(l.entries.capacity(), l.entries.size())
          << to_string(policy) << " line " << id;
    }
    EXPECT_EQ(store.line(0).where, HashLineStore::Where::kResident);
    EXPECT_EQ(store.line(0).entries.size(), 5u) << to_string(policy);
    EXPECT_EQ(resident, store.resident_lines());
  }
}

TEST(HashLineStore, NoLimitStoreKeepsItsInvariantsUnderProbesAndReads) {
  // Without a limit nothing is ever evicted and use keeps no LRU order,
  // but the residency list must still hold exactly the non-empty lines.
  World w;
  HashLineStore store(w.cl->node(0), w.config(SwapPolicy::kNoLimit, -1, 16),
                      &w.table);
  Pcg32 rng(0x10ad, 3);
  std::map<std::string, std::uint32_t> expected;
  std::map<std::string, std::uint32_t> counts;
  std::size_t keyed_reads = 0;
  drive(w, [&]() -> sim::Task<> {
    std::vector<std::vector<Itemset>> per_line(16);
    for (Item i = 0; i < 48; ++i) {  // lines 12..15 stay empty
      const auto line = static_cast<LineId>(rng.below(12));
      const Itemset s = pair_of(i, i + 100);
      per_line[static_cast<std::size_t>(line)].push_back(s);
      expected[s.to_string()] = 0;
      co_await store.insert(line, s);
      store.check_invariants();
    }
    store.set_phase(HashLineStore::Phase::kCount);
    std::vector<LineId> block_lines;
    std::vector<Itemset> block_itemsets;
    for (int i = 0; i < 3000; ++i) {
      const auto line = static_cast<LineId>(rng.below(16));
      const auto& candidates = per_line[static_cast<std::size_t>(line)];
      const bool hit = !candidates.empty() && rng.below(4) != 0;
      const Itemset s =
          hit ? candidates[rng.below(
                    static_cast<std::uint32_t>(candidates.size()))]
              : pair_of(900, 901);  // a miss everywhere
      switch (i % 3) {
        case 0:
          co_await store.probe(line, s);
          if (hit) ++expected[s.to_string()];
          break;
        case 1:
          block_lines.push_back(line);
          block_itemsets.push_back(s);
          if (hit) ++expected[s.to_string()];
          break;
        default: {
          // A read: first items are unique, so a hit matches once.
          const std::uint32_t matches =
              co_await store.count_matches(line, s.front());
          EXPECT_EQ(matches, hit ? 1u : 0u);
          if (hit) ++keyed_reads;
          break;
        }
      }
      store.check_invariants();
    }
    co_await store.probe_block(block_lines, block_itemsets);
    store.check_invariants();
    co_await store.collect([&](const mining::CountedItemset& e) {
      counts[e.items.to_string()] = e.count;
    });
  });
  std::size_t non_empty = 0;
  for (LineId id = 0; id < 16; ++id) {
    if (!store.line(id).entries.empty()) ++non_empty;
  }
  EXPECT_EQ(store.resident_lines(), non_empty);
  EXPECT_LE(non_empty, 12u);
  EXPECT_GT(keyed_reads, 500u);
  EXPECT_EQ(counts, expected);
  EXPECT_EQ(store.pagefaults(), 0);
}

TEST(HashLineStoreDeathTest, LimitWithoutPolicyAborts) {
  World w;
  HashLineStore store(w.cl->node(0), w.config(SwapPolicy::kNoLimit, 24),
                      &w.table);
  EXPECT_DEATH(
      {
        auto body = [&]() -> sim::Task<> {
          co_await store.insert(0, pair_of(0, 100));
          co_await store.insert(1, pair_of(1, 101));
        };
        bool done = false;
        auto proc = [](decltype(body)& f, bool& d) -> sim::Process {
          co_await f();
          d = true;
        };
        w.sim.spawn(proc(body, done));
        w.sim.run_until(sec(1));
      },
      "kNoLimit");
}

}  // namespace
}  // namespace rms::core
