// Property tests for HashLineStore: random op sequences against a reference
// model. Whatever the swap policy, eviction policy, limit, and probe
// pattern, the collected counts must match a plain in-memory table, and the
// resident footprint must respect the limit between operations.
//
// Each seeded script can be driven several ways: the count phase as
// successive probe() calls or as message blocks through probe_block(), and
// the build announced to size_lines() first or not. All drives must be
// indistinguishable: same counts, store/backend/node counters, and final
// virtual time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
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

struct Scenario {
  SwapPolicy policy = SwapPolicy::kNoLimit;
  EvictionPolicy eviction = EvictionPolicy::kLru;
  std::int64_t limit = -1;
  std::uint64_t seed = 1;
  int replicate_k = 0;
  /// Migrate donors' lines away, round robin, for up to this many rounds
  /// while the count phase runs.
  int migrate_rounds = 0;
  /// Update batches come due every message_block_bytes / 16 ops.
  std::int64_t message_block_bytes = 256;
  std::int64_t probes = 600;
  std::int64_t tiered_budget = -1;
};

struct Drive {
  enum class Count : std::uint8_t { kPerOp, kBlock };
  Count count = Count::kPerOp;
  bool sized = false;  // size_lines() before the build
};

struct Outcome {
  bool finished = false;
  std::map<std::string, std::uint32_t> expected;  // reference model
  std::map<std::string, std::uint32_t> counts;    // collected
  std::size_t size = 0;
  std::int64_t total_bytes = 0;
  std::map<std::string, std::int64_t> store_counters;  // store.* + backend.*
  std::vector<std::map<std::string, std::int64_t>> node_counters;
  std::int64_t updates_mirrored = 0;
  std::int64_t lost_update_ops = 0;
  Time count_done = -1;  // virtual time the count phase finished
  Time finished_at = -1;
  // Per-op drive only: probes past the first of their block whose line was
  // migrating or on disk when issued. The drives share one timeline, so
  // these are the block drive's slow-path elements inside a block.
  std::int64_t migrating_mid_block = 0;
  std::int64_t disk_mid_block = 0;
};

Outcome run_script(const Scenario& sc, Drive drive) {
  sim::Simulation sim;
  cluster::ClusterConfig ccfg;
  ccfg.num_nodes = 4;  // app node 0, memory nodes 1..3
  cluster::Cluster cl(sim, ccfg);
  MemoryServer s1(cl.node(1)), s2(cl.node(2)), s3(cl.node(3));
  sim.spawn(s1.serve());
  sim.spawn(s2.serve());
  sim.spawn(s3.serve());
  placement::MemoryBroker table({1, 2, 3});
  table.update(AvailabilityInfo{1, 8 << 20, 1}, 0);
  table.update(AvailabilityInfo{2, 8 << 20, 1}, 0);
  table.update(AvailabilityInfo{3, 8 << 20, 1}, 0);

  constexpr std::size_t kLines = 16;
  HashLineStore::Config cfg;
  cfg.num_lines = kLines;
  cfg.memory_limit_bytes = sc.limit;
  cfg.policy = sc.policy;
  cfg.eviction = sc.eviction;
  cfg.message_block_bytes = sc.message_block_bytes;
  cfg.replicate_k = sc.replicate_k;
  cfg.tiered_remote_budget_bytes = sc.tiered_budget;
  HashLineStore store(cl.node(0), cfg, &table);

  Outcome out;
  Pcg32 rng(sc.seed);
  Pcg32 block_rng(sc.seed ^ 0xb10c);
  bool migrator_done = sc.migrate_rounds == 0;
  bool counted = false;
  auto migrator = [&]() -> sim::Task<> {
    for (int round = 0; !counted && round < sc.migrate_rounds; ++round) {
      co_await sim.timeout(usec(700));
      co_await store.migrate_away(static_cast<net::NodeId>(1 + round % 3));
      store.check_invariants();
    }
    migrator_done = true;
  };
  auto script = [&]() -> sim::Task<> {
    // Build phase: 120 inserts into random lines (some duplicates of item
    // pairs in different lines are fine; within a line itemsets differ).
    std::vector<LineId> build_lines;
    for (int i = 0; i < 120; ++i) {
      build_lines.push_back(static_cast<LineId>(rng.below(kLines)));
    }
    if (drive.sized) {
      store.size_lines(build_lines.size(),
                       [&](std::size_t j) { return build_lines[j]; });
    }
    std::vector<std::vector<Itemset>> per_line(kLines);
    Item uid = 0;  // globally unique itemsets: model keys stay unambiguous
    for (const LineId line : build_lines) {
      const Itemset s{uid, uid + 5000};
      ++uid;
      per_line[static_cast<std::size_t>(line)].push_back(s);
      out.expected[s.to_string()] = 0;
      co_await store.insert(line, s);
      store.check_invariants();
      // The swap unit is a whole line and the line being inserted into is
      // pinned, so residency is bounded by max(limit, that line's size).
      EXPECT_TRUE(cfg.memory_limit_bytes < 0 ||
                  store.resident_bytes() <= cfg.memory_limit_bytes ||
                  store.resident_bytes() == store.line_bytes(line))
          << "resident " << store.resident_bytes() << " line "
          << store.line_bytes(line);
    }
    // A sized build leaves no slack in any resident entry array.
    for (std::size_t id = 0; drive.sized && id < kLines; ++id) {
      const HashLineStore::Line& l = store.line(static_cast<LineId>(id));
      if (l.where != HashLineStore::Where::kResident) continue;
      EXPECT_EQ(l.entries.capacity(), l.entries.size()) << "line " << id;
    }
    // Count phase: ~70% of probes hit a registered candidate, the rest
    // probe a non-candidate (a miss everywhere).
    std::vector<LineId> lines;
    std::vector<Itemset> itemsets;
    for (std::int64_t i = 0; i < sc.probes; ++i) {
      const auto line = static_cast<LineId>(rng.below(kLines));
      auto& candidates = per_line[static_cast<std::size_t>(line)];
      lines.push_back(line);
      if (!candidates.empty() && !rng.bernoulli(0.3)) {
        const Itemset& s = candidates[rng.below(
            static_cast<std::uint32_t>(candidates.size()))];
        ++out.expected[s.to_string()];
        itemsets.push_back(s);
      } else {
        const Item m = 20000 + rng.below(50);
        itemsets.push_back(Itemset{m, m + 30000});
      }
    }
    store.set_phase(HashLineStore::Phase::kCount);
    if (sc.migrate_rounds > 0) {
      sim.spawn([](decltype(migrator)& m) -> sim::Process {
        co_await m();
      }(migrator));
    }
    const std::span<const LineId> all_lines(lines);
    const std::span<const Itemset> all_itemsets(itemsets);
    for (std::size_t at = 0; at < lines.size();) {
      const std::size_t n =
          std::min<std::size_t>(1 + block_rng.below(96), lines.size() - at);
      if (drive.count == Drive::Count::kBlock) {
        co_await store.probe_block(all_lines.subspan(at, n),
                                   all_itemsets.subspan(at, n));
      } else {
        for (std::size_t i = at; i < at + n; ++i) {
          const HashLineStore::Where where = store.line(lines[i]).where;
          if (i > at && where == HashLineStore::Where::kMigrating) {
            ++out.migrating_mid_block;
          }
          if (i > at && where == HashLineStore::Where::kDisk) {
            ++out.disk_mid_block;
          }
          co_await store.probe(lines[i], itemsets[i]);
          store.check_invariants();
        }
      }
      store.check_invariants();
      at += n;
    }
    out.count_done = sim.now();
    counted = true;
    // Collect only after the migration settled (collect waits for in-flight
    // lines itself, but a directive issued after its last settle would
    // extend the test beyond what migrate_away promises).
    while (!migrator_done) {
      co_await sim.timeout(msec(1));
    }
    co_await store.collect([&](const mining::CountedItemset& e) {
      out.counts[e.items.to_string()] = e.count;
    });
    out.finished_at = sim.now();
    out.finished = true;
  };
  auto proc = [](decltype(script)& f) -> sim::Process { co_await f(); };
  sim.spawn(proc(script));
  sim.run_until(sec(600));

  out.size = store.size();
  out.total_bytes = store.total_bytes();
  out.store_counters = store.stats().counters();
  for (std::size_t n = 0; n < cl.size(); ++n) {
    out.node_counters.push_back(
        cl.node(static_cast<net::NodeId>(n)).stats().counters());
  }
  out.updates_mirrored = store.failover().updates_mirrored;
  out.lost_update_ops = store.failover().lost_update_ops;
  return out;
}

void expect_matches_model(const Outcome& o) {
  ASSERT_TRUE(o.finished) << "store script did not finish";
  EXPECT_EQ(o.counts, o.expected);
  EXPECT_EQ(o.size, 120u);
  EXPECT_EQ(o.total_bytes, 120 * 24);
}

/// Two drives of one script must be indistinguishable.
void expect_same_run(const Outcome& a, const Outcome& b) {
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.store_counters, b.store_counters);
  EXPECT_EQ(a.node_counters, b.node_counters);
  EXPECT_EQ(a.updates_mirrored, b.updates_mirrored);
  EXPECT_EQ(a.lost_update_ops, b.lost_update_ops);
  EXPECT_EQ(a.count_done, b.count_done);
  EXPECT_EQ(a.finished_at, b.finished_at);
}

constexpr Drive kPerOp{Drive::Count::kPerOp, false};
constexpr Drive kPerOpSized{Drive::Count::kPerOp, true};
constexpr Drive kBlock{Drive::Count::kBlock, false};
constexpr Drive kBlockSized{Drive::Count::kBlock, true};

using Case = std::tuple<SwapPolicy, EvictionPolicy, std::int64_t /*limit*/,
                        std::uint64_t /*seed*/>;

class StorePropertyTest : public ::testing::TestWithParam<Case> {};

TEST_P(StorePropertyTest, RandomOpsMatchReferenceModel) {
  Scenario sc;
  std::tie(sc.policy, sc.eviction, sc.limit, sc.seed) = GetParam();
  const Outcome unsized = run_script(sc, kPerOp);
  const Outcome sized = run_script(sc, kPerOpSized);
  expect_matches_model(unsized);
  expect_matches_model(sized);
  expect_same_run(sized, unsized);
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const auto [policy, eviction, limit, seed] = info.param;
  std::string name = to_string(policy);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  name += std::string("_") + to_string(eviction);
  name += limit < 0 ? "_lnone" : "_l" + std::to_string(limit);
  name += "_s" + std::to_string(seed);
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Policies, StorePropertyTest,
    ::testing::Combine(
        ::testing::Values(SwapPolicy::kDiskSwap, SwapPolicy::kRemoteSwap,
                          SwapPolicy::kRemoteUpdate),
        ::testing::Values(EvictionPolicy::kLru, EvictionPolicy::kFifo,
                          EvictionPolicy::kRandom),
        ::testing::Values(std::int64_t{24 * 3}, std::int64_t{24 * 40}),
        ::testing::Values(std::uint64_t{1}, std::uint64_t{2})),
    case_name);

INSTANTIATE_TEST_SUITE_P(
    NoLimitControl, StorePropertyTest,
    ::testing::Combine(::testing::Values(SwapPolicy::kNoLimit),
                       ::testing::Values(EvictionPolicy::kLru),
                       ::testing::Values(std::int64_t{-1}),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{7})),
    case_name);

// ---------------------------------------------------------------------------
// Drive mode: probe_block against successive probe() calls.
// ---------------------------------------------------------------------------

struct DriveRow {
  const char* name;
  SwapPolicy policy;
  EvictionPolicy eviction;
  std::int64_t limit;
};

constexpr std::int64_t kTight = 24 * 3;
constexpr DriveRow kDriveRows[] = {
    {"no_limit", SwapPolicy::kNoLimit, EvictionPolicy::kLru, -1},
    {"disk_swap_lru", SwapPolicy::kDiskSwap, EvictionPolicy::kLru, kTight},
    {"disk_swap_random", SwapPolicy::kDiskSwap, EvictionPolicy::kRandom,
     kTight},
    {"remote_swap_lru", SwapPolicy::kRemoteSwap, EvictionPolicy::kLru, kTight},
    {"remote_swap_migrate", SwapPolicy::kRemoteSwap, EvictionPolicy::kLru,
     kTight},
    {"remote_update_lru", SwapPolicy::kRemoteUpdate, EvictionPolicy::kLru,
     kTight},
    {"remote_update_fifo_4k", SwapPolicy::kRemoteUpdate, EvictionPolicy::kFifo,
     kTight},
    {"remote_update_rep1", SwapPolicy::kRemoteUpdate, EvictionPolicy::kLru,
     kTight},
    {"remote_update_rep1_4k", SwapPolicy::kRemoteUpdate, EvictionPolicy::kLru,
     kTight},
    {"remote_update_migrate", SwapPolicy::kRemoteUpdate, EvictionPolicy::kLru,
     kTight},
    {"remote_update_rep1_migrate", SwapPolicy::kRemoteUpdate,
     EvictionPolicy::kLru, kTight},
    {"tiered_spill", SwapPolicy::kTiered, EvictionPolicy::kLru, kTight},
};

// gtest prints a parameter type that has no operator<< as a dump of its
// bytes, and ctest takes the dump into the test's name. So a case names its
// row by index, not by pointer, and has no padding: the test names are the
// same in every build.
struct DriveCase {
  std::size_t row;  // index into kDriveRows
  Scenario scenario;
};
static_assert(std::has_unique_object_representations_v<DriveCase>);

class BlockDriveTest
    : public ::testing::TestWithParam<std::tuple<DriveCase, std::uint64_t>> {
};

TEST_P(BlockDriveTest, BlockDriveMatchesPerOpDrive) {
  Scenario sc = std::get<0>(GetParam()).scenario;
  sc.seed = std::get<1>(GetParam());
  const Outcome per_op = run_script(sc, kPerOp);
  const Outcome block = run_script(sc, kBlock);
  const Outcome block_sized = run_script(sc, kBlockSized);
  expect_matches_model(per_op);
  expect_matches_model(block);
  expect_matches_model(block_sized);
  expect_same_run(block, per_op);
  expect_same_run(block_sized, block);

  // The scripts reach the paths they were built for.
  if (sc.migrate_rounds > 0) {
    EXPECT_GT(block.store_counters.at("store.lines_migrated"), 0);
    EXPECT_GT(per_op.migrating_mid_block, 0);
  }
  if (sc.policy == SwapPolicy::kDiskSwap ||
      sc.policy == SwapPolicy::kTiered) {
    EXPECT_GT(per_op.disk_mid_block, 0);
  }
  if (sc.replicate_k > 0 && sc.policy == SwapPolicy::kRemoteUpdate) {
    EXPECT_GT(block.updates_mirrored, 0);
  }
  if (sc.message_block_bytes == 4096 &&
      sc.policy == SwapPolicy::kRemoteUpdate) {
    // More than 3 x 256 ops: some holder crossed a batch-due boundary.
    EXPECT_GT(block.store_counters.at("store.updates_sent"), 3 * 256);
  }
}

std::vector<DriveCase> drive_cases() {
  std::vector<DriveCase> cases;
  for (std::size_t row = 0; row < std::size(kDriveRows); ++row) {
    const std::string name = kDriveRows[row].name;
    Scenario sc;
    sc.policy = kDriveRows[row].policy;
    sc.eviction = kDriveRows[row].eviction;
    sc.limit = kDriveRows[row].limit;
    if (name.find("_4k") != std::string::npos) {
      sc.message_block_bytes = 4096;
      sc.probes = 2400;
    }
    if (name.find("rep1") != std::string::npos) sc.replicate_k = 1;
    if (name.find("migrate") != std::string::npos) sc.migrate_rounds = 12;
    if (name == "tiered_spill") sc.tiered_budget = 24 * 24;
    cases.push_back({row, sc});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Drives, BlockDriveTest,
    ::testing::Combine(::testing::ValuesIn(drive_cases()),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2})),
    [](const auto& param_info) {
      return std::string(kDriveRows[std::get<0>(param_info.param).row].name) +
             "_s" + std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace rms::core
