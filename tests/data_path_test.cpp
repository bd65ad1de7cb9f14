// Unit tests for the workloads' shared data path (sched/data_path.hpp): the
// io-block partition scan, the owner shuffle's sender (block cuts,
// per-sender order, end-of-stream), and a whole shuffle phase whose
// receivers probe into hash-line stores filled by the sized build loop.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/hash_line_store.hpp"
#include "obs/trace.hpp"
#include "sched/data_path.hpp"
#include "sim/process.hpp"
#include "sim/simulation.hpp"
#include "transport/tags.hpp"

namespace rms::sched {
namespace {

using mining::Item;
using mining::TransactionDb;

/// Busy intervals a node reports, by kind.
struct BusyLog final : obs::ProfileHook {
  std::vector<Time> compute;
  std::vector<Time> disk;
  void on_event(const obs::TraceEvent&) override {}
  void on_busy(std::int32_t, obs::EventKind kind, Time start,
               Time end) override {
    (kind == obs::EventKind::kCompute ? compute : disk).push_back(end - start);
  }
};

/// `n` transactions of `width` consecutive items, starting at t mod `span`.
TransactionDb make_partition(std::size_t n, Item width, Item span,
                             Item offset = 0) {
  TransactionDb db;
  std::vector<Item> tx;
  for (std::size_t t = 0; t < n; ++t) {
    tx.clear();
    const Item first = offset + static_cast<Item>(t % span);
    for (Item i = 0; i < width; ++i) tx.push_back(first + i);
    db.add(tx);
  }
  return db;
}

struct World {
  sim::Simulation sim;
  std::unique_ptr<cluster::Cluster> cl;
  explicit World(std::size_t nodes) {
    cluster::ClusterConfig cfg;
    cfg.num_nodes = nodes;
    cl = std::make_unique<cluster::Cluster>(sim, cfg);
  }
};

TEST(DataPath, ScanReadsBlocksAndChargesParseInClosedForm) {
  World w(1);
  cluster::Node& node = w.cl->node(0);
  BusyLog busy;
  node.set_profile_hook(&busy);
  const TransactionDb part = make_partition(20'000, 5, 97);
  const std::int64_t io_block = 65'536;

  std::size_t scanned = 0;
  const auto scan_all = [&]() -> sim::Process {
    PartitionScan scan(node, part, io_block);
    for (std::size_t t = 0; t < part.size(); ++t) {
      if (scan.next()) co_await scan.catch_up();
      ++scanned;
    }
    co_await scan.finish();
  };
  w.sim.spawn(scan_all());
  w.sim.run();
  ASSERT_EQ(scanned, part.size());

  // Each transaction adds the partition's mean bytes (40 B header + 4 B per
  // item = 60 B); a full block is read every ceil(io_block / 60)
  // transactions, then the partial tail.
  const auto n = static_cast<std::int64_t>(part.size());
  const std::int64_t per_tx = part.approx_bytes() / n;
  ASSERT_EQ(per_tx, 60);
  const std::int64_t tx_per_read = (io_block + per_tx - 1) / per_tx;
  const std::int64_t full_reads = n / tx_per_read;
  const std::int64_t tail_bytes = (n % tx_per_read) * per_tx;
  ASSERT_GT(tail_bytes, 0);
  const StatsRegistry& disk = node.data_disk().stats();
  EXPECT_EQ(disk.counter("disk.read.count"), full_reads + 1);
  EXPECT_EQ(disk.counter("disk.read.bytes"),
            full_reads * io_block + tail_bytes);
  EXPECT_EQ(static_cast<std::int64_t>(busy.disk.size()), full_reads + 1);

  // Parse CPU: one charge per 8,192 transactions plus the remainder, and
  // exactly per_tx_parse per transaction in total.
  const Time per_tx_parse = node.costs().per_tx_parse;
  ASSERT_EQ(busy.compute.size(), 3u);
  EXPECT_EQ(busy.compute[0], per_tx_parse * 8192);
  EXPECT_EQ(busy.compute[1], per_tx_parse * 8192);
  EXPECT_EQ(busy.compute[2], per_tx_parse * (n - 2 * 8192));
  node.set_profile_hook(nullptr);
}

/// One message a test receiver saw.
struct Seen {
  net::NodeId src = -1;
  bool eos = false;
  std::vector<Item> items;
  std::size_t capacity = 0;
  std::int64_t bytes = 0;
};

TEST(DataPath, ShuffleCutsBlocksAtTheBudgetInSenderOrder) {
  constexpr std::size_t kNodes = 3;
  World w(kNodes);
  const std::vector<net::NodeId> owners = {0, 1, 2};
  ShuffleSpec spec;
  spec.tag =
      transport::TagRegistry::global().register_service("data_path_test");
  spec.element_bytes = 8;
  spec.block_bytes = 100;  // 12 whole elements (96 B) per block
  spec.io_block_bytes = 1024;
  constexpr std::size_t kCapacity = 12;

  std::vector<TransactionDb> parts;
  for (std::size_t i = 0; i < kNodes; ++i) {
    parts.push_back(make_partition(400 + 37 * i, 4, 50, Item(i)));
  }
  const auto place = [](const mining::Itemset& key) {
    return std::pair<std::size_t, core::LineId>{
        key.front() % kNodes, static_cast<core::LineId>(key.front() / kNodes)};
  };
  const auto generate = [](std::span<const Item> tx, std::vector<Item>& out) {
    out.assign(tx.begin(), tx.end());
  };

  std::vector<std::vector<Seen>> seen(kNodes);
  const auto receive = [&](std::size_t r) -> sim::Process {
    transport::Inbox inbox(w.cl->node(owners[r]), spec.tag);
    for (std::size_t eos = 0; eos < kNodes;) {
      net::Message msg = co_await inbox.recv();
      const auto& block = msg.as<ShuffleBlock<Item>>();
      seen[r].push_back(Seen{msg.src, block.eos, block.items,
                             block.items.capacity(), msg.payload_bytes});
      if (block.eos) ++eos;
    }
  };
  for (std::size_t i = 0; i < kNodes; ++i) {
    w.sim.spawn(receive(i));
    w.sim.spawn(shuffle_sender<Item>(w.cl->node(owners[i]), owners, parts[i],
                                     spec, generate, place));
  }
  w.sim.run();

  for (std::size_t r = 0; r < kNodes; ++r) {
    for (std::size_t s = 0; s < kNodes; ++s) {
      SCOPED_TRACE(testing::Message() << "sender " << s << " -> owner " << r);
      // What s should ship to r: its items owned by r, in scan order.
      std::vector<Item> want;
      for (std::size_t t = 0; t < parts[s].size(); ++t) {
        for (Item item : parts[s].tx(t)) {
          if (item % kNodes == r) want.push_back(item);
        }
      }
      std::vector<Item> got;
      std::vector<const Seen*> blocks;
      std::size_t eos = 0;
      for (const Seen& m : seen[r]) {
        if (m.src != owners[s]) continue;
        ASSERT_EQ(eos, 0u) << "a block arrived after end-of-stream";
        if (m.eos) {
          ++eos;
          EXPECT_EQ(m.bytes, 16);
          continue;
        }
        blocks.push_back(&m);
        got.insert(got.end(), m.items.begin(), m.items.end());
      }
      EXPECT_EQ(eos, 1u);
      EXPECT_EQ(got, want);
      ASSERT_FALSE(blocks.empty());
      // Every block but the straggler is cut at the budget; each is sized
      // by its element count and allocated once at the full block.
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        const std::size_t size = blocks[b]->items.size();
        if (b + 1 < blocks.size()) {
          EXPECT_EQ(size, kCapacity);
        } else {
          EXPECT_GE(size, 1u);
          EXPECT_LE(size, kCapacity);
        }
        EXPECT_EQ(blocks[b]->bytes,
                  static_cast<std::int64_t>(size) * spec.element_bytes);
        EXPECT_EQ(blocks[b]->capacity, kCapacity);
      }
    }
  }
}

TEST(DataPath, ShufflePhaseProbesEveryElementIntoItsOwnersStoreOnce) {
  constexpr std::size_t kNodes = 3;
  constexpr Item kItems = 60;
  World w(kNodes);
  const std::vector<net::NodeId> owners = {0, 1, 2};
  ShuffleSpec spec;
  spec.tag =
      transport::TagRegistry::global().register_service("data_path_test");
  spec.element_bytes = 8;
  spec.block_bytes = 256;
  spec.io_block_bytes = 4096;
  const auto place = [](const mining::Itemset& key) {
    return std::pair<std::size_t, core::LineId>{
        key.front() % kNodes, static_cast<core::LineId>(key.front() % 7)};
  };

  std::vector<TransactionDb> parts;
  std::map<Item, std::uint32_t> reference;
  for (std::size_t i = 0; i < kNodes; ++i) {
    parts.push_back(make_partition(500 + 11 * i, 6, kItems - 8, Item(i)));
    for (std::size_t t = 0; t < parts[i].size(); ++t) {
      for (Item item : parts[i].tx(t)) ++reference[item];
    }
  }

  // One group entry per key on its owner, filled by the sized build loop.
  std::vector<std::unique_ptr<core::HashLineStore>> stores;
  std::vector<std::vector<Item>> keys(kNodes);
  for (Item item = 0; item < kItems; ++item) {
    keys[item % kNodes].push_back(item);
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    core::HashLineStore::Config cfg;
    cfg.num_lines = 7;
    stores.push_back(std::make_unique<core::HashLineStore>(
        w.cl->node(owners[i]), cfg, nullptr));
  }
  std::size_t finished = 0;
  const auto participant = [&](std::size_t i) -> sim::Process {
    cluster::Node& node = w.cl->node(owners[i]);
    const std::vector<Item>& mine = keys[i];
    co_await build_lines(
        node, *stores[i], mine.size(), node.costs().per_probe,
        [&](std::size_t j) { return place(shuffle_key(mine[j])).second; },
        [&](std::size_t j) { return shuffle_key(mine[j]); });
    co_await shuffle_phase<Item>(
        node, owners, i, *stores[i], parts[i], spec,
        [](std::span<const Item> tx, std::vector<Item>& out) {
          out.assign(tx.begin(), tx.end());
        },
        place);
    ++finished;
  };
  for (std::size_t i = 0; i < kNodes; ++i) w.sim.spawn(participant(i));
  w.sim.run();
  ASSERT_EQ(finished, kNodes);

  std::map<Item, std::uint32_t> counted;
  for (std::size_t i = 0; i < kNodes; ++i) {
    EXPECT_EQ(stores[i]->size(), keys[i].size());
    const auto gather = [&]() -> sim::Process {
      co_await stores[i]->collect([&](const mining::CountedItemset& e) {
        ASSERT_EQ(e.items.size(), 1u);
        EXPECT_EQ(e.items.front() % kNodes, i) << "key on the wrong owner";
        if (e.count > 0) counted[e.items.front()] = e.count;
      });
    };
    w.sim.spawn(gather());
    w.sim.run();
  }
  EXPECT_EQ(counted, reference);
}

}  // namespace
}  // namespace rms::sched
