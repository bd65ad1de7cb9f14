// Microbenchmarks (google-benchmark) for the substrate primitives: event
// loop, channels, resources, network transfers, disk model, the residency
// store, and the mining hot paths. These bound how much real time the
// table/figure harnesses spend per simulated operation.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "core/hash_line_store.hpp"
#include "core/memory_server.hpp"
#include "disk/disk.hpp"
#include "mining/apriori.hpp"
#include "mining/candidate_gen.hpp"
#include "mining/generator.hpp"
#include "mining/hash_line_table.hpp"
#include "net/network.hpp"
#include "sim/channel.hpp"
#include "sim/process.hpp"
#include "sim/resource.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace rms;

void BM_SimTimeoutEvents(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    auto proc = [](sim::Simulation& s, int n) -> sim::Process {
      for (int i = 0; i < n; ++i) co_await s.timeout(usec(1));
    };
    sim.spawn(proc(sim, 10'000));
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SimTimeoutEvents);

void BM_ChannelPingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    sim::Channel<int> a(sim), b(sim);
    auto ping = [](sim::Channel<int>& out, sim::Channel<int>& in,
                   int n) -> sim::Process {
      for (int i = 0; i < n; ++i) {
        out.send(i);
        (void)co_await in.recv();
      }
    };
    auto pong = [](sim::Channel<int>& in, sim::Channel<int>& out,
                   int n) -> sim::Process {
      for (int i = 0; i < n; ++i) {
        const int v = co_await in.recv();
        out.send(v);
      }
    };
    sim.spawn(ping(a, b, 5'000));
    sim.spawn(pong(a, b, 5'000));
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_ChannelPingPong);

void BM_ResourceContention(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    sim::Resource res(sim, 1);
    auto worker = [](sim::Simulation& s, sim::Resource& r, int n) -> sim::Process {
      for (int i = 0; i < n; ++i) {
        auto lease = co_await r.acquire();
        co_await s.timeout(usec(1));
      }
    };
    for (int w = 0; w < 4; ++w) sim.spawn(worker(sim, res, 1'000));
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 4'000);
}
BENCHMARK(BM_ResourceContention);

void BM_NetworkMessages(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    net::Network net(sim, 2, net::LinkParams::atm155());
    std::int64_t delivered = 0;
    net.set_delivery(1, [&](net::Message) { ++delivered; });
    for (int i = 0; i < 2'000; ++i) {
      net.send(net::Message::make(0, 1, 0, 4096, i));
    }
    sim.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * 2'000);
}
BENCHMARK(BM_NetworkMessages);

void BM_DiskRandomReads(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    disk::Disk d(sim, disk::DiskParams::barracuda_7200());
    auto proc = [](disk::Disk& dd, int n) -> sim::Process {
      for (int i = 0; i < n; ++i) {
        co_await dd.read(4096, disk::Access::kRandom);
      }
    };
    sim.spawn(proc(d, 2'000));
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 2'000);
}
BENCHMARK(BM_DiskRandomReads);

void BM_ItemsetHash(benchmark::State& state) {
  mining::Itemset s{17, 4211};
  std::uint64_t acc = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(acc += s.hash());
  }
}
BENCHMARK(BM_ItemsetHash);

void BM_SubsetEnumeration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<mining::Item> tx(n);
  for (std::size_t i = 0; i < n; ++i) tx[i] = static_cast<mining::Item>(i * 3);
  const auto keep = [](mining::Item) { return true; };
  std::uint64_t count = 0;
  for (auto _ : state) {
    mining::for_each_k_subset({tx.data(), tx.size()}, 2, keep,
                              [&](const mining::Itemset&) { ++count; });
  }
  benchmark::DoNotOptimize(count);
  state.SetItemsProcessed(static_cast<std::int64_t>(count));
}
BENCHMARK(BM_SubsetEnumeration)->Arg(10)->Arg(20);

void BM_HashLineProbe(benchmark::State& state) {
  mining::HashLineTable table(1 << 14);
  for (mining::Item a = 0; a < 256; ++a) {
    for (mining::Item b = a + 1; b < a + 33; ++b) {
      table.insert(mining::Itemset{a, b});
    }
  }
  mining::Item a = 0;
  for (auto _ : state) {
    a = (a + 1) % 256;
    benchmark::DoNotOptimize(table.probe(mining::Itemset{a, a + 7}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashLineProbe);

// Store shaped like one hpa-nolimit node (800,000 lines and 4.9 M
// candidates over 8 nodes): ~100 k lines of ~6 entries, built and probed in
// random line order. The remote-update variant keeps ~1/8 of the
// candidate bytes resident, so most probes become one-way update ops.
class StoreBench {
 public:
  static constexpr std::size_t kLines = 100'000;
  static constexpr std::size_t kEntriesPerLine = 6;
  static constexpr std::size_t kInserts = kLines * kEntriesPerLine;
  static constexpr std::size_t kProbes = 1 << 16;
  static constexpr std::size_t kBlock = 341;  // 2-itemsets per 4 KB message

  /// Draws the inserts and probes; the world and store come from reset().
  explicit StoreBench(core::SwapPolicy policy) : policy_(policy) {
    // Candidates: unique 2-itemsets, kEntriesPerLine per line.
    Pcg32 rng(0x5704e, 7);
    std::vector<std::vector<mining::Itemset>> per_line(kLines);
    for (std::size_t line = 0; line < kLines; ++line) {
      for (std::size_t e = 0; e < kEntriesPerLine; ++e) {
        const auto a = static_cast<mining::Item>(line);
        const mining::Itemset s{a, a + 1 + rng.below(1u << 20)};
        per_line[line].push_back(s);
        inserts_.emplace_back(static_cast<core::LineId>(line), s);
      }
    }
    for (std::size_t i = inserts_.size(); i > 1; --i) {
      std::swap(inserts_[i - 1],
                inserts_[rng.below(static_cast<std::uint32_t>(i))]);
    }
    for (std::size_t i = 0; i < kProbes; ++i) {
      const std::uint32_t line = rng.below(kLines);
      lines_.push_back(static_cast<core::LineId>(line));
      itemsets_.push_back(per_line[line][rng.below(kEntriesPerLine)]);
    }
  }

  /// A fresh world (memory servers on nodes 1..3) with an empty store.
  void reset() {
    world_.reset();
    world_ = std::make_unique<World>();
    World& w = *world_;
    cluster::ClusterConfig ccfg;
    ccfg.num_nodes = 4;  // store on node 0, memory servers on 1..3
    w.cluster = std::make_unique<cluster::Cluster>(w.sim, ccfg);
    w.broker = std::make_unique<placement::MemoryBroker>(
        std::vector<net::NodeId>{1, 2, 3});
    for (net::NodeId id = 1; id <= 3; ++id) {
      w.servers.push_back(
          std::make_unique<core::MemoryServer>(w.cluster->node(id)));
      w.sim.spawn(w.servers.back()->serve());
      w.broker->update(core::AvailabilityInfo{id, std::int64_t{1} << 30, 1},
                       0);
    }
    core::HashLineStore::Config cfg;
    cfg.num_lines = kLines;
    cfg.policy = policy_;
    if (policy_ != core::SwapPolicy::kNoLimit) {
      cfg.memory_limit_bytes = static_cast<std::int64_t>(kInserts) *
                               mining::Itemset::kAccountedBytes / 8;
    }
    w.store = std::make_unique<core::HashLineStore>(w.cluster->node(0), cfg,
                                                    w.broker.get());
  }

  /// Every insert in random line order, as the workload build loops make
  /// them (announced to size_lines() first when `sized`); then the store
  /// enters its count phase.
  void build(bool sized) {
    core::HashLineStore& store = *world_->store;
    run([&]() -> sim::Task<> {
      const auto line_at = [&](std::size_t j) { return inserts_[j].first; };
      if (sized) store.size_lines(inserts_.size(), line_at);
      for (std::size_t i = 0; i < inserts_.size(); ++i) {
        store.prefetch_ahead(i, inserts_.size(), line_at);
        const auto& [line, s] = inserts_[i];
        if (!store.try_insert(line, s)) co_await store.insert(line, s);
      }
    });
    store.set_phase(core::HashLineStore::Phase::kCount);
  }

  /// One pass over the probe list, one co_await probe() per element.
  void probe_each() {
    run([&]() -> sim::Task<> {
      for (std::size_t i = 0; i < kProbes; ++i) {
        co_await world_->store->probe(lines_[i], itemsets_[i]);
      }
    });
  }

  /// One pass over the probe list in message blocks.
  void probe_blocks() {
    run([&]() -> sim::Task<> {
      const std::span<const core::LineId> lines(lines_);
      const std::span<const mining::Itemset> itemsets(itemsets_);
      for (std::size_t at = 0; at < kProbes; at += kBlock) {
        const std::size_t n = std::min(kBlock, kProbes - at);
        co_await world_->store->probe_block(lines.subspan(at, n),
                                            itemsets.subspan(at, n));
      }
    });
  }

  const core::HashLineStore& store() const { return *world_->store; }

 private:
  struct World {
    // Frames go first, while the servers they reference still exist.
    ~World() { sim.shutdown(); }
    sim::Simulation sim;
    std::unique_ptr<cluster::Cluster> cluster;
    std::unique_ptr<placement::MemoryBroker> broker;
    std::vector<std::unique_ptr<core::MemoryServer>> servers;
    std::unique_ptr<core::HashLineStore> store;
  };

  template <typename Body>
  void run(Body body) {
    auto proc = [](Body& b) -> sim::Process { co_await b(); };
    world_->sim.spawn(proc(body));
    world_->sim.run();
  }

  core::SwapPolicy policy_;
  std::unique_ptr<World> world_;
  std::vector<std::pair<core::LineId, mining::Itemset>> inserts_;
  std::vector<core::LineId> lines_;
  std::vector<mining::Itemset> itemsets_;
};

void BM_StoreBuild(benchmark::State& state, core::SwapPolicy policy,
                   bool sized) {
  StoreBench bench(policy);
  for (auto _ : state) {
    state.PauseTiming();
    bench.reset();  // tears the previous world down untimed
    state.ResumeTiming();
    bench.build(sized);
    benchmark::DoNotOptimize(bench.store().size());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(StoreBench::kInserts));
  state.counters["per_insert"] = benchmark::Counter(
      static_cast<double>(StoreBench::kInserts),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_StoreBuild, no_limit, core::SwapPolicy::kNoLimit, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_StoreBuild, no_limit_sized, core::SwapPolicy::kNoLimit,
                  true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_StoreBuild, remote_update,
                  core::SwapPolicy::kRemoteUpdate, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_StoreBuild, remote_update_sized,
                  core::SwapPolicy::kRemoteUpdate, true)
    ->Unit(benchmark::kMillisecond);

void report_ns_per_probe(benchmark::State& state) {
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(StoreBench::kProbes));
  // Seconds per probe, printed with an SI prefix (e.g. "405n" = 405 ns).
  state.counters["per_probe"] = benchmark::Counter(
      static_cast<double>(StoreBench::kProbes),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

void BM_StoreProbe(benchmark::State& state, core::SwapPolicy policy) {
  StoreBench bench(policy);
  bench.reset();
  bench.build(false);
  for (auto _ : state) {
    bench.probe_each();
    benchmark::DoNotOptimize(bench.store().size());
    benchmark::ClobberMemory();
  }
  report_ns_per_probe(state);
}
BENCHMARK_CAPTURE(BM_StoreProbe, no_limit, core::SwapPolicy::kNoLimit);
BENCHMARK_CAPTURE(BM_StoreProbe, remote_update,
                  core::SwapPolicy::kRemoteUpdate);

void BM_StoreProbeBlock(benchmark::State& state, core::SwapPolicy policy) {
  StoreBench bench(policy);
  bench.reset();
  bench.build(false);
  for (auto _ : state) {
    bench.probe_blocks();
    benchmark::DoNotOptimize(bench.store().size());
    benchmark::ClobberMemory();
  }
  report_ns_per_probe(state);
}
BENCHMARK_CAPTURE(BM_StoreProbeBlock, no_limit, core::SwapPolicy::kNoLimit);
BENCHMARK_CAPTURE(BM_StoreProbeBlock, remote_update,
                  core::SwapPolicy::kRemoteUpdate);

void BM_CandidateGeneration(benchmark::State& state) {
  std::vector<mining::Itemset> l1;
  for (mining::Item i = 0; i < 1000; ++i) {
    mining::Itemset s;
    s.push_back(i);
    l1.push_back(s);
  }
  for (auto _ : state) {
    std::int64_t n = mining::count_candidates(l1);
    benchmark::DoNotOptimize(n);
    state.SetItemsProcessed(n);
  }
}
BENCHMARK(BM_CandidateGeneration);

void BM_QuestGeneration(benchmark::State& state) {
  mining::QuestParams p;
  p.num_transactions = 10'000;
  p.num_items = 1000;
  p.seed = 3;
  for (auto _ : state) {
    mining::QuestGenerator gen(p);
    mining::TransactionDb db = gen.generate();
    benchmark::DoNotOptimize(db.total_items());
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_QuestGeneration);

}  // namespace

BENCHMARK_MAIN();
