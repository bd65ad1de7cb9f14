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

// Count-phase store shaped like one hpa-nolimit node (800,000 lines and
// 4.9 M candidates over 8 nodes): ~100 k lines of ~6 entries, probed in
// random line order. The remote-update variant keeps ~1/8 of the
// candidate bytes resident, so most probes become one-way update ops.
class StoreBench {
 public:
  static constexpr std::size_t kLines = 100'000;
  static constexpr std::size_t kEntriesPerLine = 6;
  static constexpr std::size_t kProbes = 1 << 16;
  static constexpr std::size_t kBlock = 341;  // 2-itemsets per 4 KB message

  explicit StoreBench(core::SwapPolicy policy) {
    cluster::ClusterConfig ccfg;
    ccfg.num_nodes = 4;  // store on node 0, memory servers on 1..3
    cluster_ = std::make_unique<cluster::Cluster>(sim_, ccfg);
    broker_ = std::make_unique<placement::MemoryBroker>(
        std::vector<net::NodeId>{1, 2, 3});
    for (net::NodeId id = 1; id <= 3; ++id) {
      servers_.push_back(
          std::make_unique<core::MemoryServer>(cluster_->node(id)));
      sim_.spawn(servers_.back()->serve());
      broker_->update(core::AvailabilityInfo{id, std::int64_t{1} << 30, 1}, 0);
    }
    core::HashLineStore::Config cfg;
    cfg.num_lines = kLines;
    cfg.policy = policy;
    if (policy != core::SwapPolicy::kNoLimit) {
      cfg.memory_limit_bytes =
          static_cast<std::int64_t>(kLines * kEntriesPerLine) *
          mining::Itemset::kAccountedBytes / 8;
    }
    store_ = std::make_unique<core::HashLineStore>(cluster_->node(0), cfg,
                                                   broker_.get());

    // Candidates: unique 2-itemsets, kEntriesPerLine per line.
    Pcg32 rng(0x5704e, 7);
    std::vector<std::vector<mining::Itemset>> per_line(kLines);
    std::vector<std::pair<core::LineId, mining::Itemset>> inserts;
    for (std::size_t line = 0; line < kLines; ++line) {
      for (std::size_t e = 0; e < kEntriesPerLine; ++e) {
        const auto a = static_cast<mining::Item>(line);
        const mining::Itemset s{a, a + 1 + rng.below(1u << 20)};
        per_line[line].push_back(s);
        inserts.emplace_back(static_cast<core::LineId>(line), s);
      }
    }
    for (std::size_t i = inserts.size(); i > 1; --i) {
      std::swap(inserts[i - 1],
                inserts[rng.below(static_cast<std::uint32_t>(i))]);
    }
    run([&]() -> sim::Task<> {
      for (const auto& [line, s] : inserts) co_await store_->insert(line, s);
    });
    store_->set_phase(core::HashLineStore::Phase::kCount);
    for (std::size_t i = 0; i < kProbes; ++i) {
      const std::uint32_t line = rng.below(kLines);
      lines_.push_back(static_cast<core::LineId>(line));
      itemsets_.push_back(per_line[line][rng.below(kEntriesPerLine)]);
    }
  }

  /// One pass over the probe list, one co_await probe() per element.
  void probe_each() {
    run([&]() -> sim::Task<> {
      for (std::size_t i = 0; i < kProbes; ++i) {
        co_await store_->probe(lines_[i], itemsets_[i]);
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
        co_await store_->probe_block(lines.subspan(at, n),
                                     itemsets.subspan(at, n));
      }
    });
  }

  const core::HashLineStore& store() const { return *store_; }

 private:
  template <typename Body>
  void run(Body body) {
    auto proc = [](Body& b) -> sim::Process { co_await b(); };
    sim_.spawn(proc(body));
    sim_.run();
  }

  sim::Simulation sim_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<placement::MemoryBroker> broker_;
  std::vector<std::unique_ptr<core::MemoryServer>> servers_;
  std::unique_ptr<core::HashLineStore> store_;
  std::vector<core::LineId> lines_;
  std::vector<mining::Itemset> itemsets_;
};

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
