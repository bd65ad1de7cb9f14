// Property tests for the kernel primitives under randomized topologies:
// channels preserve the message multiset, resources never exceed capacity,
// barriers keep cohorts aligned, and everything is deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "sim/channel.hpp"
#include "sim/process.hpp"
#include "sim/resource.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"

namespace rms::sim {
namespace {

using Topology = std::tuple<int /*producers*/, int /*consumers*/,
                            int /*items per producer*/, std::uint64_t>;

class ChannelTopologyTest : public ::testing::TestWithParam<Topology> {};

TEST_P(ChannelTopologyTest, MessageMultisetIsPreserved) {
  const auto [producers, consumers, per_producer, seed] = GetParam();
  Simulation sim;
  Channel<int> ch(sim);
  Pcg32 rng(seed);

  std::vector<int> sent;
  std::vector<int> received;
  const int total = producers * per_producer;

  auto producer = [](Simulation& s, Channel<int>& c, int base, int n,
                     Time jitter, std::vector<int>& out) -> Process {
    for (int i = 0; i < n; ++i) {
      co_await s.timeout(jitter * (i + 1));
      const int v = base + i;
      out.push_back(v);
      c.send(v);
    }
  };
  auto consumer = [](Channel<int>& c, int n, std::vector<int>& out,
                     Simulation& s, Time pace) -> Process {
    for (int i = 0; i < n; ++i) {
      const int v = co_await c.recv();
      out.push_back(v);
      co_await s.timeout(pace);
    }
  };

  // Consumers split the total unevenly.
  std::vector<int> quota(static_cast<std::size_t>(consumers),
                         total / consumers);
  quota[0] += total % consumers;

  for (int p = 0; p < producers; ++p) {
    sim.spawn(producer(sim, ch, p * 1000, per_producer,
                       usec(1 + rng.below(50)), sent));
  }
  for (int c = 0; c < consumers; ++c) {
    sim.spawn(consumer(ch, quota[static_cast<std::size_t>(c)], received, sim,
                       usec(1 + rng.below(20))));
  }
  sim.run();

  ASSERT_EQ(sent.size(), static_cast<std::size_t>(total));
  ASSERT_EQ(received.size(), sent.size());
  std::vector<int> a = sent, b = received;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  EXPECT_EQ(ch.pending(), 0u);
  EXPECT_EQ(ch.waiting_receivers(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, ChannelTopologyTest,
    ::testing::Values(Topology{1, 1, 50, 1}, Topology{4, 1, 25, 2},
                      Topology{1, 4, 40, 3}, Topology{3, 3, 30, 4},
                      Topology{8, 2, 20, 5}, Topology{2, 8, 40, 6}));

using ResourceCase = std::tuple<int /*capacity*/, int /*workers*/,
                                std::uint64_t /*seed*/>;

class ResourcePropertyTest : public ::testing::TestWithParam<ResourceCase> {};

TEST_P(ResourcePropertyTest, ConcurrencyNeverExceedsCapacity) {
  const auto [capacity, workers, seed] = GetParam();
  Simulation sim;
  Resource res(sim, capacity);
  Pcg32 rng(seed);

  int active = 0;
  int peak = 0;
  int completed = 0;
  auto worker = [](Simulation& s, Resource& r, Time hold, int& act, int& pk,
                   int& done) -> Process {
    for (int round = 0; round < 3; ++round) {
      Lease lease = co_await r.acquire();
      ++act;
      pk = std::max(pk, act);
      co_await s.timeout(hold);
      --act;
      lease.release();
      co_await s.timeout(hold / 2 + 1);
    }
    ++done;
  };
  for (int w = 0; w < workers; ++w) {
    sim.spawn(worker(sim, res, usec(10 + rng.below(90)), active, peak,
                     completed));
  }
  sim.run();

  EXPECT_EQ(completed, workers);
  EXPECT_LE(peak, capacity);
  if (workers >= capacity) {
    EXPECT_EQ(peak, capacity);  // fully utilized
  }
  EXPECT_EQ(res.in_use(), 0);
  EXPECT_EQ(res.total_acquired(), static_cast<std::uint64_t>(workers) * 3);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ResourcePropertyTest,
                         ::testing::Combine(::testing::Values(1, 2, 5),
                                            ::testing::Values(1, 4, 12),
                                            ::testing::Values(11u, 12u)));

class BarrierPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BarrierPropertyTest, CohortsNeverSkew) {
  const int parties = GetParam();
  Simulation sim;
  Barrier barrier(sim, static_cast<std::size_t>(parties));
  Pcg32 rng(static_cast<std::uint64_t>(parties));

  // Each party records the phase it believes it is in when released; all
  // releases of one generation must agree.
  std::vector<std::vector<int>> released_phases(16);
  auto party = [](Simulation& s, Barrier& b, Time pace,
                  std::vector<std::vector<int>>& log) -> Process {
    for (int phase = 0; phase < 16; ++phase) {
      co_await s.timeout(pace * (phase % 3 + 1));
      co_await b.arrive();
      log[static_cast<std::size_t>(phase)].push_back(phase);
    }
  };
  for (int p = 0; p < parties; ++p) {
    sim.spawn(party(sim, barrier, usec(3 + rng.below(40)),
                    released_phases));
  }
  sim.run();

  EXPECT_EQ(barrier.generation(), 16u);
  for (int phase = 0; phase < 16; ++phase) {
    EXPECT_EQ(released_phases[static_cast<std::size_t>(phase)].size(),
              static_cast<std::size_t>(parties))
        << "phase " << phase;
  }
}

INSTANTIATE_TEST_SUITE_P(Parties, BarrierPropertyTest,
                         ::testing::Values(1, 2, 3, 7, 16));

TEST(SimDeterminism, IdenticalRunsProduceIdenticalTraces) {
  auto run_once = [](std::uint64_t seed) {
    Simulation sim;
    Channel<int> ch(sim);
    Resource res(sim, 2);
    Pcg32 rng(seed);
    std::vector<std::pair<Time, int>> trace;

    auto producer = [](Simulation& s, Channel<int>& c, Pcg32& r,
                       std::vector<std::pair<Time, int>>& t) -> Process {
      for (int i = 0; i < 200; ++i) {
        co_await s.timeout(usec(r.below(100) + 1));
        c.send(i);
        t.emplace_back(s.now(), i);
      }
    };
    auto consumer = [](Simulation& s, Channel<int>& c, Resource& rs,
                       std::vector<std::pair<Time, int>>& t) -> Process {
      for (int i = 0; i < 200; ++i) {
        const int v = co_await c.recv();
        Lease l = co_await rs.acquire();
        co_await s.timeout(usec(7));
        t.emplace_back(s.now(), -v);
      }
    };
    sim.spawn(producer(sim, ch, rng, trace));
    sim.spawn(consumer(sim, ch, res, trace));
    sim.run();
    return trace;
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));
}

}  // namespace
}  // namespace rms::sim
