// Placement subsystem tests.
//
// Three layers:
//   1. A regression holding kPaperRoundRobin to the pre-refactor behaviour:
//      an embedded reference implementation of the old
//      AvailabilityTable::choose_destination / choose_best_effort pair is
//      driven in lockstep with the broker over a long scripted op sequence,
//      plus a hand-computed literal destination sequence.
//   2. A property sweep: every policy x quarantine x staleness x
//      dead-node-revival combination (32 cases) under a randomized op
//      script, checking the decision invariants the consumers rely on.
//   3. Policy-specific units (least-loaded ordering, power-of-two
//      determinism and eligibility, affinity hint and fallback, parsing).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "placement/placement.hpp"

namespace rms::placement {
namespace {

using core::AvailabilityInfo;

PlacementRequest request(std::int64_t bytes, net::NodeId exclude = -1,
                         Time now = -1, bool best_effort = false,
                         std::int64_t headroom = 0, net::NodeId prev = -1) {
  PlacementRequest req;
  req.bytes = bytes;
  req.headroom = headroom;
  req.exclude = exclude;
  req.previous_holder = prev;
  req.now = now;
  req.best_effort = best_effort;
  return req;
}

// ---------------------------------------------------------------------------
// 1. Pre-refactor regression.
// ---------------------------------------------------------------------------

// The old AvailabilityTable, verbatim semantics: round-robin scan with a
// cursor that advances only on success, strict >= threshold, and the
// best-effort "most room among live fresh nodes" fallback. The broker's
// paper-rr policy must reproduce this decision for decision.
class ReferenceTable {
 public:
  struct Entry {
    std::int64_t available = 0;
    std::uint64_t seq = 0;
    Time updated = -1;
    bool valid = false;
    bool dead = false;
    bool quarantined = false;
  };

  explicit ReferenceTable(std::vector<net::NodeId> nodes)
      : nodes_(std::move(nodes)) {
    for (net::NodeId n : nodes_) entries_[n];
  }

  bool update(const AvailabilityInfo& info, Time now) {
    Entry& e = entries_[info.node];
    if (e.valid && info.seq <= e.seq) return false;
    e.available = info.available_bytes;
    e.seq = info.seq;
    e.updated = now;
    e.valid = true;
    e.dead = false;
    return true;
  }

  void set_max_age(Time max_age) { max_age_ = max_age; }
  void mark_dead(net::NodeId n) { entries_[n].dead = true; }
  void quarantine(net::NodeId n) { entries_[n].quarantined = true; }

  bool expired(const Entry& e, Time now) const {
    if (max_age_ <= 0 || !e.valid) return false;
    return now - e.updated > max_age_;
  }

  std::optional<net::NodeId> choose_destination(std::int64_t bytes_needed,
                                                net::NodeId exclude,
                                                Time now) {
    if (nodes_.empty()) return std::nullopt;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const std::size_t at = (cursor_ + i) % nodes_.size();
      const net::NodeId n = nodes_[at];
      const Entry& e = entries_[n];
      if (n == exclude || e.dead || e.quarantined) continue;
      if (now >= 0 && expired(e, now)) continue;
      const std::int64_t avail = e.valid ? e.available : 0;
      if (avail < bytes_needed) continue;
      cursor_ = (at + 1) % nodes_.size();
      return n;
    }
    return std::nullopt;
  }

  std::optional<net::NodeId> choose_best_effort(net::NodeId exclude,
                                                Time now) {
    std::optional<net::NodeId> best;
    std::int64_t best_room = -1;
    for (const net::NodeId n : nodes_) {
      const Entry& e = entries_[n];
      if (n == exclude || e.dead || e.quarantined || !e.valid) continue;
      if (now >= 0 && expired(e, now)) continue;
      if (e.available > best_room) {
        best_room = e.available;
        best = n;
      }
    }
    return best;
  }

  void debit(net::NodeId n, std::int64_t bytes) {
    Entry& e = entries_[n];
    if (!e.valid) return;
    e.available = e.available >= bytes ? e.available - bytes : 0;
  }

 private:
  std::vector<net::NodeId> nodes_;
  std::map<net::NodeId, Entry> entries_;
  Time max_age_ = 0;
  std::size_t cursor_ = 0;
};

// The exact consumer protocol: RemoteBackend qualifies destinations on
// bytes + headroom but debits only bytes (the headroom is breathing room,
// not an allocation).
std::optional<net::NodeId> reference_pick(ReferenceTable& t,
                                          const PlacementRequest& req) {
  std::optional<net::NodeId> dest =
      t.choose_destination(req.bytes + req.headroom, req.exclude, req.now);
  if (!dest.has_value() && req.best_effort) {
    dest = t.choose_best_effort(req.exclude, req.now);
  }
  if (dest.has_value()) t.debit(*dest, req.bytes);
  return dest;
}

TEST(PaperRoundRobinRegression, HandComputedDestinationSequence) {
  MemoryBroker b({1, 2, 3, 4});
  for (net::NodeId n : b.memory_nodes()) {
    b.update(AvailabilityInfo{n, 10 << 20, 1}, 0);
  }
  std::vector<net::NodeId> picks;
  const auto pick = [&] { picks.push_back(b.choose(request(1 << 20)).node); };
  for (int i = 0; i < 6; ++i) pick();  // 1 2 3 4 1 2
  b.mark_dead(3);
  for (int i = 0; i < 3; ++i) pick();  // 4 1 2 (cursor was on 3)
  b.quarantine(4);
  for (int i = 0; i < 2; ++i) pick();  // 1 2
  b.update(AvailabilityInfo{3, 10 << 20, 2}, 0);  // restart revives 3
  for (int i = 0; i < 2; ++i) pick();  // 3, then (4 quarantined) 1
  EXPECT_EQ(picks, (std::vector<net::NodeId>{1, 2, 3, 4, 1, 2, 4, 1, 2, 1, 2,
                                             3, 1}));
}

TEST(PaperRoundRobinRegression, LockstepWithPreRefactorReference) {
  const std::vector<net::NodeId> nodes{1, 2, 3, 4, 5, 6};
  MemoryBroker broker(nodes, PolicyKind::kPaperRoundRobin);
  ReferenceTable ref(nodes);
  broker.set_max_age(sec(2));
  ref.set_max_age(sec(2));

  Pcg32 rng(0xdecade);
  std::vector<std::uint64_t> seq(nodes.size(), 0);
  Time now = 0;
  int decisions = 0;
  for (int step = 0; step < 400; ++step) {
    now += msec(rng.below(300));
    const std::uint32_t op = rng.below(100);
    if (op < 30) {
      // A monitor report; occasionally replayed out of order (stale seq).
      const std::size_t i = rng.below(static_cast<std::uint32_t>(nodes.size()));
      const std::uint64_t s =
          rng.bernoulli(0.2) ? seq[i] : ++seq[i];
      const auto avail = static_cast<std::int64_t>(rng.below(12 << 20));
      EXPECT_EQ(broker.update(AvailabilityInfo{nodes[i], avail, s}, now),
                ref.update(AvailabilityInfo{nodes[i], avail, s}, now));
    } else if (op < 35) {
      const std::size_t i = rng.below(static_cast<std::uint32_t>(nodes.size()));
      broker.mark_dead(nodes[i]);
      ref.mark_dead(nodes[i]);
    } else if (op < 37) {
      // Quarantine sparingly (it is sticky) so picks stay possible.
      const net::NodeId n = nodes[rng.below(2)];
      broker.quarantine(n);
      ref.quarantine(n);
    } else {
      PlacementRequest req = request(
          static_cast<std::int64_t>(1 + rng.below(4 << 20)),
          /*exclude=*/rng.bernoulli(0.3)
              ? nodes[rng.below(static_cast<std::uint32_t>(nodes.size()))]
              : -1,
          now,
          /*best_effort=*/rng.bernoulli(0.3),
          /*headroom=*/rng.bernoulli(0.5) ? (1 << 18) : 0);
      const PlacementDecision got = broker.choose(req);
      const std::optional<net::NodeId> want = reference_pick(ref, req);
      ASSERT_EQ(got.ok(), want.has_value()) << "step " << step;
      if (want.has_value()) {
        ASSERT_EQ(got.node, *want) << "step " << step;
      }
      ++decisions;
    }
  }
  ASSERT_GT(decisions, 200);
  EXPECT_EQ(broker.stats().counter("placement.paper-rr.chosen") +
                broker.stats().counter("placement.paper-rr.denied"),
            decisions);
}

// ---------------------------------------------------------------------------
// 2. Property sweep: policy x quarantine x staleness x dead-revival.
// ---------------------------------------------------------------------------

using SweepCase = std::tuple<PolicyKind, bool /*quarantine*/,
                             bool /*staleness*/, bool /*dead_revival*/>;

class PlacementSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PlacementSweepTest, DecisionInvariantsHoldUnderChurn) {
  const auto [policy, use_quarantine, use_staleness, use_revival] = GetParam();

  const std::vector<net::NodeId> nodes{1, 2, 3, 4, 5, 6};
  MemoryBroker b(nodes, policy, /*rng_stream=*/7);
  if (use_staleness) b.set_max_age(sec(2));

  Pcg32 rng(0xfeed0000u + (static_cast<std::uint64_t>(policy) << 8) +
            (use_quarantine ? 4u : 0u) + (use_staleness ? 2u : 0u) +
            (use_revival ? 1u : 0u));
  std::vector<std::uint64_t> seq(nodes.size(), 0);
  std::size_t quarantined_count = 0;
  Time now = 0;
  std::int64_t decisions = 0;

  for (int step = 0; step < 300; ++step) {
    now += msec(rng.below(400));
    const std::uint32_t op = rng.below(100);
    if (op < 35) {
      const std::size_t i = rng.below(static_cast<std::uint32_t>(nodes.size()));
      b.update(AvailabilityInfo{nodes[i], static_cast<std::int64_t>(
                                              rng.below(12 << 20)),
                                ++seq[i]},
               now);
    } else if (op < 42) {
      const std::size_t i = rng.below(static_cast<std::uint32_t>(nodes.size()));
      b.mark_dead(nodes[i]);
      if (use_revival && rng.bernoulli(0.6)) {
        // Restart: the monitor resumes with a fresh report, reviving it.
        b.update(AvailabilityInfo{nodes[i], static_cast<std::int64_t>(
                                                rng.below(12 << 20)),
                                  ++seq[i]},
                 now);
        EXPECT_FALSE(b.dead(nodes[i]));
      }
    } else if (op < 45 && use_quarantine && quarantined_count < 2) {
      const std::size_t i = rng.below(static_cast<std::uint32_t>(nodes.size()));
      if (!b.quarantined(nodes[i])) {
        b.quarantine(nodes[i]);
        ++quarantined_count;
      }
    } else {
      const std::int64_t bytes =
          static_cast<std::int64_t>(1 + rng.below(6 << 20));
      const std::int64_t headroom = rng.bernoulli(0.5) ? (1 << 18) : 0;
      const net::NodeId exclude =
          rng.bernoulli(0.3)
              ? nodes[rng.below(static_cast<std::uint32_t>(nodes.size()))]
              : -1;
      const net::NodeId prev =
          rng.bernoulli(0.5)
              ? nodes[rng.below(static_cast<std::uint32_t>(nodes.size()))]
              : -1;
      const bool best_effort = rng.bernoulli(0.25);

      // Snapshot the estimates the decision will be made against
      // (choose() debits the winner).
      std::map<net::NodeId, std::int64_t> avail_before;
      for (net::NodeId n : nodes) avail_before[n] = b.available(n);

      const PlacementDecision d =
          b.choose(request(bytes, exclude, now, best_effort, headroom, prev));
      ++decisions;
      if (!d.ok()) continue;

      // Never a dead, quarantined, excluded, or stale node.
      EXPECT_FALSE(b.dead(d.node));
      EXPECT_FALSE(b.quarantined(d.node));
      EXPECT_NE(d.node, exclude);
      EXPECT_FALSE(b.expired(d.node, now));
      if (!d.best_effort_used) {
        // Threshold decisions honour bytes + headroom...
        EXPECT_GE(avail_before[d.node], bytes + headroom);
      } else {
        // ...and only best-effort requests may degrade below it.
        EXPECT_TRUE(best_effort);
      }
      // The winner was debited for exactly the granted bytes.
      EXPECT_EQ(b.available(d.node),
                std::max<std::int64_t>(0, avail_before[d.node] - bytes));
    }
  }

  // Every decision is accounted once, under the policy's namespace.
  const std::string prefix = std::string("placement.") + policy_name(policy);
  EXPECT_EQ(b.stats().counter(prefix + ".chosen") +
                b.stats().counter(prefix + ".denied"),
            decisions);
  EXPECT_GT(decisions, 100);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PlacementSweepTest,
    ::testing::Combine(::testing::ValuesIn(all_policies()),
                       ::testing::Bool(), ::testing::Bool(),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<SweepCase>& param_info) {
      std::string name = policy_name(std::get<0>(param_info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      name += std::get<1>(param_info.param) ? "_quar" : "_noquar";
      name += std::get<2>(param_info.param) ? "_stale" : "_nostale";
      name += std::get<3>(param_info.param) ? "_revive" : "_norevive";
      return name;
    });

// ---------------------------------------------------------------------------
// 3. Policy-specific units.
// ---------------------------------------------------------------------------

TEST(PlacementPolicy, NamesParseAndRoundTrip) {
  EXPECT_EQ(all_policies().size(), 4u);
  for (PolicyKind k : all_policies()) {
    const auto parsed = parse_policy(policy_name(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(parse_policy("round-robin").has_value());
  EXPECT_FALSE(parse_policy("").has_value());
}

TEST(PlacementPolicy, LeastLoadedPicksTheRoomiestAndTiesBreakEarlier) {
  MemoryBroker b({1, 2, 3}, PolicyKind::kLeastLoaded);
  b.update(AvailabilityInfo{1, 4 << 20, 1}, 0);
  b.update(AvailabilityInfo{2, 9 << 20, 1}, 0);
  b.update(AvailabilityInfo{3, 6 << 20, 1}, 0);
  EXPECT_EQ(b.choose(request(1 << 20)).node, 2);  // 9 MB, the roomiest
  // After the debit node 2 holds 8 MB — still the roomiest.
  EXPECT_EQ(b.choose(request(1 << 20)).node, 2);
  // Equal room: the earlier node in memory_nodes order wins.
  b.update(AvailabilityInfo{1, 7 << 20, 2}, 0);
  b.update(AvailabilityInfo{2, 7 << 20, 2}, 0);
  b.update(AvailabilityInfo{3, 7 << 20, 2}, 0);
  EXPECT_EQ(b.choose(request(1 << 20)).node, 1);
}

TEST(PlacementPolicy, PowerOfTwoIsDeterministicPerStreamAndEligible) {
  const std::vector<net::NodeId> nodes{1, 2, 3, 4, 5};
  const auto run = [&](std::uint64_t stream, std::vector<net::NodeId>& picks) {
    MemoryBroker b(nodes, PolicyKind::kPowerOfTwoChoices, stream);
    for (net::NodeId n : nodes) {
      b.update(AvailabilityInfo{n, 32 << 20, 1}, 0);
    }
    b.mark_dead(4);
    for (int i = 0; i < 24; ++i) {
      const PlacementDecision d = b.choose(request(1 << 20));
      ASSERT_TRUE(d.ok());
      EXPECT_NE(d.node, 4);  // dead nodes never qualify
      picks.push_back(d.node);
    }
    // Two choices spread the load: no single node takes everything.
    EXPECT_GT((std::set<net::NodeId>(picks.begin(), picks.end())).size(), 1u);
  };
  std::vector<net::NodeId> a, b2, c;
  run(3, a);
  run(3, b2);
  EXPECT_EQ(a, b2);  // same stream: bit-identical decisions
  run(4, c);
  EXPECT_NE(a, c);  // different broker streams decorrelate
}

TEST(PlacementPolicy, PowerOfTwoWithOneCandidateStillPlaces) {
  MemoryBroker b({1, 2}, PolicyKind::kPowerOfTwoChoices);
  b.update(AvailabilityInfo{1, 8 << 20, 1}, 0);
  EXPECT_EQ(b.choose(request(1 << 20)).node, 1);
}

TEST(PlacementPolicy, AffinityPrefersThePreviousHolderWhileItQualifies) {
  MemoryBroker b({1, 2, 3}, PolicyKind::kAffinity);
  b.update(AvailabilityInfo{1, 8 << 20, 1}, 0);
  b.update(AvailabilityInfo{2, 8 << 20, 1}, 0);
  b.update(AvailabilityInfo{3, 8 << 20, 1}, 0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(b.choose(request(1 << 20, -1, -1, false, 0, /*prev=*/2)).node,
              2);
  }
  EXPECT_EQ(b.stats().counter("placement.affinity.affinity_hits"), 3);
  // The hint stops binding when the holder no longer qualifies.
  b.mark_dead(2);
  const PlacementDecision d =
      b.choose(request(1 << 20, -1, -1, false, 0, /*prev=*/2));
  ASSERT_TRUE(d.ok());
  EXPECT_NE(d.node, 2);
  // No hint at all: behaves like the paper scan.
  EXPECT_TRUE(b.choose(request(1 << 20)).ok());
}

TEST(MemoryBroker, BestEffortFallbackTakesTheRoomiestLiveNode) {
  MemoryBroker b({1, 2, 3});
  b.update(AvailabilityInfo{1, 100, 1}, 0);
  b.update(AvailabilityInfo{2, 300, 1}, 0);
  b.update(AvailabilityInfo{3, 200, 1}, 0);
  // Nobody meets the threshold; a plain request is denied...
  EXPECT_FALSE(b.choose(request(1 << 20)).ok());
  // ...but a best-effort one (replica placement) takes the roomiest node.
  const PlacementDecision d = b.choose(request(1 << 20, -1, -1, true));
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d.best_effort_used);
  EXPECT_EQ(d.node, 2);
  EXPECT_EQ(b.stats().counter("placement.paper-rr.best_effort"), 1);
  // Even best-effort never touches an excluded or dead node.
  b.mark_dead(2);
  const PlacementDecision d2 = b.choose(request(1 << 20, /*exclude=*/3, -1,
                                                true));
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(d2.node, 1);
}

TEST(MemoryBroker, FallbackDiskNotesLandInThePolicyNamespace) {
  MemoryBroker b({1});
  EXPECT_FALSE(b.choose(request(64)).ok());
  b.note_fallback_disk();
  EXPECT_EQ(b.stats().counter("placement.paper-rr.fallback_disk"), 1);
  EXPECT_EQ(b.stats().counter("placement.paper-rr.denied"), 1);
}

}  // namespace
}  // namespace rms::placement
