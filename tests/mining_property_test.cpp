// Parameterized property tests for the mining substrate: the generator's
// distributional contracts over a parameter grid, and Apriori-vs-brute-force
// across support thresholds.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "mining/apriori.hpp"
#include "mining/generator.hpp"
#include "mining/rules.hpp"

namespace rms::mining {
namespace {

// ---------------------------------------------------------------------------
// Generator grid.
// ---------------------------------------------------------------------------

using GenCase = std::tuple<double /*avg tx*/, double /*avg pattern*/,
                           std::int64_t /*patterns*/, std::uint64_t /*seed*/>;

class GeneratorGridTest : public ::testing::TestWithParam<GenCase> {};

TEST_P(GeneratorGridTest, StructuralContractsHold) {
  const auto [avg_tx, avg_pattern, patterns, seed] = GetParam();
  QuestParams p;
  p.num_transactions = 3000;
  p.num_items = 250;
  p.avg_transaction_size = avg_tx;
  p.avg_pattern_size = avg_pattern;
  p.num_patterns = patterns;
  p.seed = seed;
  TransactionDb db = QuestGenerator(p).generate();

  ASSERT_EQ(db.size(), 3000u);
  std::size_t total_items = 0;
  for (std::size_t t = 0; t < db.size(); ++t) {
    auto tx = db.tx(t);
    ASSERT_FALSE(tx.empty());
    for (std::size_t i = 0; i < tx.size(); ++i) {
      ASSERT_LT(tx[i], p.num_items);
      if (i > 0) {
        ASSERT_LT(tx[i - 1], tx[i]);  // sorted unique
      }
    }
    total_items += tx.size();
  }
  // Mean size within a tolerant band of the target (duplicates inside
  // patterns shrink it a little).
  const double mean =
      static_cast<double>(total_items) / static_cast<double>(db.size());
  EXPECT_GT(mean, avg_tx * 0.55) << "mean " << mean;
  EXPECT_LT(mean, avg_tx * 1.45) << "mean " << mean;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GeneratorGridTest,
    // Pattern pools below ~50 cannot reach large per-transaction targets
    // after deduplication, so the mean-size band only applies from there.
    ::testing::Combine(::testing::Values(5.0, 10.0, 20.0),
                       ::testing::Values(2.0, 4.0),
                       ::testing::Values(std::int64_t{50}, std::int64_t{200}),
                       ::testing::Values(std::uint64_t{1})),
    [](const ::testing::TestParamInfo<GenCase>& param_info) {
      const GenCase& c = param_info.param;
      return "t" + std::to_string(static_cast<int>(std::get<0>(c))) + "_i" +
             std::to_string(static_cast<int>(std::get<1>(c))) + "_p" +
             std::to_string(std::get<2>(c)) + "_s" +
             std::to_string(std::get<3>(c));
    });

// ---------------------------------------------------------------------------
// Apriori vs brute force across support thresholds.
// ---------------------------------------------------------------------------

std::map<std::vector<Item>, std::uint32_t> brute_force(
    const TransactionDb& db, std::size_t max_k) {
  std::map<std::vector<Item>, std::uint32_t> counts;
  for (std::size_t t = 0; t < db.size(); ++t) {
    auto tx = db.tx(t);
    const std::size_t n = tx.size();
    RMS_CHECK(n <= 20);
    for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
      const auto bits = static_cast<std::size_t>(__builtin_popcount(mask));
      if (bits == 0 || bits > max_k) continue;
      std::vector<Item> subset;
      for (std::size_t i = 0; i < n; ++i) {
        if ((mask >> i) & 1u) subset.push_back(tx[i]);
      }
      ++counts[subset];
    }
  }
  return counts;
}

class AprioriSupportTest : public ::testing::TestWithParam<double> {};

TEST_P(AprioriSupportTest, MatchesBruteForce) {
  const double minsup = GetParam();
  QuestParams p;
  p.num_transactions = 300;
  p.num_items = 30;
  p.avg_transaction_size = 6;
  p.avg_pattern_size = 3;
  p.num_patterns = 10;
  p.seed = 44;
  TransactionDb db = QuestGenerator(p).generate();

  AprioriOptions opt;
  opt.max_k = 4;
  const AprioriResult mined = apriori(db, minsup, opt);
  const auto truth = brute_force(db, 4);

  std::size_t expected = 0;
  for (const auto& [items, count] : truth) {
    if (count < mined.min_count) continue;
    ++expected;
    Itemset s;
    for (Item i : items) s.push_back(i);
    const auto it = mined.support.find(s);
    ASSERT_NE(it, mined.support.end()) << s.to_string();
    EXPECT_EQ(it->second, count);
  }
  EXPECT_EQ(mined.support.size(), expected);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, AprioriSupportTest,
                         ::testing::Values(0.01, 0.03, 0.08, 0.2, 0.5),
                         [](const auto& param_info) {
                           return "minsup_" +
                                  std::to_string(static_cast<int>(
                                      param_info.param * 1000));
                         });

// ---------------------------------------------------------------------------
// Rule derivation properties across confidence thresholds.
// ---------------------------------------------------------------------------

class RuleConfidenceTest : public ::testing::TestWithParam<double> {};

TEST_P(RuleConfidenceTest, RulesAreExactlyTheQualifyingPartitions) {
  const double minconf = GetParam();
  QuestParams p;
  p.num_transactions = 1500;
  p.num_items = 60;
  p.seed = 55;
  TransactionDb db = QuestGenerator(p).generate();
  const AprioriResult mined = apriori(db, 0.03);
  const auto rules = derive_rules(mined, minconf);

  // Count qualifying partitions directly from the support map.
  std::size_t expected = 0;
  for (const auto& [itemset, count] : mined.support) {
    if (itemset.size() < 2) continue;
    const auto mask_limit = static_cast<std::uint32_t>(1u << itemset.size());
    for (std::uint32_t mask = 1; mask + 1 < mask_limit; ++mask) {
      Itemset ante;
      for (std::size_t i = 0; i < itemset.size(); ++i) {
        if ((mask >> i) & 1u) ante.push_back(itemset[i]);
      }
      const double conf = static_cast<double>(count) /
                          static_cast<double>(mined.support.at(ante));
      if (conf >= minconf) ++expected;
    }
  }
  EXPECT_EQ(rules.size(), expected);
  for (const Rule& r : rules) {
    EXPECT_GE(r.confidence, minconf);
    EXPECT_LE(r.confidence, 1.0 + 1e-12);
    EXPECT_GT(r.support, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Confidences, RuleConfidenceTest,
                         ::testing::Values(0.2, 0.5, 0.8, 0.95),
                         [](const auto& param_info) {
                           return "conf_" +
                                  std::to_string(static_cast<int>(
                                      param_info.param * 100));
                         });

}  // namespace
}  // namespace rms::mining
