// Quest generator tests: determinism, parameter adherence, distribution
// sanity (mean transaction size, item-universe coverage, pattern skew).
#include <gtest/gtest.h>

#include <algorithm>

#include "mining/generator.hpp"

namespace rms::mining {
namespace {

QuestParams small_params(std::uint64_t seed = 7) {
  QuestParams p;
  p.num_transactions = 5000;
  p.num_items = 200;
  p.avg_transaction_size = 10;
  p.avg_pattern_size = 4;
  p.num_patterns = 50;
  p.seed = seed;
  return p;
}

TEST(QuestGenerator, ProducesRequestedTransactionCount) {
  QuestGenerator gen(small_params());
  TransactionDb db = gen.generate();
  EXPECT_EQ(db.size(), 5000u);
}

TEST(QuestGenerator, TransactionsAreSortedUniqueAndInRange) {
  QuestGenerator gen(small_params());
  TransactionDb db = gen.generate();
  for (std::size_t t = 0; t < db.size(); ++t) {
    auto tx = db.tx(t);
    ASSERT_FALSE(tx.empty());
    for (std::size_t i = 0; i < tx.size(); ++i) {
      EXPECT_LT(tx[i], 200u);
      if (i > 0) {
        EXPECT_LT(tx[i - 1], tx[i]);
      }
    }
  }
}

TEST(QuestGenerator, MeanTransactionSizeNearTarget) {
  QuestGenerator gen(small_params());
  TransactionDb db = gen.generate();
  const double mean =
      static_cast<double>(db.total_items()) / static_cast<double>(db.size());
  EXPECT_GT(mean, 6.5);
  EXPECT_LT(mean, 13.0);
}

TEST(QuestGenerator, DeterministicForSameSeed) {
  TransactionDb a = QuestGenerator(small_params(42)).generate();
  TransactionDb b = QuestGenerator(small_params(42)).generate();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    auto ta = a.tx(t);
    auto tb = b.tx(t);
    ASSERT_EQ(ta.size(), tb.size());
    EXPECT_TRUE(std::equal(ta.begin(), ta.end(), tb.begin()));
  }
}

TEST(QuestGenerator, DifferentSeedsDiffer) {
  TransactionDb a = QuestGenerator(small_params(1)).generate();
  TransactionDb b = QuestGenerator(small_params(2)).generate();
  ASSERT_EQ(a.size(), b.size());
  std::size_t differing = 0;
  for (std::size_t t = 0; t < a.size(); ++t) {
    auto ta = a.tx(t);
    auto tb = b.tx(t);
    if (ta.size() != tb.size() ||
        !std::equal(ta.begin(), ta.end(), tb.begin())) {
      ++differing;
    }
  }
  EXPECT_GT(differing, a.size() / 2);
}

TEST(QuestGenerator, ItemFrequenciesAreSkewed) {
  // Pattern weights are exponential: some items must be far more frequent
  // than the uniform baseline, which is what makes support thresholds bite.
  QuestGenerator gen(small_params());
  TransactionDb db = gen.generate();
  std::vector<std::int64_t> freq(200, 0);
  for (std::size_t t = 0; t < db.size(); ++t) {
    for (Item it : db.tx(t)) ++freq[it];
  }
  std::sort(freq.begin(), freq.end());
  const std::int64_t p90 = freq[180];
  const std::int64_t p10 = freq[20];
  EXPECT_GT(p90, 3 * std::max<std::int64_t>(1, p10));
}

TEST(QuestGenerator, PaperExperimentParamsScaleTransactionsOnly) {
  const QuestParams full = QuestParams::paper_experiment(1.0);
  const QuestParams tenth = QuestParams::paper_experiment(0.1);
  EXPECT_EQ(full.num_transactions, 1'000'000);
  EXPECT_EQ(tenth.num_transactions, 100'000);
  EXPECT_EQ(full.num_items, tenth.num_items);
  EXPECT_EQ(full.seed, tenth.seed);
}

TEST(TransactionDb, PartitionRoundRobinPreservesAll) {
  QuestGenerator gen(small_params());
  TransactionDb db = gen.generate();
  auto parts = db.partition(8);
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  EXPECT_EQ(total, db.size());
  // Round-robin: partition j holds transactions j, j+8, j+16, ...
  auto t11 = db.tx(11);
  auto p3_1 = parts[3].tx(1);
  ASSERT_EQ(t11.size(), p3_1.size());
  EXPECT_TRUE(std::equal(t11.begin(), t11.end(), p3_1.begin()));
}

TEST(TransactionDb, ApproxBytesTracksContent) {
  TransactionDb db;
  const Item tx1[] = {1, 2, 3};
  db.add(tx1);
  EXPECT_EQ(db.approx_bytes(), TransactionDb::kTxHeaderBytes + 12);
}

TEST(TransactionDbDeathTest, RejectsUnsortedTransaction) {
  TransactionDb db;
  const Item bad[] = {3, 1};
  EXPECT_DEATH(db.add(bad), "sorted");
}

}  // namespace
}  // namespace rms::mining
