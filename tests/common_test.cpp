// Tests for the common utilities: time arithmetic, RNG distributions,
// stats, table printer, and flag parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/time.hpp"

namespace rms {
namespace {

TEST(TimeArithmetic, UnitsCompose) {
  EXPECT_EQ(usec(1), nsec(1000));
  EXPECT_EQ(msec(1), usec(1000));
  EXPECT_EQ(sec(1), msec(1000));
  EXPECT_DOUBLE_EQ(to_seconds(sec(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_millis(usec(1500)), 1.5);
}

TEST(TimeArithmetic, TransmitTimeRoundsUp) {
  // 1 byte at 8 bps = exactly 1 second.
  EXPECT_EQ(transmit_time(1, 8), sec(1));
  // 4096 B at 120 Mbps ~= 273 us.
  const Time t = transmit_time(4096, 120'000'000);
  EXPECT_GT(t, usec(270));
  EXPECT_LT(t, usec(276));
  // Rounds up, never to zero for nonzero payloads.
  EXPECT_GE(transmit_time(1, 1'000'000'000'000LL), 1);
}

TEST(Rng, DeterministicPerSeedAndStream) {
  Pcg32 a(7, 1), b(7, 1), c(7, 2), d(8, 1);
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    (void)va;
  }
  bool differs_stream = false, differs_seed = false;
  Pcg32 a2(7, 1);
  for (int i = 0; i < 100; ++i) {
    const auto v = a2();
    if (v != c()) differs_stream = true;
    if (v != d()) differs_seed = true;
  }
  EXPECT_TRUE(differs_stream);
  EXPECT_TRUE(differs_seed);
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform) {
  Pcg32 rng(123);
  std::vector<int> hist(10, 0);
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const auto v = rng.below(10);
    ASSERT_LT(v, 10u);
    ++hist[v];
  }
  for (int h : hist) {
    EXPECT_GT(h, n / 10 * 92 / 100);
    EXPECT_LT(h, n / 10 * 108 / 100);
  }
}

TEST(Rng, RangeInclusive) {
  Pcg32 rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, PoissonMoments) {
  Pcg32 rng(77);
  for (double mean : {0.5, 4.0, 10.0, 50.0}) {
    double sum = 0, sq = 0;
    const int n = 50'000;
    for (int i = 0; i < n; ++i) {
      const double v = rng.poisson(mean);
      sum += v;
      sq += v * v;
    }
    const double m = sum / n;
    const double var = sq / n - m * m;
    EXPECT_NEAR(m, mean, mean * 0.05 + 0.05) << "mean " << mean;
    EXPECT_NEAR(var, mean, mean * 0.12 + 0.1) << "mean " << mean;
  }
}

TEST(Rng, ExponentialMean) {
  Pcg32 rng(88);
  double sum = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(Rng, NormalMoments) {
  Pcg32 rng(99);
  double sum = 0, sq = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Stats, SummaryTracksMoments) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  s.add(2.0);
  s.add(4.0);
  s.add(9.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.sum(), 15.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

TEST(Stats, SummaryMerge) {
  Summary a, b;
  a.add(1.0);
  a.add(3.0);
  b.add(10.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.max(), 10.0);
  Summary empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 3u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 3u);
}

TEST(Stats, RegistryCountersAndMerge) {
  StatsRegistry r;
  r.bump("x");
  r.bump("x", 4);
  r.sample("lat", 2.0);
  EXPECT_EQ(r.counter("x"), 5);
  EXPECT_EQ(r.counter("missing"), 0);
  EXPECT_EQ(r.summary("lat").count(), 1u);
  EXPECT_EQ(r.summary("missing").count(), 0u);

  StatsRegistry other;
  other.bump("x", 10);
  other.sample("lat", 4.0);
  r.merge(other);
  EXPECT_EQ(r.counter("x"), 15);
  EXPECT_DOUBLE_EQ(r.summary("lat").mean(), 3.0);
}

TEST(Histogram, PercentilesOnUniformData) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i) / 100.0);
  EXPECT_EQ(h.count(), 1000u);
  // Log buckets have 7% resolution; allow that plus bucket-edge rounding.
  EXPECT_NEAR(h.percentile(0.5), 5.0, 0.5);
  EXPECT_NEAR(h.percentile(0.99), 9.9, 0.9);
  EXPECT_NEAR(h.percentile(0.0), 0.01, 0.01);
  EXPECT_NEAR(h.percentile(1.0), 10.0, 1.0);
}

TEST(Histogram, EmptyAndSingle) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  h.add(2.5);
  EXPECT_NEAR(h.percentile(0.0), 2.5, 0.25);
  EXPECT_NEAR(h.percentile(1.0), 2.5, 0.25);
  EXPECT_DOUBLE_EQ(h.summary().mean(), 2.5);
}

TEST(Histogram, EmptyReportsAllPercentilesEqualToMax) {
  const Histogram h;
  // Empty: every percentile and the summary max agree (all zero) — report
  // consumers can print p50/p95/p99/max without special-casing.
  for (const double p : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(p), h.summary().max());
  }
  EXPECT_DOUBLE_EQ(h.summary().max(), 0.0);
}

TEST(Histogram, SingleSampleReportsAllPercentilesEqualToMax) {
  Histogram h;
  h.add(13.2);
  // One sample IS the whole distribution: p50 = p95 = p99 = max exactly
  // (the log-bucket upper edge must not inflate it).
  for (const double p : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(p), 13.2);
    EXPECT_DOUBLE_EQ(h.percentile(p), h.summary().max());
  }
}

TEST(Summary, EmptyIsConsistentZeros) {
  const Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Summary, SingleSampleMinMeanMaxCoincide) {
  Summary s;
  s.add(-4.25);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.min(), -4.25);
  EXPECT_DOUBLE_EQ(s.max(), -4.25);
  EXPECT_DOUBLE_EQ(s.mean(), -4.25);
}

TEST(Histogram, TinyAndHugeValuesClampToEdgeBuckets) {
  Histogram h;
  h.add(-5.0);     // below range
  h.add(1e-9);     // below range
  h.add(1e9);      // above range
  EXPECT_EQ(h.count(), 3u);
  EXPECT_GT(h.percentile(1.0), h.percentile(0.0));
}

TEST(Histogram, MergeCombinesDistributions) {
  Histogram a, b;
  for (int i = 0; i < 100; ++i) a.add(1.0);
  for (int i = 0; i < 100; ++i) b.add(100.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_NEAR(a.percentile(0.25), 1.0, 0.1);
  EXPECT_NEAR(a.percentile(0.75), 100.0, 10.0);
}

TEST(Histogram, PercentilesAreMonotone) {
  Histogram h;
  Pcg32 rng(42);
  for (int i = 0; i < 5000; ++i) {
    h.add(rng.exponential(3.0));  // heavy tail spanning many buckets
  }
  double prev = 0.0;
  for (double p = 0.0; p <= 1.0 + 1e-12; p += 0.01) {
    const double v = h.percentile(std::min(p, 1.0));
    EXPECT_GE(v, prev) << "p=" << p;
    prev = v;
  }
}

TEST(Histogram, MergeEqualsPooledAdd) {
  Histogram a, b, pooled;
  Pcg32 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.exponential(1.0);
    a.add(v);
    pooled.add(v);
  }
  for (int i = 0; i < 1000; ++i) {
    const double v = 50.0 + rng.exponential(20.0);
    b.add(v);
    pooled.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), pooled.count());
  EXPECT_DOUBLE_EQ(a.summary().sum(), pooled.summary().sum());
  EXPECT_DOUBLE_EQ(a.summary().min(), pooled.summary().min());
  EXPECT_DOUBLE_EQ(a.summary().max(), pooled.summary().max());
  // Same buckets, so every percentile must agree exactly.
  for (double p : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(p), pooled.percentile(p)) << "p=" << p;
  }
}

TEST(Histogram, ZeroAndNegativeShareTheFirstBucket) {
  Histogram h;
  h.add(0.0);
  h.add(-123.0);
  h.add(1e-3);  // exactly the lower edge
  EXPECT_EQ(h.count(), 3u);
  // All three land in bucket 0: every percentile is its upper edge.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), h.percentile(1.0));
  EXPECT_GT(h.percentile(0.5), 0.0);
  // The exact summary still sees the raw values.
  EXPECT_DOUBLE_EQ(h.summary().min(), -123.0);
  EXPECT_DOUBLE_EQ(h.summary().max(), 1e-3);
}

TEST(Stats, SummaryMergePreservesMinMaxAcrossDirections) {
  Summary lo, hi;
  lo.add(-2.0);
  lo.add(1.0);
  hi.add(100.0);
  hi.add(200.0);
  Summary m = lo;
  m.merge(hi);
  EXPECT_EQ(m.count(), 4u);
  EXPECT_DOUBLE_EQ(m.min(), -2.0);
  EXPECT_DOUBLE_EQ(m.max(), 200.0);
  EXPECT_DOUBLE_EQ(m.sum(), 299.0);
  // Merging the other direction gives the same moments.
  Summary m2 = hi;
  m2.merge(lo);
  EXPECT_EQ(m2.count(), m.count());
  EXPECT_DOUBLE_EQ(m2.min(), m.min());
  EXPECT_DOUBLE_EQ(m2.max(), m.max());
  EXPECT_DOUBLE_EQ(m2.sum(), m.sum());
}

TEST(Registry, RecordFeedsHistogram) {
  StatsRegistry r;
  for (int i = 0; i < 50; ++i) r.record("lat", 2.0);
  EXPECT_EQ(r.histogram("lat").count(), 50u);
  EXPECT_NEAR(r.histogram("lat").percentile(0.5), 2.0, 0.2);
  EXPECT_EQ(r.histogram("missing").count(), 0u);

  StatsRegistry other;
  other.record("lat", 8.0);
  r.merge(other);
  EXPECT_EQ(r.histogram("lat").count(), 51u);
}

TEST(Table, CsvRoundTrip) {
  TablePrinter t("test", {"a", "b"});
  t.add_row({"1", "x"});
  t.add_row({"2", "y"});
  const std::string path = ::testing::TempDir() + "/rmswap_table_test.csv";
  ASSERT_TRUE(t.write_csv(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), "a,b\n1,x\n2,y\n");
}

TEST(Table, Formatters) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::integer(-42), "-42");
}

TEST(TableDeathTest, RowWidthMismatchAborts) {
  TablePrinter t("test", {"a", "b"});
  EXPECT_DEATH(t.add_row({"only-one"}), "width");
}

TEST(Flags, ParsesAllForms) {
  const char* argv[] = {"prog",     "--alpha=3",  "--beta", "7",
                        "--gamma",  "positional", nullptr};
  Flags f(6, argv,
          {{"alpha", ""}, {"beta", ""}, {"gamma", ""}});
  EXPECT_EQ(f.get_int("alpha", 0), 3);
  EXPECT_EQ(f.get_int("beta", 0), 7);
  // A non-flag token after "--gamma" is consumed as gamma's value.
  EXPECT_EQ(f.get("gamma", ""), "positional");
}

TEST(Flags, TrailingBareFlagIsBooleanTrue) {
  const char* argv[] = {"prog", "--verbose", nullptr};
  Flags f(2, argv, {{"verbose", ""}});
  EXPECT_TRUE(f.get_bool("verbose", false));
}

TEST(Flags, BareFlagBeforeAnotherFlagIsBooleanTrue) {
  const char* argv[] = {"prog", "--verbose", "--rate=1", nullptr};
  Flags f(3, argv, {{"verbose", ""}, {"rate", ""}});
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_EQ(f.get_int("rate", 0), 1);
}

TEST(Flags, DefaultsAndTypes) {
  const char* argv[] = {"prog", "--rate=2.5", nullptr};
  Flags f(2, argv, {{"rate", ""}, {"other", ""}});
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(f.get_double("other", 1.25), 1.25);
  EXPECT_EQ(f.get("other", "dflt"), "dflt");
  EXPECT_FALSE(f.has("other"));
  EXPECT_TRUE(f.has("rate"));
}

TEST(FlagsDeathTest, UnknownFlagExits) {
  const char* argv[] = {"prog", "--nope=1", nullptr};
  EXPECT_EXIT(Flags(2, argv, {{"known", ""}}),
              ::testing::ExitedWithCode(2), "unknown flag");
}

TEST(FlagsDeathTest, NonNumericDoubleExitsWithUsage) {
  const char* argv[] = {"prog", "--limit-mb", "abc", nullptr};
  const Flags f(3, argv, {{"limit-mb", "memory limit"}});
  EXPECT_EXIT((void)f.get_double("limit-mb", 1.0),
              ::testing::ExitedWithCode(2),
              "--limit-mb expects a number, got 'abc'.*usage:");
}

TEST(FlagsDeathTest, TrailingGarbageAfterAnIntegerExits) {
  const char* argv[] = {"prog", "--app-nodes=2x", nullptr};
  const Flags f(2, argv, {{"app-nodes", ""}});
  EXPECT_EXIT((void)f.get_int("app-nodes", 4), ::testing::ExitedWithCode(2),
              "--app-nodes expects a number, got '2x'");
}

TEST(FlagsDeathTest, EmptyNumericValueExits) {
  const char* argv[] = {"prog", "--rate=", nullptr};
  const Flags f(2, argv, {{"rate", ""}});
  EXPECT_EXIT((void)f.get_double("rate", 0.5), ::testing::ExitedWithCode(2),
              "--rate expects a number");
  EXPECT_EXIT((void)f.get_int("rate", 1), ::testing::ExitedWithCode(2),
              "--rate expects a number");
}

TEST(Flags, NumbersParseWholeValues) {
  const char* argv[] = {"prog", "--limit-mb=-1", "--scale", "1e-2",
                        "--rows=40000", nullptr};
  const Flags f(5, argv, {{"limit-mb", ""}, {"scale", ""}, {"rows", ""}});
  EXPECT_DOUBLE_EQ(f.get_double("limit-mb", 0.0), -1.0);
  EXPECT_DOUBLE_EQ(f.get_double("scale", 0.0), 0.01);
  EXPECT_EQ(f.get_int("rows", 0), 40000);
}

}  // namespace
}  // namespace rms
