#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>

#include "common/random.h"
#include "sampling/estimators.h"
#include "sampling/online_agg.h"
#include "sampling/sample_catalog.h"
#include "sampling/sampler.h"
#include "sampling/stratified.h"
#include "storage/table.h"

namespace exploredb {
namespace {

// ---------------------------------------------------------------- samplers

TEST(ReservoirTest, KeepsAllWhenUnderCapacity) {
  ReservoirSampler s(10);
  for (uint32_t i = 0; i < 5; ++i) s.Add(i);
  EXPECT_EQ(s.sample().size(), 5u);
  EXPECT_EQ(s.items_seen(), 5u);
}

TEST(ReservoirTest, CapsAtCapacity) {
  ReservoirSampler s(10);
  for (uint32_t i = 0; i < 1000; ++i) s.Add(i);
  EXPECT_EQ(s.sample().size(), 10u);
  EXPECT_EQ(s.items_seen(), 1000u);
}

TEST(ReservoirTest, ApproximatelyUniformInclusion) {
  // Each of 100 items should land in a 10-slot reservoir ~10% of the time.
  std::vector<int> hits(100, 0);
  for (uint64_t seed = 0; seed < 2000; ++seed) {
    ReservoirSampler s(10, seed);
    for (uint32_t i = 0; i < 100; ++i) s.Add(i);
    for (uint32_t x : s.sample()) ++hits[x];
  }
  for (int h : hits) {
    EXPECT_GT(h, 100);  // expected 200, generous band
    EXPECT_LT(h, 320);
  }
}

TEST(SamplePositionsTest, DistinctSortedAndSized) {
  Random rng(5);
  auto s = SamplePositions(10000, 100, &rng);
  EXPECT_EQ(s.size(), 100u);
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  std::set<uint32_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), s.size());
  for (uint32_t p : s) EXPECT_LT(p, 10000u);
}

TEST(SamplePositionsTest, KGreaterThanNClamps) {
  Random rng(5);
  auto s = SamplePositions(10, 100, &rng);
  EXPECT_EQ(s.size(), 10u);
}

TEST(SamplePositionsTest, LargeFractionPath) {
  Random rng(5);
  auto s = SamplePositions(100, 60, &rng);  // partial-shuffle branch
  EXPECT_EQ(s.size(), 60u);
  std::set<uint32_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 60u);
}

/// BernoulliSample of the rows [0, n), as a new vector.
std::vector<uint32_t> Bernoulli(size_t n, double fraction, Random* rng) {
  std::vector<uint32_t> out;
  BernoulliSample(0, n, fraction, rng, &out);
  return out;
}

TEST(BernoulliTest, FractionRoughlyHonored) {
  Random rng(7);
  auto s = Bernoulli(100000, 0.1, &rng);
  EXPECT_NEAR(static_cast<double>(s.size()), 10000.0, 400.0);
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
}

TEST(BernoulliTest, EdgeFractions) {
  Random rng(7);
  const double kEmpty[] = {0.0,
                           -0.0,
                           -0.5,
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()};
  for (double f : kEmpty) {
    SCOPED_TRACE(f);
    EXPECT_TRUE(Bernoulli(100, f, &rng).empty());
  }
  const double kAll[] = {1.0, 2.0, std::numeric_limits<double>::infinity()};
  for (double f : kAll) {
    SCOPED_TRACE(f);
    std::vector<uint32_t> all = Bernoulli(100, f, &rng);
    ASSERT_EQ(all.size(), 100u);
    for (uint32_t i = 0; i < 100; ++i) EXPECT_EQ(all[i], i);
  }
  // A denormal fraction keeps (almost surely) nothing, and its huge gaps
  // must not overflow the position arithmetic.
  EXPECT_TRUE(
      Bernoulli(1'000'000, std::numeric_limits<double>::denorm_min(), &rng)
          .empty());
  EXPECT_TRUE(Bernoulli(0, 0.5, &rng).empty());
}

// Positions are strictly increasing (so sorted and distinct) and in [0, n).
void ExpectSortedDistinctInRange(const std::vector<uint32_t>& s, size_t n) {
  for (size_t i = 1; i < s.size(); ++i) {
    ASSERT_LT(s[i - 1], s[i]);
  }
  if (!s.empty()) {
    EXPECT_LT(s.back(), n);
  }
}

TEST(BernoulliTest, SortedInRangeAndBinomialSize) {
  struct Case {
    size_t n;
    double p;
  };
  // The last case does no work per row: 2^32 - 1 rows at p = 1e-6 keep
  // ~4.3k positions and must finish at once.
  const Case kCases[] = {{1'000, 0.5},         {50'000, 0.3},
                         {50'000, 0.999},      {100'000, 0.001},
                         {1'000'000, 0.05},    {1'000'000, 0.95},
                         {size_t{0xFFFFFFFF}, 1e-6}};
  for (const Case& c : kCases) {
    SCOPED_TRACE(::testing::Message() << "n=" << c.n << " p=" << c.p);
    Random rng(23);
    std::vector<uint32_t> s = Bernoulli(c.n, c.p, &rng);
    const double mean = static_cast<double>(c.n) * c.p;
    const double sd = std::sqrt(mean * (1 - c.p));
    EXPECT_NEAR(static_cast<double>(s.size()), mean, 5 * sd);
    ExpectSortedDistinctInRange(s, c.n);
    // O(sample) work: one draw per kept row, plus the one that overshoots
    // the end.
    Random replay(23);
    for (size_t i = 0; i <= s.size(); ++i) replay.Next();
    EXPECT_EQ(rng.Next(), replay.Next());
  }
}

TEST(BernoulliTest, EndPositionsKeptAtRateP) {
  // An off-by-one in the first or last gap shows up as position 0 or n-1
  // kept at a rate far from p.
  constexpr size_t kN = 1'000;
  constexpr double kP = 0.1;
  constexpr int kSeeds = 20'000;
  int first = 0, last = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    Random rng(seed);
    std::vector<uint32_t> s = Bernoulli(kN, kP, &rng);
    first += !s.empty() && s.front() == 0;
    last += !s.empty() && s.back() == kN - 1;
  }
  const double mean = kSeeds * kP;
  const double sd = std::sqrt(mean * (1 - kP));
  EXPECT_NEAR(first, mean, 5 * sd);
  EXPECT_NEAR(last, mean, 5 * sd);
}

TEST(BernoulliTest, MeanGapIsGeometric) {
  for (double p : {0.01, 0.5}) {
    SCOPED_TRACE(p);
    Random rng(31);
    std::vector<uint32_t> s = Bernoulli(2'000'000, p, &rng);
    ASSERT_GT(s.size(), 1000u);
    // Rows skipped between consecutive kept rows ~ Geometric(p), mean
    // (1-p)/p and standard deviation sqrt(1-p)/p.
    const double gaps = static_cast<double>(s.back() - s.front()) -
                        static_cast<double>(s.size() - 1);
    const double mean_gap = gaps / static_cast<double>(s.size() - 1);
    const double sd_of_mean =
        std::sqrt(1 - p) / p / std::sqrt(static_cast<double>(s.size() - 1));
    EXPECT_NEAR(mean_gap, (1 - p) / p, 5 * sd_of_mean);
  }
}

TEST(BernoulliTest, SameSeedSameSample) {
  Random a(99), b(99), c(100);
  std::vector<uint32_t> sa = Bernoulli(100'000, 0.02, &a);
  EXPECT_EQ(sa, Bernoulli(100'000, 0.02, &b));
  EXPECT_NE(sa, Bernoulli(100'000, 0.02, &c));
}

TEST(BernoulliTest, RangeDrawAppendsShiftedRows) {
  // Rows [begin, end) draw the gaps rows [0, end - begin) would, shifted by
  // begin, after what *out already holds.
  Random a(5), b(5);
  const std::vector<uint32_t> base = Bernoulli(10'000, 0.05, &a);
  std::vector<uint32_t> out = {7};
  BernoulliSample(70'000, 80'000, 0.05, &b, &out);
  ASSERT_EQ(out.size(), base.size() + 1);
  EXPECT_EQ(out[0], 7u);
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(out[i + 1], base[i] + 70'000);
  }
}

// ---------------------------------------------------------------- estimators

TEST(EstimatorsTest, NormalQuantileKnownValues) {
  EXPECT_NEAR(NormalQuantile(0.975), 1.959964, 1e-4);
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.995), 2.575829, 1e-4);
  EXPECT_NEAR(NormalQuantile(0.025), -1.959964, 1e-4);
}

TEST(EstimatorsTest, ZScoreOfCommonLevels) {
  EXPECT_NEAR(ZScore(0.95), 1.96, 0.01);
  EXPECT_NEAR(ZScore(0.99), 2.576, 0.01);
}

TEST(EstimatorsTest, MeanEstimateExactForConstants) {
  Estimate e = EstimateMean({5, 5, 5, 5}, 0.95);
  EXPECT_DOUBLE_EQ(e.value, 5.0);
  EXPECT_DOUBLE_EQ(e.ci_half_width, 0.0);
}

TEST(EstimatorsTest, EmptySampleIsSafe) {
  Estimate e = EstimateMean({}, 0.95);
  EXPECT_EQ(e.sample_size, 0u);
  EXPECT_DOUBLE_EQ(e.value, 0.0);
}

// Property: the CLT CI covers the true mean ~confidence fraction of the time.
class CiCoverage : public ::testing::TestWithParam<double> {};

TEST_P(CiCoverage, CoversTrueMeanAtNominalRate) {
  const double confidence = GetParam();
  const double true_mean = 10.0;
  int covered = 0;
  const int trials = 600;
  for (int t = 0; t < trials; ++t) {
    Random rng(1000 + t);
    std::vector<double> sample(200);
    for (double& v : sample) v = true_mean + rng.NextGaussian() * 3.0;
    Estimate e = EstimateMean(sample, confidence);
    covered += (std::abs(e.value - true_mean) <= e.ci_half_width);
  }
  double rate = static_cast<double>(covered) / trials;
  EXPECT_GT(rate, confidence - 0.05);
}

INSTANTIATE_TEST_SUITE_P(Levels, CiCoverage, ::testing::Values(0.90, 0.95));

TEST(EstimatorsTest, SumEstimateScalesByPopulation) {
  Random rng(3);
  std::vector<double> population(10000);
  double total = 0;
  for (double& v : population) {
    v = rng.NextDouble() * 10;
    total += v;
  }
  std::vector<uint32_t> idx = SamplePositions(population.size(), 1000, &rng);
  std::vector<double> sample;
  for (uint32_t i : idx) sample.push_back(population[i]);
  Estimate e = EstimateSum(sample, population.size(), 0.95);
  EXPECT_NEAR(e.value, total, total * 0.05);
  EXPECT_GT(e.ci_half_width, 0.0);
}

TEST(EstimatorsTest, CountEstimateBinomial) {
  Estimate e = EstimateCount(100, 1000, 100000, 0.95);
  EXPECT_DOUBLE_EQ(e.value, 10000.0);
  EXPECT_GT(e.ci_half_width, 0.0);
  EXPECT_LT(e.ci_half_width, 4000.0);
}

TEST(EstimatorsTest, CountEstimateKeepsWidthWhenSampleIsAllOrNothing) {
  // A strict subset with no matching rows, or only matching rows, is not
  // proof of the population: the interval must keep a positive width.
  Estimate none = EstimateCount(0, 10'000, 5'000'000, 0.95);
  EXPECT_DOUBLE_EQ(none.value, 0.0);
  EXPECT_GT(none.ci_half_width, 0.0);
  Estimate all = EstimateCount(10'000, 10'000, 5'000'000, 0.95);
  EXPECT_DOUBLE_EQ(all.value, 5'000'000.0);
  EXPECT_GT(all.ci_half_width, 0.0);
  // ~z^2/n of the population (Wilson), not a vacuous bound.
  EXPECT_LT(none.ci_half_width, 5'000'000.0 * 0.001);
  EXPECT_NEAR(none.ci_half_width, all.ci_half_width, 1e-6);
  // No sample at all: anything in [0, N].
  EXPECT_DOUBLE_EQ(EstimateCount(0, 0, 1'000, 0.95).ci_half_width, 1'000.0);
}

TEST(EstimatorsTest, CountEstimateOfWholePopulationIsExact) {
  for (size_t matches : {size_t{0}, size_t{37}, size_t{100}}) {
    Estimate e = EstimateCount(matches, 100, 100, 0.95);
    EXPECT_DOUBLE_EQ(e.value, static_cast<double>(matches));
    EXPECT_DOUBLE_EQ(e.ci_half_width, 0.0);
  }
}

// Property: the count interval covers the population count at about the
// stated rate, including when matches are rare enough that many samples
// hold none.
TEST(EstimatorsTest, CountIntervalCoversRareMatches) {
  constexpr size_t kN = 200'000;
  constexpr size_t kMatches = 60;  // 3e-4 of the population
  constexpr int kTrials = 400;
  int covered = 0;
  for (int t = 0; t < kTrials; ++t) {
    Random rng(500 + t);
    std::vector<uint32_t> s = SamplePositions(kN, 2'000, &rng);
    // Rows [0, kMatches) match.
    size_t hits = std::lower_bound(s.begin(), s.end(), kMatches) - s.begin();
    Estimate e = EstimateCount(hits, s.size(), kN, 0.95);
    covered += std::abs(e.value - static_cast<double>(kMatches)) <=
               e.ci_half_width;
  }
  EXPECT_GT(static_cast<double>(covered) / kTrials, 0.90);
}

TEST(EstimatorsTest, HoeffdingShrinksWithSamples) {
  double w1 = HoeffdingHalfWidth(100, 0, 1, 0.95);
  double w2 = HoeffdingHalfWidth(400, 0, 1, 0.95);
  EXPECT_NEAR(w1 / w2, 2.0, 1e-9);  // 1/sqrt(n) scaling
  EXPECT_TRUE(std::isinf(HoeffdingHalfWidth(0, 0, 1, 0.95)));
}

// ---------------------------------------------------------------- stratified

TEST(StratifiedTest, RareGroupsFullyRepresented) {
  // 3 groups: two huge, one tiny (5 rows). Uniform 1% sampling would almost
  // surely miss the tiny group; stratified must keep all 5 rows.
  std::vector<std::string> keys;
  for (int i = 0; i < 5000; ++i) keys.push_back("big_a");
  for (int i = 0; i < 5000; ++i) keys.push_back("big_b");
  for (int i = 0; i < 5; ++i) keys.push_back("rare");
  StratifiedSample s(keys, /*cap=*/100);
  EXPECT_EQ(s.num_groups(), 3u);
  size_t rare_count = 0;
  for (size_t i = 0; i < s.positions().size(); ++i) {
    if (keys[s.positions()[i]] == "rare") {
      ++rare_count;
      EXPECT_DOUBLE_EQ(s.weight(i), 1.0);  // fully sampled
    }
  }
  EXPECT_EQ(rare_count, 5u);
}

TEST(StratifiedTest, CapRespected) {
  std::vector<std::string> keys(1000, "only");
  StratifiedSample s(keys, 50);
  EXPECT_EQ(s.size(), 50u);
  EXPECT_DOUBLE_EQ(s.weight(0), 20.0);  // 1000/50
}

TEST(StratifiedTest, WeightedSumUnbiasedish) {
  Random rng(9);
  std::vector<std::string> keys;
  std::vector<double> values;
  double total = 0;
  for (int g = 0; g < 10; ++g) {
    int size = 100 * (g + 1);
    for (int i = 0; i < size; ++i) {
      keys.push_back("g" + std::to_string(g));
      double v = rng.NextDouble() + g;
      values.push_back(v);
      total += v;
    }
  }
  StratifiedSample s(keys, 80);
  EXPECT_NEAR(s.WeightedSum(values), total, total * 0.1);
}

TEST(StratifiedTest, GroupMeansExactForSmallGroups) {
  std::vector<std::string> keys{"a", "a", "b"};
  std::vector<double> values{1.0, 3.0, 10.0};
  StratifiedSample s(keys, 10);
  auto means = s.GroupMeans(values, keys);
  ASSERT_EQ(means.size(), 2u);
  EXPECT_DOUBLE_EQ(means["a"].value, 2.0);
  EXPECT_DOUBLE_EQ(means["a"].ci_half_width, 0.0);
  EXPECT_DOUBLE_EQ(means["b"].value, 10.0);
}

// ---------------------------------------------------------------- online agg

TEST(OnlineAggTest, ConvergesToExactAvg) {
  Random rng(13);
  std::vector<double> values(5000);
  double sum = 0;
  for (double& v : values) {
    v = rng.NextDouble() * 100;
    sum += v;
  }
  double truth = sum / values.size();
  OnlineAggregator agg(values, {}, AggKind::kAvg);
  while (!agg.done()) agg.ProcessNext(500);
  Estimate e = agg.Current();
  EXPECT_NEAR(e.value, truth, 1e-9);
  EXPECT_NEAR(e.ci_half_width, 0.0, 1e-12);  // FPC collapses at full scan
}

TEST(OnlineAggTest, CiShrinksMonotonicallyOnAverage) {
  Random rng(17);
  std::vector<double> values(20000);
  for (double& v : values) v = rng.NextGaussian() * 5 + 50;
  OnlineAggregator agg(values, {}, AggKind::kAvg);
  agg.ProcessNext(500);
  double w_early = agg.Current().ci_half_width;
  agg.ProcessNext(8000);
  double w_mid = agg.Current().ci_half_width;
  agg.ProcessNext(11000);
  double w_late = agg.Current().ci_half_width;
  EXPECT_GT(w_early, w_mid);
  EXPECT_GT(w_mid, w_late);
}

TEST(OnlineAggTest, EstimateNearTruthEarly) {
  Random rng(19);
  std::vector<double> values(50000);
  double sum = 0;
  for (double& v : values) {
    v = rng.NextDouble();
    sum += v;
  }
  OnlineAggregator agg(values, {}, AggKind::kAvg);
  agg.ProcessNext(2000);  // 4% of the data
  Estimate e = agg.Current(0.99);
  EXPECT_NEAR(e.value, sum / values.size(), 3 * e.ci_half_width);
}

TEST(OnlineAggTest, MaskedCountAndSum) {
  std::vector<double> values{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<uint8_t> mask{true, false, true, false, true,
                            false, true, false, true, false};
  OnlineAggregator count(values, mask, AggKind::kCount);
  while (!count.done()) count.ProcessNext(3);
  EXPECT_NEAR(count.Current().value, 5.0, 1e-9);

  OnlineAggregator sum(values, mask, AggKind::kSum);
  while (!sum.done()) sum.ProcessNext(3);
  EXPECT_NEAR(sum.Current().value, 1 + 3 + 5 + 7 + 9, 1e-9);

  OnlineAggregator avg(values, mask, AggKind::kAvg);
  while (!avg.done()) avg.ProcessNext(3);
  EXPECT_NEAR(avg.Current().value, 5.0, 1e-9);
}

TEST(OnlineAggTest, ProcessNextReturnsConsumed) {
  OnlineAggregator agg({1, 2, 3}, {}, AggKind::kAvg);
  EXPECT_EQ(agg.ProcessNext(2), 2u);
  EXPECT_EQ(agg.ProcessNext(5), 1u);
  EXPECT_EQ(agg.ProcessNext(5), 0u);
  EXPECT_TRUE(agg.done());
}

// ---------------------------------------------------------------- catalog

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema schema({{"v", DataType::kDouble}, {"k", DataType::kInt64}});
    table_ = Table(schema);
    Random rng(21);
    for (int i = 0; i < 20000; ++i) {
      ASSERT_TRUE(table_
                      .AppendRow({Value(rng.NextGaussian() * 10 + 100),
                                  Value(static_cast<int64_t>(i % 100))})
                      .ok());
    }
  }
  Table table_;
};

TEST_F(CatalogTest, SmallErrorBudgetEscalates) {
  SampleCatalog catalog(&table_, {0.001, 0.01, 0.1});
  Predicate all;
  auto loose = catalog.AvgWithErrorBudget("v", all, /*error=*/5.0);
  ASSERT_TRUE(loose.ok());
  auto tight = catalog.AvgWithErrorBudget("v", all, /*error=*/0.05);
  ASSERT_TRUE(tight.ok());
  EXPECT_LE(loose.ValueOrDie().fraction_used,
            tight.ValueOrDie().fraction_used);
  EXPECT_NEAR(tight.ValueOrDie().estimate.value, 100.0, 1.0);
}

TEST_F(CatalogTest, ZeroBudgetFallsBackToExact) {
  SampleCatalog catalog(&table_, {0.01});
  Predicate all;
  auto exact = catalog.AvgWithErrorBudget("v", all, /*error=*/0.0);
  ASSERT_TRUE(exact.ok());
  EXPECT_DOUBLE_EQ(exact.ValueOrDie().fraction_used, 1.0);
  EXPECT_DOUBLE_EQ(exact.ValueOrDie().estimate.ci_half_width, 0.0);
}

TEST_F(CatalogTest, RowBudgetPicksLargestAffordable) {
  SampleCatalog catalog(&table_, {0.001, 0.01, 0.1});
  Predicate all;
  auto a = catalog.AvgWithRowBudget("v", all, /*max_rows=*/250);
  ASSERT_TRUE(a.ok());
  EXPECT_DOUBLE_EQ(a.ValueOrDie().fraction_used, 0.01);
  auto fail = catalog.AvgWithRowBudget("v", all, /*max_rows=*/2);
  EXPECT_EQ(fail.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CatalogTest, StringColumnRejected) {
  Schema schema({{"s", DataType::kString}});
  Table t(schema);
  ASSERT_TRUE(t.AppendRow({Value("x")}).ok());
  SampleCatalog catalog(&t, {0.5});
  auto r = catalog.AvgWithErrorBudget("s", Predicate(), 1.0);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CatalogTest, PredicateRestrictsEstimate) {
  SampleCatalog catalog(&table_, {0.1});
  Predicate p({{1, CompareOp::kLt, Value(int64_t{50})}});
  auto r = catalog.AvgWithErrorBudget("v", p, /*error=*/1.0);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.ValueOrDie().estimate.value, 100.0, 3.0);
}

// ------------------------------------------------------ invariant validation

TEST(StratifiedValidateTest, FreshSamplesValidate) {
  Random rng(43);
  std::vector<std::string> keys;
  for (int i = 0; i < 20'000; ++i) {
    keys.push_back("g" + std::to_string(rng.Zipf(50, 1.1)));
  }
  StratifiedSample s(keys, /*cap=*/64);
  EXPECT_TRUE(s.Validate(keys, 64).ok());
}

TEST(StratifiedValidateTest, CatchesMismatchedPopulation) {
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; ++i) keys.push_back(i < 900 ? "big" : "small");
  StratifiedSample s(keys, /*cap=*/50);
  ASSERT_TRUE(s.Validate(keys, 50).ok());
  // Validating against a different population: the recorded group sizes (and
  // hence every Horvitz-Thompson weight) no longer describe the data.
  std::vector<std::string> relabeled = keys;
  for (int i = 0; i < 500; ++i) relabeled[i] = "small";
  EXPECT_FALSE(s.Validate(relabeled, 50).ok());
  // Validating with the wrong cap: per-group sampled counts disagree.
  EXPECT_FALSE(s.Validate(keys, 10).ok());
}

}  // namespace
}  // namespace exploredb
