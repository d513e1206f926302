#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>

#include "common/random.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "engine/query.h"
#include "engine/session.h"

namespace exploredb {
namespace {

Schema EventsSchema() {
  return Schema({{"ts", DataType::kInt64},
                 {"value", DataType::kDouble},
                 {"kind", DataType::kString}});
}

Table EventsTable(size_t n, uint64_t seed) {
  Table t(EventsSchema());
  Random rng(seed);
  const char* kinds[] = {"alpha", "beta", "gamma"};
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(t.AppendRow({Value(rng.UniformInt(0, 99999)),
                             Value(rng.NextDouble() * 100),
                             Value(kinds[rng.Uniform(3)])})
                    .ok());
  }
  return t;
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable("events", EventsTable(20000, 42)).ok());
  }
  Database db_;
};

// ---------------------------------------------------------------- database

TEST_F(EngineTest, DuplicateTableRejected) {
  EXPECT_EQ(db_.CreateTable("events", Table(EventsSchema())).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(EngineTest, UnknownTableNotFound) {
  Executor exec(&db_);
  auto r = exec.Execute(Query::On("ghost"));
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, TableNamesListed) {
  auto names = db_.TableNames();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "events");
}

TEST_F(EngineTest, CrackerRequiresInt64Column) {
  auto entry = db_.GetTable("events");
  ASSERT_TRUE(entry.ok());
  EXPECT_FALSE(entry.ValueOrDie()->GetCracker(1).ok());   // double col
  EXPECT_TRUE(entry.ValueOrDie()->GetCracker(0).ok());    // int64 col
  EXPECT_FALSE(entry.ValueOrDie()->GetSortedIndex(2).ok());
}

// ---------------------------------------------------------------- executor

TEST_F(EngineTest, ScanSelectionReturnsMatchingRows) {
  Executor exec(&db_);
  Query q = Query::On("events").Where(
      Predicate({{0, CompareOp::kGe, Value(int64_t{1000})},
                 {0, CompareOp::kLt, Value(int64_t{2000})}}));
  auto r = exec.Execute(q);
  ASSERT_TRUE(r.ok());
  const QueryResult& result = r.ValueOrDie();
  ASSERT_TRUE(result.rows.has_value());
  EXPECT_EQ(result.rows->num_rows(), result.positions.size());
  for (size_t i = 0; i < result.rows->num_rows(); ++i) {
    int64_t ts = result.rows->GetValue(i, 0).int64();
    EXPECT_GE(ts, 1000);
    EXPECT_LT(ts, 2000);
  }
}

// Property: every execution mode that is exact must agree with the scan.
class ModeEquivalence : public ::testing::TestWithParam<ExecutionMode> {};

TEST_P(ModeEquivalence, AgreesWithScan) {
  Database db;
  ASSERT_TRUE(db.CreateTable("events", EventsTable(20000, 77)).ok());
  Executor exec(&db);
  Random rng(5);
  for (int i = 0; i < 20; ++i) {
    int64_t lo = rng.UniformInt(0, 90000);
    int64_t hi = lo + rng.UniformInt(1, 9000);
    Query q = Query::On("events").Where(
        Predicate({{0, CompareOp::kGe, Value(lo)},
                   {0, CompareOp::kLt, Value(hi)}}));
    ExecContext scan_opts;
    ExecContext mode_opts;
    mode_opts.options().mode = GetParam();
    auto want = exec.Execute(q, scan_opts);
    auto got = exec.Execute(q, mode_opts);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    auto w = want.ValueOrDie().positions;
    auto g = got.ValueOrDie().positions;
    std::sort(w.begin(), w.end());
    std::sort(g.begin(), g.end());
    ASSERT_EQ(w, g) << "mode=" << ExecutionModeName(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(ExactModes, ModeEquivalence,
                         ::testing::Values(ExecutionMode::kCracking,
                                           ExecutionMode::kFullIndex));

TEST_F(EngineTest, CrackingWithResidualPredicate) {
  Executor exec(&db_);
  Query q = Query::On("events").Where(
      Predicate({{0, CompareOp::kGe, Value(int64_t{0})},
                 {0, CompareOp::kLt, Value(int64_t{50000})},
                 {2, CompareOp::kEq, Value("alpha")}}));
  ExecContext crack;
  crack.options().mode = ExecutionMode::kCracking;
  auto got = exec.Execute(q, crack);
  auto want = exec.Execute(q);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  auto g = got.ValueOrDie().positions;
  auto w = want.ValueOrDie().positions;
  std::sort(g.begin(), g.end());
  std::sort(w.begin(), w.end());
  EXPECT_EQ(g, w);
}

// `> v`, `<= v` and `== v` bound an index range through v + 1, which does
// not exist at INT64_MAX: the index paths must leave such conjuncts in the
// residual and agree with the scan.
TEST_F(EngineTest, IndexPathsAgreeWithScanAtInt64Max) {
  Executor exec(&db_);
  const Value max64(std::numeric_limits<int64_t>::max());
  for (CompareOp op : {CompareOp::kGt, CompareOp::kLe, CompareOp::kEq}) {
    Query q = Query::On("events").Where(
        Predicate({{0, CompareOp::kGe, Value(int64_t{10})},
                   {0, CompareOp::kLt, Value(int64_t{50000})},
                   {0, op, max64}}));
    ExecContext scan;
    scan.options().mode = ExecutionMode::kScan;
    auto want = exec.Execute(q, scan);
    ASSERT_TRUE(want.ok());
    for (auto [mode, path] :
         {std::pair{ExecutionMode::kCracking, AccessPath::kCracker},
          std::pair{ExecutionMode::kFullIndex, AccessPath::kSorted}}) {
      ExecContext ctx;
      ctx.options().mode = mode;
      auto got = exec.Execute(q, ctx);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.ValueOrDie().stats().path, path);
      EXPECT_EQ(got.ValueOrDie().positions.size(),
                want.ValueOrDie().positions.size())
          << "op=" << CompareOpName(op)
          << " mode=" << ExecutionModeName(mode);
    }
  }
}

TEST_F(EngineTest, CrackingScansLessOnRepeats) {
  Executor exec(&db_);
  Query q = Query::On("events").Where(
      Predicate({{0, CompareOp::kGe, Value(int64_t{3000})},
                 {0, CompareOp::kLt, Value(int64_t{4000})}}));
  ExecContext crack;
  crack.options().mode = ExecutionMode::kCracking;
  auto first = exec.Execute(q, crack);
  auto second = exec.Execute(q, crack);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_LT(second.ValueOrDie().stats().rows_scanned,
            first.ValueOrDie().stats().rows_scanned);
}

TEST_F(EngineTest, ProjectionSelectsColumns) {
  Executor exec(&db_);
  Query q = Query::On("events").Select({"kind", "ts"});
  auto r = exec.Execute(q);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.ValueOrDie().rows.has_value());
  EXPECT_EQ(r.ValueOrDie().rows->num_columns(), 2u);
  EXPECT_EQ(r.ValueOrDie().rows->schema().field(0).name, "kind");
  EXPECT_FALSE(
      exec.Execute(Query::On("events").Select({"bogus"})).ok());
}

TEST_F(EngineTest, ExactAggregates) {
  Executor exec(&db_);
  auto count = exec.Execute(
      Query::On("events").Aggregate(AggKind::kCount));
  ASSERT_TRUE(count.ok());
  EXPECT_DOUBLE_EQ(count.ValueOrDie().scalar->value, 20000.0);
  EXPECT_DOUBLE_EQ(count.ValueOrDie().scalar->ci_half_width, 0.0);

  auto avg = exec.Execute(
      Query::On("events").Aggregate(AggKind::kAvg, "value"));
  ASSERT_TRUE(avg.ok());
  EXPECT_NEAR(avg.ValueOrDie().scalar->value, 50.0, 2.0);

  auto sum = exec.Execute(
      Query::On("events").Aggregate(AggKind::kSum, "value"));
  ASSERT_TRUE(sum.ok());
  EXPECT_NEAR(sum.ValueOrDie().scalar->value,
              avg.ValueOrDie().scalar->value * 20000, 1.0);
}

TEST_F(EngineTest, AggregateValidation) {
  Executor exec(&db_);
  EXPECT_FALSE(
      exec.Execute(Query::On("events").Aggregate(AggKind::kAvg)).ok());
  EXPECT_FALSE(
      exec.Execute(Query::On("events").Aggregate(AggKind::kAvg, "kind"))
          .ok());
  EXPECT_FALSE(
      exec.Execute(Query::On("events").GroupBy("kind")).ok());  // no agg
}

TEST_F(EngineTest, SampledAggregateCloseToExact) {
  Executor exec(&db_);
  Query q = Query::On("events").Aggregate(AggKind::kAvg, "value");
  ExecContext sampled;
  sampled.options().mode = ExecutionMode::kSampled;
  sampled.options().sample_fraction = 0.1;
  auto approx = exec.Execute(q, sampled);
  auto exact = exec.Execute(q);
  ASSERT_TRUE(approx.ok());
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(approx.ValueOrDie().approximate);
  EXPECT_GT(approx.ValueOrDie().scalar->ci_half_width, 0.0);
  EXPECT_NEAR(approx.ValueOrDie().scalar->value,
              exact.ValueOrDie().scalar->value,
              3 * approx.ValueOrDie().scalar->ci_half_width);
  EXPECT_LT(approx.ValueOrDie().stats().rows_scanned,
            exact.ValueOrDie().stats().rows_scanned / 2);
}

TEST_F(EngineTest, SampledCountScalesUp) {
  Executor exec(&db_);
  Query q = Query::On("events")
                .Where(Predicate({{2, CompareOp::kEq, Value("alpha")}}))
                .Aggregate(AggKind::kCount);
  ExecContext sampled;
  sampled.options().mode = ExecutionMode::kSampled;
  sampled.options().sample_fraction = 0.2;
  auto approx = exec.Execute(q, sampled);
  auto exact = exec.Execute(q);
  ASSERT_TRUE(approx.ok());
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(approx.ValueOrDie().scalar->value,
              exact.ValueOrDie().scalar->value,
              exact.ValueOrDie().scalar->value * 0.15);
}

TEST_F(EngineTest, SampledRejectsNonPositiveOrNonFiniteFraction) {
  Executor exec(&db_);
  const Query scalar = Query::On("events").Aggregate(AggKind::kCount);
  const Query grouped =
      Query::On("events").Aggregate(AggKind::kCount).GroupBy("kind");
  const double kBad[] = {0.0,
                         -0.25,
                         std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  for (double f : kBad) {
    SCOPED_TRACE(f);
    ExecContext sampled;
    sampled.options().mode = ExecutionMode::kSampled;
    sampled.options().sample_fraction = f;
    EXPECT_EQ(exec.Execute(scalar, sampled).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(exec.Execute(grouped, sampled).status().code(),
              StatusCode::kInvalidArgument);
  }
}

/// The bit pattern of `v`, so that EXPECT_EQ tells -0.0 from 0.0.
uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST_F(EngineTest, SampledFractionAtOrAboveOneIsExact) {
  // Double keys that differ only past the sixth decimal stay two groups.
  Table fine(Schema({{"g", DataType::kDouble}, {"v", DataType::kDouble}}));
  Random rng(3);
  for (int i = 0; i < 1000; ++i) {
    fine.mutable_column(0)->AppendDouble(i % 2 == 0 ? 0.1234561 : 0.1234564);
    fine.mutable_column(1)->AppendDouble(rng.NextDouble() / 3.0);
  }
  ASSERT_TRUE(db_.CreateTable("fine", std::move(fine)).ok());
  Executor exec(&db_);
  // A fraction of 1 or more draws every live row, so each answer is the
  // scan's, bit for bit, with width 0.
  const Predicate window({{0, CompareOp::kLt, Value(int64_t{60'000})}});
  for (AggKind kind : {AggKind::kCount, AggKind::kSum, AggKind::kAvg}) {
    const bool count = kind == AggKind::kCount;
    const Query queries[] = {
        Query::On("events").Aggregate(kind, count ? "" : "value"),
        Query::On("events").Where(window).Aggregate(kind, count ? "" : "value"),
        Query::On("events")
            .Where(window)
            .Aggregate(kind, count ? "" : "value")
            .GroupBy("kind"),
        Query::On("fine").Aggregate(kind, count ? "" : "v").GroupBy("g")};
    for (const Query& q : queries) {
      SCOPED_TRACE(std::string(AggKindName(kind)) + " " + q.CacheKey());
      auto exact = exec.Execute(q);
      ASSERT_TRUE(exact.ok());
      for (double f : {1.0, 2.0}) {
        SCOPED_TRACE(f);
        ExecContext sampled;
        sampled.options().mode = ExecutionMode::kSampled;
        sampled.options().sample_fraction = f;
        auto s = exec.Execute(q, sampled);
        ASSERT_TRUE(s.ok());
        EXPECT_EQ(s.ValueOrDie().stats().path, AccessPath::kSample);
        if (!q.group_by().has_value()) {
          EXPECT_EQ(Bits(s.ValueOrDie().scalar->value),
                    Bits(exact.ValueOrDie().scalar->value));
          EXPECT_EQ(s.ValueOrDie().scalar->ci_half_width, 0.0);
          continue;
        }
        const std::vector<GroupValue>& got = s.ValueOrDie().groups;
        const std::vector<GroupValue>& want = exact.ValueOrDie().groups;
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].key, want[i].key);
          EXPECT_EQ(Bits(got[i].value.value), Bits(want[i].value.value));
          EXPECT_EQ(got[i].value.ci_half_width, 0.0);
        }
      }
    }
  }
  auto fine_groups =
      exec.Execute(Query::On("fine").Aggregate(AggKind::kCount).GroupBy("g"));
  ASSERT_TRUE(fine_groups.ok());
  ASSERT_EQ(fine_groups.ValueOrDie().groups.size(), 2u);
  EXPECT_EQ(fine_groups.ValueOrDie().groups[0].key, "0.1234561");
  EXPECT_EQ(fine_groups.ValueOrDie().groups[1].key, "0.1234564");
}

TEST_F(EngineTest, SampledDenormalFractionAnswersFromEmptySample) {
  Executor exec(&db_);
  ExecContext sampled;
  sampled.options().mode = ExecutionMode::kSampled;
  sampled.options().sample_fraction =
      std::numeric_limits<double>::denorm_min();
  auto r =
      exec.Execute(Query::On("events").Aggregate(AggKind::kCount), sampled);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().approximate);
  EXPECT_EQ(r.ValueOrDie().scalar->sample_size, 0u);
  // No evidence, so the interval spans every possible count.
  EXPECT_GE(r.ValueOrDie().scalar->ci_half_width, 20000.0);
}

TEST_F(EngineTest, OnlineAggregateStopsAtBudget) {
  Executor exec(&db_);
  Query q = Query::On("events").Aggregate(AggKind::kAvg, "value");
  ExecContext online;
  online.options().mode = ExecutionMode::kOnline;
  online.options().error_budget = 1.0;
  auto r = exec.Execute(q, online);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r.ValueOrDie().scalar->ci_half_width, 1.0);
  EXPECT_LT(r.ValueOrDie().stats().rows_scanned, 20000u);
  EXPECT_TRUE(r.ValueOrDie().approximate);

  ExecContext exhaustive;
  exhaustive.options().mode = ExecutionMode::kOnline;
  exhaustive.options().error_budget = 0.0;  // run to completion
  auto full = exec.Execute(q, exhaustive);
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full.ValueOrDie().approximate);
  EXPECT_NEAR(full.ValueOrDie().scalar->ci_half_width, 0.0, 1e-9);
}

TEST_F(EngineTest, GroupByAggregates) {
  Executor exec(&db_);
  Query q =
      Query::On("events").Aggregate(AggKind::kCount).GroupBy("kind");
  auto r = exec.Execute(q);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.ValueOrDie().groups.size(), 3u);
  double total = 0;
  for (const GroupValue& g : r.ValueOrDie().groups) total += g.value.value;
  EXPECT_DOUBLE_EQ(total, 20000.0);
}

TEST_F(EngineTest, SampledGroupByScalesCounts) {
  Executor exec(&db_);
  Query q =
      Query::On("events").Aggregate(AggKind::kCount).GroupBy("kind");
  ExecContext sampled;
  sampled.options().mode = ExecutionMode::kSampled;
  sampled.options().sample_fraction = 0.25;
  auto approx = exec.Execute(q, sampled);
  ASSERT_TRUE(approx.ok());
  double total = 0;
  for (const GroupValue& g : approx.ValueOrDie().groups) {
    total += g.value.value;
  }
  EXPECT_NEAR(total, 20000.0, 2500.0);
}

// ------------------------------------------------- sampled and online intervals

/// `rows` rows: `k` uniform in [0, rows), so a 100-key window matches about
/// 100 rows, and `v` = 1 + k / rows, so every window sums to about 100.
class SparseWindowTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRows = 200'000;
  void SetUp() override {
    Table t(Schema({{"k", DataType::kInt64}, {"v", DataType::kDouble}}));
    Random rng(17);
    t.Reserve(kRows);
    for (int64_t i = 0; i < kRows; ++i) {
      const int64_t k = rng.UniformInt(0, kRows - 1);
      t.mutable_column(0)->AppendInt64(k);
      t.mutable_column(1)->AppendDouble(1.0 + static_cast<double>(k) / kRows);
    }
    ASSERT_TRUE(db_.CreateTable("t", std::move(t)).ok());
  }
  /// `kind` over the 100-key window starting at `lo`.
  static Query Window(int64_t lo, AggKind kind) {
    return Query::On("t")
        .Where(Predicate({{0, CompareOp::kGe, Value(lo)},
                          {0, CompareOp::kLt, Value(lo + 100)}}))
        .Aggregate(kind, "v");
  }
  Database db_;
};

// A 1% sample of a window that matches about 100 rows often holds none of
// them. Its SUM is 0, but the sample has no evidence that the window is
// empty: the interval is unbounded, and the relative error reads 1.
TEST_F(SparseWindowTest, SampledSumWithoutMatchesHasNoBound) {
  Executor exec(&db_);
  ExecContext sampled;
  sampled.SetMode(ExecutionMode::kSampled);
  sampled.options().sample_fraction = 0.01;
  int empty = 0;
  for (int64_t w = 0; w < 20; ++w) {
    const Query q = Window(w * 9'000, AggKind::kSum);
    SCOPED_TRACE(q.CacheKey());
    const Estimate e = exec.Execute(q, sampled).ValueOrDie().scalar.value();
    EXPECT_GT(e.sample_size, 0u);
    EXPECT_FALSE(std::isnan(e.ci_half_width));
    if (e.value == 0.0) {
      ++empty;
      EXPECT_TRUE(std::isinf(e.ci_half_width));
      EXPECT_EQ(RelativeError(e), 1.0);
    } else {
      EXPECT_TRUE(std::isfinite(e.ci_half_width));
      EXPECT_GT(e.ci_half_width, 0.0);
    }
  }
  EXPECT_GT(empty, 0);
}

// An AVG from fewer than two matching rows has no spread to measure.
TEST_F(SparseWindowTest, SampledAvgFromFewerThanTwoMatchesHasNoBound) {
  Executor exec(&db_);
  ExecContext sampled;
  sampled.SetMode(ExecutionMode::kSampled);
  sampled.options().sample_fraction = 0.01;
  int unbounded = 0;
  for (int64_t w = 0; w < 20; ++w) {
    const Query q = Window(w * 9'000, AggKind::kAvg);
    SCOPED_TRACE(q.CacheKey());
    const Estimate e = exec.Execute(q, sampled).ValueOrDie().scalar.value();
    // An AVG's sample size is its matching rows.
    if (e.sample_size < 2) {
      ++unbounded;
      EXPECT_TRUE(std::isinf(e.ci_half_width));
    } else {
      EXPECT_TRUE(std::isfinite(e.ci_half_width));
    }
  }
  EXPECT_GT(unbounded, 0);
}

// The online loop's first batch (1% of the rows) often holds no matching
// row. Its SUM is 0 with an unbounded interval, so the loop reads on
// instead of stopping at 0 +- 0 under an absolute error budget.
TEST_F(SparseWindowTest, OnlineSumNeverStopsOnAnEmptyBatch) {
  Executor exec(&db_);
  ExecContext online;
  online.SetMode(ExecutionMode::kOnline);
  online.options().error_budget = 5.0;
  for (int64_t w = 0; w < 20; ++w) {
    const Query q = Window(w * 9'000, AggKind::kSum);
    SCOPED_TRACE(q.CacheKey());
    const double truth = exec.Execute(q).ValueOrDie().scalar->value;
    ASSERT_GT(truth, 0.0);
    const QueryResult r = exec.Execute(q, online).ValueOrDie();
    EXPECT_GT(r.stats().rows_scanned, static_cast<uint64_t>(kRows / 100));
    EXPECT_GT(r.scalar->value, 0.0);
    EXPECT_LE(r.scalar->ci_half_width, 5.0);
  }
}

/// A seeded table of `rows` rows: `k` uniform in [0, 1000), a group key
/// `g` of four strings with shares 1/2, 1/4, 1/8 and 1/8, and a skewed
/// measure `v` = exp(N(0, 1) / 2).
Table CoverageTable(uint64_t seed) {
  Table t(Schema({{"k", DataType::kInt64},
                  {"g", DataType::kString},
                  {"v", DataType::kDouble}}));
  Random rng(seed);
  const char* const kGroups[] = {"a", "a", "a", "a", "b", "b", "c", "d"};
  constexpr int kRows = 8'000;
  t.Reserve(kRows);
  for (int i = 0; i < kRows; ++i) {
    t.mutable_column(0)->AppendInt64(rng.UniformInt(0, 999));
    t.mutable_column(1)->AppendString(kGroups[rng.Uniform(8)]);
    t.mutable_column(2)->AppendDouble(std::exp(rng.NextGaussian() / 2));
  }
  return t;
}

// Property: over 200 data seeds, the 95% intervals of sampled grouped
// COUNT, SUM and AVG, and of scalar SUM and AVG, hold the exact answer in at
// least 90% of cases.
TEST(SampledCoverageTest, IntervalsHoldTheExactAnswer) {
  constexpr int kSeeds = 200;
  struct Tally {
    int covered = 0;
    int total = 0;
  };
  // Scalar SUM, scalar AVG, grouped COUNT, grouped SUM, grouped AVG.
  Tally tallies[5];
  const Predicate where({{0, CompareOp::kLt, Value(int64_t{600})}});
  for (int seed = 0; seed < kSeeds; ++seed) {
    Database db;
    ASSERT_TRUE(db.CreateTable("t", CoverageTable(1000 + seed)).ok());
    Executor exec(&db);
    ExecContext sampled;
    sampled.SetMode(ExecutionMode::kSampled);
    sampled.options().sample_fraction = 0.1;
    int slot = 0;
    for (bool grouped : {false, true}) {
      for (AggKind kind : {AggKind::kCount, AggKind::kSum, AggKind::kAvg}) {
        if (!grouped && kind == AggKind::kCount) continue;
        Query q = Query::On("t").Where(where).Aggregate(
            kind, kind == AggKind::kCount ? "" : "v");
        if (grouped) q.GroupBy("g");
        Tally& tally = tallies[slot++];
        const QueryResult exact = exec.Execute(q).ValueOrDie();
        const QueryResult approx = exec.Execute(q, sampled).ValueOrDie();
        ASSERT_TRUE(approx.approximate);
        if (!grouped) {
          ++tally.total;
          tally.covered += std::abs(approx.scalar->value -
                                    exact.scalar->value) <=
                           approx.scalar->ci_half_width;
          continue;
        }
        // A group the sample missed has no interval to check.
        for (const GroupValue& want : exact.groups) {
          for (const GroupValue& got : approx.groups) {
            if (got.key != want.key) continue;
            ++tally.total;
            tally.covered += std::abs(got.value.value - want.value.value) <=
                             got.value.ci_half_width;
          }
        }
      }
    }
  }
  const char* const kNames[] = {"SUM", "AVG", "grouped COUNT", "grouped SUM",
                                "grouped AVG"};
  for (int i = 0; i < 5; ++i) {
    SCOPED_TRACE(kNames[i]);
    ASSERT_GE(tallies[i].total, kSeeds);
    EXPECT_GE(tallies[i].covered, 0.9 * tallies[i].total);
  }
}

// ---------------------------------------------------------------- raw-backed

class RawBackedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest -j runs each case as its own process, and a
    // shared path lets one case's TearDown unlink the file mid-read.
    path_ = ::testing::TempDir() + "/exploredb_engine_raw_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".csv";
    Table t = EventsTable(5000, 99);
    ASSERT_TRUE(WriteCsv(t, path_).ok());
    ASSERT_TRUE(db_.RegisterCsv("raw_events", path_, EventsSchema()).ok());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  Database db_;
  std::string path_;
};

TEST_F(RawBackedTest, QueriesRunDirectlyOnRawFile) {
  Executor exec(&db_);
  Query q = Query::On("raw_events")
                .Where(Predicate({{0, CompareOp::kLt, Value(int64_t{50000})}}))
                .Aggregate(AggKind::kCount);
  auto r = exec.Execute(q);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.ValueOrDie().scalar->value, 0.0);
}

TEST_F(RawBackedTest, OnlyTouchedColumnsLoad) {
  Executor exec(&db_);
  // Touches only ts (predicate) — value and kind must stay unparsed.
  Query q = Query::On("raw_events")
                .Where(Predicate({{0, CompareOp::kLt, Value(int64_t{1000})}}))
                .Select({"ts"});
  ASSERT_TRUE(exec.Execute(q).ok());
  auto entry = db_.GetTable("raw_events");
  ASSERT_TRUE(entry.ok());
  EXPECT_TRUE(entry.ValueOrDie()->raw_backed());
}

TEST_F(RawBackedTest, CrackingWorksOverRawColumns) {
  Executor exec(&db_);
  ExecContext crack;
  crack.options().mode = ExecutionMode::kCracking;
  Query q = Query::On("raw_events")
                .Where(Predicate({{0, CompareOp::kGe, Value(int64_t{10000})},
                                  {0, CompareOp::kLt, Value(int64_t{30000})}}));
  auto cracked = exec.Execute(q, crack);
  auto scanned = exec.Execute(q);
  ASSERT_TRUE(cracked.ok());
  ASSERT_TRUE(scanned.ok());
  auto c = cracked.ValueOrDie().positions;
  auto s = scanned.ValueOrDie().positions;
  std::sort(c.begin(), c.end());
  std::sort(s.begin(), s.end());
  EXPECT_EQ(c, s);
}

// ---------------------------------------------------------------- session

TEST_F(EngineTest, SessionCachesRepeatedQueries) {
  SessionOptions opts;
  opts.speculate = false;
  Session session(&db_, opts);
  Query q = Query::On("events").Where(
      Predicate({{0, CompareOp::kGe, Value(int64_t{500})},
                 {0, CompareOp::kLt, Value(int64_t{700})}}));
  auto first = session.Execute(q);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.ValueOrDie().from_cache);
  auto second = session.Execute(q);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.ValueOrDie().from_cache);
  EXPECT_EQ(second.ValueOrDie().positions, first.ValueOrDie().positions);
  ASSERT_TRUE(second.ValueOrDie().rows.has_value());
  EXPECT_EQ(second.ValueOrDie().rows->num_rows(),
            first.ValueOrDie().rows->num_rows());
  EXPECT_EQ(session.stats().cache_hits, 1u);
}

TEST_F(EngineTest, SessionSpeculationPrefetchesNextWindow) {
  SessionOptions opts;
  opts.idle_budget = 4;
  Session session(&db_, opts);
  auto window = [](int64_t lo, int64_t hi) {
    return Query::On("events").Where(
        Predicate({{0, CompareOp::kGe, Value(lo)},
                   {0, CompareOp::kLt, Value(hi)}}));
  };
  // Pan right in fixed steps: after the first step the speculator should
  // have the next window cached.
  ASSERT_TRUE(session.Execute(window(0, 1000)).ok());
  ASSERT_TRUE(session.Execute(window(1000, 2000)).ok());
  auto third = session.Execute(window(2000, 3000));
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third.ValueOrDie().from_cache);
  EXPECT_GT(session.stats().speculative_queries, 0u);
}

TEST_F(EngineTest, SessionPredictsTrajectory) {
  SessionOptions opts;
  opts.speculate = false;
  Session session(&db_, opts);
  auto window = [](int64_t lo) {
    return Query::On("events").Where(
        Predicate({{0, CompareOp::kGe, Value(lo)},
                   {0, CompareOp::kLt, Value(lo + 1000)}}));
  };
  // Repeat a loop a->b->a->b so the model learns b follows a.
  Query a = window(0);
  Query b = window(5000);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(session.Execute(a).ok());
    ASSERT_TRUE(session.Execute(b).ok());
  }
  ASSERT_TRUE(session.Execute(a).ok());
  auto next = session.PredictNextQueries(1);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0], b.CacheKey());
}

TEST_F(EngineTest, SessionRecommendViewsNeedsHistory) {
  Session session(&db_);
  EXPECT_EQ(session.RecommendViews({{2, 1, AggKind::kAvg}}, 1).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(session
                  .Execute(Query::On("events").Where(Predicate(
                      {{0, CompareOp::kLt, Value(int64_t{50000})}})))
                  .ok());
  auto views = session.RecommendViews({{2, 1, AggKind::kAvg}}, 1);
  ASSERT_TRUE(views.ok());
  EXPECT_EQ(views.ValueOrDie().top.size(), 1u);
}

TEST_F(EngineTest, ModeNamesStable) {
  EXPECT_STREQ(ExecutionModeName(ExecutionMode::kScan), "scan");
  EXPECT_STREQ(ExecutionModeName(ExecutionMode::kCracking), "cracking");
  EXPECT_STREQ(ExecutionModeName(ExecutionMode::kOnline), "online");
}

TEST_F(EngineTest, QueryCacheKeyDiscriminates) {
  Query a = Query::On("events").Where(Predicate::Range(0, 1, 2));
  Query b = Query::On("events").Where(Predicate::Range(0, 1, 3));
  Query c = Query::On("events")
                .Where(Predicate::Range(0, 1, 2))
                .Aggregate(AggKind::kCount);
  EXPECT_NE(a.CacheKey(), b.CacheKey());
  EXPECT_NE(a.CacheKey(), c.CacheKey());

  // Constants that differ only past the sixth decimal, a string holding the
  // key's separators, and constants of different types.
  auto key = [](std::vector<Condition> conjuncts) {
    return Query::On("events")
        .Where(Predicate(std::move(conjuncts)))
        .CacheKey();
  };
  EXPECT_NE(key({{1, CompareOp::kLt, Value(0.1234561)}}),
            key({{1, CompareOp::kLt, Value(0.1234564)}}));
  EXPECT_NE(key({{2, CompareOp::kEq, Value("a;0<5")}}),
            key({{2, CompareOp::kEq, Value("a")},
                 {0, CompareOp::kLt, Value(int64_t{5})}}));
  EXPECT_NE(key({{2, CompareOp::kEq, Value(int64_t{1})}}),
            key({{2, CompareOp::kEq, Value("1")}}));
}

}  // namespace
}  // namespace exploredb
