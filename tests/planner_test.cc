// The budgeted-planner contract, pinned end to end:
//   (a) a fresh cache hit is always the chosen plan,
//   (b) a query whose exact plan fits its budget runs exact,
//   (c) an over-budget exact query degrades to an approximate plan whose
//       achieved error stays within 2x the promise on seeded data,
//   (d) progressive callbacks deliver monotonically shrinking CIs and the
//       final delivery equals the returned result bit-identically — at
//       1, 2 and 8 threads.
// Plus the planner's no-fail guarantee: a hopeless budget still gets an
// approximate answer, never an error.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "engine/query.h"
#include "engine/session.h"
#include "journal_records.h"
#include "obs/slo.h"

namespace exploredb {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

/// 256K rows: "ts" clustered (zone-map prunable), "user_id" scattered,
/// "latency_ms" a uniform double measure (cv ~= 0.58, well under the cost
/// model's seed cv of 1.0, so promises are conservative on this data).
Database* TestDb() {
  static Database* db = [] {
    Schema schema({{"ts", DataType::kInt64},
                   {"user_id", DataType::kInt64},
                   {"latency_ms", DataType::kDouble}});
    Table t(schema);
    Random rng(7);
    constexpr int64_t kRows = 256 * 1024;
    t.Reserve(kRows);
    for (int64_t i = 0; i < kRows; ++i) {
      t.mutable_column(0)->AppendInt64(i);
      t.mutable_column(1)->AppendInt64(rng.UniformInt(0, 49'999));
      t.mutable_column(2)->AppendDouble(rng.NextDouble() * 100);
    }
    auto* db = new Database();
    if (!db->CreateTable("events", std::move(t)).ok()) std::abort();
    return db;
  }();
  return db;
}

Query HalfAvg() {
  // ~50% selectivity on the scattered column; avg of the double measure.
  return Query::On("events")
      .Where(Predicate({{1, CompareOp::kLt, Value(int64_t{25'000})}}))
      .Aggregate(AggKind::kAvg, "latency_ms");
}

Query HalfCount() {
  return Query::On("events")
      .Where(Predicate({{1, CompareOp::kLt, Value(int64_t{25'000})}}))
      .Aggregate(AggKind::kCount);
}

Query Window(int64_t lo, int64_t hi) {
  return Query::On("events").Where(
      Predicate({{1, CompareOp::kGe, Value(lo)},
                 {1, CompareOp::kLt, Value(hi)}}));
}

// ---- (a) cache hit always wins when fresh ---------------------------------

TEST(PlannerTest, FreshCacheHitAlwaysChosen) {
  ScopedMemoryJournal journal;
  Session session(TestDb(), {.speculate = false});
  ExecContext budgeted;
  budgeted.SetBudget({.latency = seconds(1)});

  auto first = session.Execute(Window(1'000, 2'000), budgeted);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.ValueOrDie().from_cache);

  auto second = session.Execute(Window(1'000, 2'000), budgeted);
  ASSERT_TRUE(second.ok());
  const QueryResult& hit = second.ValueOrDie();
  EXPECT_TRUE(hit.from_cache);
  EXPECT_EQ(hit.stats().planner_choice, PlannerChoice::kCache);
  EXPECT_EQ(hit.stats().plans_considered, 1u);
  EXPECT_EQ(hit.stats().path, AccessPath::kCache);
  EXPECT_EQ(hit.positions, first.ValueOrDie().positions);

  // The journal records both what was asked for and what ran.
  std::vector<JournalRecord> log = SessionJournal(session.id());
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1].requested_mode, ExecutionMode::kBudgeted);
  EXPECT_TRUE(log[1].from_cache);
}

// ---- (b) fits-in-budget runs exact ----------------------------------------

TEST(PlannerTest, FitsInBudgetRunsExact) {
  Database* db = TestDb();
  Executor budgeted_exec(db);
  ExecContext budgeted;
  budgeted.SetBudget({.latency = seconds(5)});

  auto r = budgeted_exec.Execute(HalfCount(), budgeted);
  ASSERT_TRUE(r.ok());
  const QueryResult& result = r.ValueOrDie();
  EXPECT_EQ(result.stats().planner_choice, PlannerChoice::kExact);
  // Scalar aggregate: exact + sample + online were all costed.
  EXPECT_EQ(result.stats().plans_considered, 3u);
  EXPECT_FALSE(result.approximate);
  ASSERT_TRUE(result.scalar.has_value());
  EXPECT_EQ(result.scalar->ci_half_width, 0.0);
  EXPECT_EQ(result.stats().achieved_error, 0.0);

  // Bit-identical to an unbudgeted exact run (COUNT is order-insensitive).
  Executor plain_exec(db);
  auto exact = plain_exec.Execute(HalfCount());
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(result.scalar->value, exact.ValueOrDie().scalar->value);
}

TEST(PlannerTest, SelectionsRunExactUnderBudget) {
  Database* db = TestDb();
  Executor executor(db);
  ExecContext budgeted;
  budgeted.SetBudget({.latency = seconds(5)});

  auto r = executor.Execute(Window(3'000, 4'000), budgeted);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().stats().planner_choice, PlannerChoice::kExact);
  EXPECT_FALSE(r.ValueOrDie().approximate);

  Executor plain(db);
  auto exact = plain.Execute(Window(3'000, 4'000));
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(r.ValueOrDie().positions, exact.ValueOrDie().positions);
}

// ---- (c) over-budget exact degrades, promise kept -------------------------

TEST(PlannerTest, OverBudgetDegradesToApproximateWithinPromise) {
  Database* db = TestDb();
  Executor executor(db);
  // Pin the calibrated exact rate absurdly high: every exact plan is now
  // predicted to blow any budget, deterministically.
  executor.planner().cost_model().SetExactNsPerRowForTest(1e9);

  ExecContext budgeted;
  budgeted.SetBudget(
      {.latency = milliseconds(50), .target_error = 0.01, .confidence = 0.95});
  auto r = executor.Execute(HalfAvg(), budgeted);
  ASSERT_TRUE(r.ok());
  const QueryResult& result = r.ValueOrDie();
  EXPECT_NE(result.stats().planner_choice, PlannerChoice::kExact);
  EXPECT_TRUE(result.approximate);
  ASSERT_TRUE(result.scalar.has_value());
  EXPECT_GT(result.stats().promised_error, 0.0);
  EXPECT_LE(result.stats().achieved_error,
            2.0 * result.stats().promised_error);

  // The estimate lands near the truth (exact avg of uniform [0,100) ~ 50).
  Executor plain(db);
  auto exact = plain.Execute(HalfAvg());
  ASSERT_TRUE(exact.ok());
  double truth = exact.ValueOrDie().scalar->value;
  EXPECT_NEAR(result.scalar->value, truth, 0.1 * truth);
}

TEST(PlannerTest, HopelessBudgetStillAnswersApproximately) {
  Executor executor(TestDb());
  executor.planner().cost_model().SetExactNsPerRowForTest(1e9);
  ExecContext budgeted;
  // 1us: nothing fits — the planner must degrade to the minimum sample, not
  // fail with kDeadlineExceeded and not hang.
  budgeted.SetBudget({.latency = std::chrono::microseconds(1)});
  auto r = executor.Execute(HalfAvg(), budgeted);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().approximate);
  ASSERT_TRUE(r.ValueOrDie().scalar.has_value());
  EXPECT_GT(r.ValueOrDie().scalar->sample_size, 0u);
  EXPECT_EQ(r.ValueOrDie().stats().planner_choice, PlannerChoice::kSample);
}

TEST(PlannerTest, SampledGroupedSumReportsEveryGroupsInterval) {
  // 8 groups of a uniform measure. With the exact rate pinned high, the
  // budgeted grouped SUM runs on the sample rung: every group's sum is an
  // estimate with a positive width, and the answer's achieved error is its
  // worst group's relative error, not 0.
  Database db;
  {
    Table t(Schema({{"g", DataType::kString}, {"v", DataType::kDouble}}));
    const char* const kGroups[] = {"a", "b", "c", "d", "e", "f", "g", "h"};
    Random rng(11);
    constexpr int kRows = 200'000;
    t.Reserve(kRows);
    for (int i = 0; i < kRows; ++i) {
      t.mutable_column(0)->AppendString(kGroups[rng.Uniform(8)]);
      t.mutable_column(1)->AppendDouble(rng.NextDouble() * 100);
    }
    ASSERT_TRUE(db.CreateTable("t", std::move(t)).ok());
  }
  Executor executor(&db);
  executor.planner().cost_model().SetExactNsPerRowForTest(1e9);
  ExecContext budgeted;
  budgeted.SetBudget({.latency = milliseconds(50)});
  auto r = executor.Execute(
      Query::On("t").Aggregate(AggKind::kSum, "v").GroupBy("g"), budgeted);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const QueryResult& result = r.ValueOrDie();
  EXPECT_EQ(result.stats().planner_choice, PlannerChoice::kSample);
  EXPECT_EQ(result.stats().path, AccessPath::kSample);
  EXPECT_TRUE(result.approximate);
  ASSERT_EQ(result.groups.size(), 8u);
  double worst = 0.0;
  for (const GroupValue& g : result.groups) {
    SCOPED_TRACE(g.key);
    EXPECT_GT(g.value.ci_half_width, 0.0);
    EXPECT_TRUE(std::isfinite(g.value.ci_half_width));
    worst = std::max(worst, RelativeError(g.value));
  }
  EXPECT_GT(result.stats().achieved_error, 0.0);
  EXPECT_EQ(result.stats().achieved_error, worst);
}

TEST(PlannerTest, RescuedPlanCountsTheAbandonedAttempt) {
  // A grouped SUM into 1M hash groups. The cost model prices the exact plan
  // as a 1 ns/row scan (1 ms), so it fits a 3 ms budget on paper, but
  // hashing every row into its own group takes far longer: the exact
  // attempt blows its deadline and the planner answers from the minimum
  // sample. The answer's total must cover the abandoned attempt, so the SLO
  // monitor sees the breach the user saw.
  Database db;
  {
    Table t(Schema({{"key", DataType::kInt64}, {"value", DataType::kDouble}}));
    constexpr int64_t kRows = 1'000'000;
    t.Reserve(kRows);
    for (int64_t i = 0; i < kRows; ++i) {
      t.mutable_column(0)->AppendInt64(i * 7'919);
      t.mutable_column(1)->AppendDouble(static_cast<double>(i % 100));
    }
    ASSERT_TRUE(db.CreateTable("wide", std::move(t)).ok());
  }
  const Query grouped_sum =
      Query::On("wide").Aggregate(AggKind::kSum, "value").GroupBy("key");
  ScopedMemoryJournal journal;
  SloMonitor::Global().ResetForTest();
  SessionOptions options;
  options.speculate = false;
  Session session(&db, options);
  ExecContext budgeted;
  budgeted.SetBudget({.latency = milliseconds(3)});

  const auto start = std::chrono::steady_clock::now();
  auto r = session.Execute(grouped_sum, budgeted);
  const int64_t wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const ExecStats& stats = r.ValueOrDie().stats();
  EXPECT_EQ(stats.planner_choice, PlannerChoice::kSample);
  EXPECT_TRUE(r.ValueOrDie().approximate);
  EXPECT_GT(stats.abandoned_nanos, 0);
  EXPECT_GE(stats.total_nanos, stats.abandoned_nanos);
  // Everything but the session's own bookkeeping is in the total.
  constexpr int64_t kSlackNs = 1'000'000;
  EXPECT_LE(wall_ns, stats.total_nanos + kSlackNs)
      << "wall " << wall_ns << " ns, " << stats.Summary();
  EXPECT_NE(stats.Summary().find("abandoned="), std::string::npos);

  const SloClassSnapshot slo = SloMonitor::Global().Snapshot(30).classes
      [static_cast<size_t>(QueryClass::kBudgeted)];
  EXPECT_EQ(slo.total, 1u);
  EXPECT_EQ(slo.within, 0u);
  SloMonitor::Global().ResetForTest();

  // The journal keeps the abandoned attempt as its own field.
  std::vector<JournalRecord> log = SessionJournal(session.id());
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].stats.abandoned_nanos, stats.abandoned_nanos);
  EXPECT_EQ(log[0].stats.total_nanos, stats.total_nanos);
}

// ---- (d) progressive deliveries: monotone CIs, bit-identical final --------

struct Delivered {
  std::vector<ProgressiveUpdate> updates;
};

TEST(PlannerTest, ProgressiveDeliveriesMonotoneAndFinalBitIdentical) {
  Database* db = TestDb();
  double reference_value = 0.0;
  bool have_reference = false;

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    Executor executor(db);  // fresh cost model per thread count
    executor.planner().cost_model().SetExactNsPerRowForTest(1e9);

    ExecContext ctx;
    ctx.SetThreadPool(&pool);
    // target_error = 0: refine until the input is exhausted, so every thread
    // count consumes the same seeded permutation end to end.
    ctx.SetBudget({.latency = seconds(30), .target_error = 0.0});

    Delivered seen;
    auto r = executor.ExecuteProgressive(
        HalfAvg(), ctx,
        [&seen](const ProgressiveUpdate& u) { seen.updates.push_back(u); });
    ASSERT_TRUE(r.ok());
    const QueryResult& result = r.ValueOrDie();
    EXPECT_EQ(result.stats().planner_choice, PlannerChoice::kOnline);
    ASSERT_TRUE(result.scalar.has_value());

    ASSERT_GE(seen.updates.size(), 2u);
    // Non-final deliveries: strictly shrinking CI, increasing sequence.
    for (size_t i = 0; i + 1 < seen.updates.size(); ++i) {
      const ProgressiveUpdate& u = seen.updates[i];
      EXPECT_FALSE(u.final);
      EXPECT_EQ(u.sequence, i);
      if (i > 0) {
        EXPECT_LT(u.estimate.ci_half_width,
                  seen.updates[i - 1].estimate.ci_half_width);
      }
    }
    // Final delivery repeats the returned answer bit-identically.
    const ProgressiveUpdate& final_update = seen.updates.back();
    EXPECT_TRUE(final_update.final);
    EXPECT_EQ(final_update.estimate.value, result.scalar->value);
    EXPECT_EQ(final_update.estimate.ci_half_width,
              result.scalar->ci_half_width);
    EXPECT_EQ(final_update.estimate.sample_size, result.scalar->sample_size);
    EXPECT_EQ(final_update.stats.achieved_error,
              result.stats().achieved_error);

    // The refinement order is a seeded permutation consumed serially, so the
    // answer is bit-identical across thread counts.
    if (!have_reference) {
      reference_value = result.scalar->value;
      have_reference = true;
    } else {
      EXPECT_EQ(result.scalar->value, reference_value);
    }
  }
}

// A progressive online query goes through the executor's one metrics
// recorder: it counts in exploredb_queries_total and in exactly one of the
// SIMD-path counters, like any executor query.
TEST(PlannerTest, ProgressiveOnlineQueryCountsItsSimdPath) {
  Executor executor(TestDb());
  executor.planner().cost_model().SetExactNsPerRowForTest(1e9);
  ExecContext ctx;
  ctx.SetBudget({.latency = seconds(30), .target_error = 0.0});
  Counter* queries = Metrics().GetCounter("exploredb_queries_total");
  auto simd_queries = [] {
    uint64_t total = 0;
    for (const char* path : {"scalar", "sse42", "avx2"}) {
      total += Metrics()
                   .GetCounter(std::string("exploredb_simd_path_") + path +
                               "_queries_total")
                   ->Value();
    }
    return total;
  };
  const uint64_t queries_before = queries->Value();
  const uint64_t simd_before = simd_queries();

  auto r = executor.ExecuteProgressive(HalfAvg(), ctx,
                                       [](const ProgressiveUpdate&) {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().stats().planner_choice, PlannerChoice::kOnline);
  const uint64_t counted = queries->Value() - queries_before;
  EXPECT_EQ(counted, 1u);
  EXPECT_EQ(simd_queries() - simd_before, counted);
}

// There is one online loop: a direct kOnline query and the planner's online
// rung consume the same seeded permutation with the same estimator, so run
// to exhaustion they return the same exact answer, bit for bit, at every
// thread count.
TEST(PlannerTest, DirectAndProgressiveOnlineAgreeAtExhaustion) {
  for (const Query& query : {HalfAvg(), HalfCount()}) {
    SCOPED_TRACE(AggKindName(query.aggregate()->kind));
    std::optional<Estimate> reference;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      SCOPED_TRACE(threads);
      ThreadPool pool(threads);
      Executor executor(TestDb());
      executor.planner().cost_model().SetExactNsPerRowForTest(1e9);

      ExecContext direct;
      direct.SetThreadPool(&pool).SetMode(ExecutionMode::kOnline);
      auto d = executor.Execute(query, direct);  // error_budget 0: no stop
      ExecContext budgeted;
      budgeted.SetThreadPool(&pool);
      budgeted.SetBudget({.latency = seconds(30), .target_error = 0.0});
      auto p = executor.ExecuteProgressive(query, budgeted,
                                           [](const ProgressiveUpdate&) {});
      ASSERT_TRUE(d.ok());
      ASSERT_TRUE(p.ok());
      EXPECT_EQ(p.ValueOrDie().stats().planner_choice, PlannerChoice::kOnline);
      EXPECT_FALSE(d.ValueOrDie().approximate);
      EXPECT_FALSE(p.ValueOrDie().approximate);
      const Estimate& got = *d.ValueOrDie().scalar;
      const Estimate& progressive = *p.ValueOrDie().scalar;
      EXPECT_EQ(progressive.value, got.value);
      EXPECT_EQ(progressive.ci_half_width, got.ci_half_width);
      EXPECT_EQ(progressive.sample_size, got.sample_size);
      EXPECT_EQ(got.ci_half_width, 0.0);
      if (!reference.has_value()) reference = got;
      EXPECT_EQ(got.value, reference->value);
    }
  }
}

// An online COUNT over 64,000 rows of which 8 do not match: while every row
// seen so far matched, the interval must still have a width, so neither the
// direct kOnline query nor the planner's online rung stops early with
// 64,000 ± 0 against a true 63,992.
TEST(PlannerTest, OnlineCountIntervalCoversTheTruthBeforeTheScanEnds) {
  Table table(Schema({{"k", DataType::kInt64}}));
  for (int64_t i = 0; i < 64'000; ++i) {
    table.mutable_column(0)->AppendInt64(i % 8'000 == 0 ? -1 : 1);
  }
  Database db;
  ASSERT_TRUE(db.CreateTable("t", std::move(table)).ok());
  const Query count =
      Query::On("t")
          .Where(Predicate({{0, CompareOp::kGe, Value(int64_t{0})}}))
          .Aggregate(AggKind::kCount);
  constexpr double kTruth = 63'992;
  auto expect_covers = [&](const QueryResult& result) {
    ASSERT_TRUE(result.scalar.has_value());
    const Estimate& e = *result.scalar;
    EXPECT_LE(std::abs(e.value - kTruth), e.ci_half_width)
        << e.value << " +- " << e.ci_half_width;
    if (result.approximate) {
      EXPECT_GT(e.ci_half_width, 0.0);
    }
  };

  Executor executor(&db);
  ExecContext direct;
  direct.SetMode(ExecutionMode::kOnline);
  direct.options().error_budget = 1.0;
  auto d = executor.Execute(count, direct);
  ASSERT_TRUE(d.ok());
  expect_covers(d.ValueOrDie());

  executor.planner().cost_model().SetExactNsPerRowForTest(1e9);
  ExecContext budgeted;
  budgeted.SetBudget({.latency = seconds(30), .target_error = 1.0 / kTruth});
  auto p = executor.ExecuteProgressive(count, budgeted,
                                       [](const ProgressiveUpdate&) {});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.ValueOrDie().stats().planner_choice, PlannerChoice::kOnline);
  expect_covers(p.ValueOrDie());
  if (p.ValueOrDie().approximate) {
    EXPECT_GT(p.ValueOrDie().stats().achieved_error, 0.0);
  }
}

// ---- Session-level progressive contract -----------------------------------

TEST(PlannerTest, SessionProgressiveCacheHitDeliversOnce) {
  Session session(TestDb(), {.speculate = false});
  LatencyBudget budget{.latency = seconds(1)};
  size_t deliveries = 0;

  auto cb = [&deliveries](const ProgressiveUpdate& u) {
    ++deliveries;
    EXPECT_TRUE(u.final);
  };
  auto first = session.ExecuteProgressive(Window(5'000, 6'000), budget, cb);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(deliveries, 1u);  // exact plan: one single-shot final delivery

  auto second = session.ExecuteProgressive(Window(5'000, 6'000), budget, cb);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.ValueOrDie().from_cache);
  EXPECT_EQ(second.ValueOrDie().stats().planner_choice, PlannerChoice::kCache);
  EXPECT_EQ(deliveries, 2u);  // cache hit: exactly one final delivery too
}

TEST(PlannerTest, SessionProgressiveBuilderOverload) {
  Session session(TestDb(), {.speculate = false});
  bool got_final = false;
  auto r = session.ExecuteProgressive(
      Query::From("events")
          .Where("user_id", CompareOp::kLt, Value(int64_t{25'000}))
          .Aggregate(AggKind::kAvg, "latency_ms"),
      {.latency = seconds(5)},
      [&got_final](const ProgressiveUpdate& u) { got_final |= u.final; });
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(got_final);
  ASSERT_TRUE(r.ValueOrDie().scalar.has_value());
}

// ---- Calibration ----------------------------------------------------------

TEST(PlannerTest, CostModelCalibratesFromExecutions) {
  Executor executor(TestDb());
  CostModel& model = executor.planner().cost_model();
  const double seeded = model.exact_ns_per_row();

  const double seeded_compressed = model.exact_compressed_ns_per_row();

  ExecContext budgeted;
  budgeted.SetBudget({.latency = seconds(5)});
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(executor.Execute(HalfCount(), budgeted).ok());
  }
  // Three observed exact runs move the EWMA off its seed. Which rate moved
  // depends on the representation that served the scan (compressed when the
  // column admits one), so expect movement on at least one of the two.
  EXPECT_TRUE(model.exact_ns_per_row() != seeded ||
              model.exact_compressed_ns_per_row() != seeded_compressed);
  EXPECT_GT(model.exact_ns_per_row(), 0.0);
  EXPECT_GT(model.exact_compressed_ns_per_row(), 0.0);
}

// The exact rung prices the plan it runs: a budgeted scan's prediction is
// its calibrated rate times exactly the rows it scans, at any morsel size.
TEST(PlannerTest, ExactScanIsPricedAtTheRowsItScans) {
  // The clustered `ts` prunes every morsel past 100,000, so the scan reads
  // fewer rows than the table holds, and how many depends on the morsel.
  const Query count =
      Query::On("events")
          .Where(Predicate({{0, CompareOp::kLt, Value(int64_t{100'000})}}))
          .Aggregate(AggKind::kCount);
  for (size_t morsel : {ExecContext::kDefaultMorselSize, size_t{1000}}) {
    SCOPED_TRACE(morsel);
    Executor executor(TestDb());
    executor.planner().cost_model().SetExactNsPerRowForTest(3.0);
    ExecContext budgeted;
    budgeted.SetMorselSize(morsel).SetBudget({.latency = seconds(5)});
    auto r = executor.Execute(count, budgeted);
    ASSERT_TRUE(r.ok());
    const ExecStats& stats = r.ValueOrDie().stats();
    EXPECT_EQ(stats.planner_choice, PlannerChoice::kExact);
    EXPECT_EQ(stats.path, AccessPath::kScan);
    EXPECT_GE(stats.rows_scanned, 100'000u);
    EXPECT_LT(stats.rows_scanned, 256u * 1024);
    EXPECT_EQ(stats.predicted_nanos,
              static_cast<int64_t>(3 * stats.rows_scanned));
    EXPECT_NE(stats.Summary().find("predicted="), std::string::npos);
  }
}

TEST(PlannerTest, CostModelSkipsInfiniteIntervals) {
  // An online AVG that has matched one row reports an infinite interval
  // around a nonzero value.
  Estimate unbounded;
  unbounded.value = 42.0;
  unbounded.ci_half_width = std::numeric_limits<double>::infinity();
  unbounded.sample_size = 1;
  Estimate finite;
  finite.value = 42.0;
  finite.ci_half_width = 2.0;
  finite.sample_size = 400;

  CostModel finite_only;
  finite_only.ObserveRelativeError(finite, 0.95);
  CostModel model;
  model.ObserveRelativeError(unbounded, 0.95);
  model.ObserveRelativeError(finite, 0.95);

  const double predicted = model.PredictRelativeError(100, 0.95);
  EXPECT_TRUE(std::isfinite(predicted)) << predicted;
  EXPECT_EQ(predicted, finite_only.PredictRelativeError(100, 0.95));
}

}  // namespace
}  // namespace exploredb
