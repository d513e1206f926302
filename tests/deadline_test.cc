// Deadline semantics, pinned across execution paths: an expired deadline
// fails exact scans and group-bys with kDeadlineExceeded (at 1, 2 and 8
// threads — the per-morsel interrupt checks must hold under parallelism),
// while online aggregation and the budgeted planner honor the AQP contract
// instead: a deadline bounds refinement, so they return a partial/approximate
// answer rather than an error or a hang.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>

#include "common/random.h"
#include "common/thread_pool.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "engine/planner.h"
#include "engine/query.h"

namespace exploredb {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

/// 512K rows, enough morsels (8 at the default 64K morsel) that parallel
/// paths genuinely fan out.
Database* TestDb() {
  static Database* db = [] {
    Schema schema({{"ts", DataType::kInt64},
                   {"user_id", DataType::kInt64},
                   {"latency_ms", DataType::kDouble}});
    Table t(schema);
    Random rng(13);
    constexpr int64_t kRows = 512 * 1024;
    t.Reserve(kRows);
    for (int64_t i = 0; i < kRows; ++i) {
      t.mutable_column(0)->AppendInt64(i);
      t.mutable_column(1)->AppendInt64(rng.UniformInt(0, 99));
      t.mutable_column(2)->AppendDouble(rng.NextDouble() * 100);
    }
    auto* db = new Database();
    if (!db->CreateTable("requests", std::move(t)).ok()) std::abort();
    return db;
  }();
  return db;
}

Query ScanAll() {
  return Query::On("requests").Where(
      Predicate({{1, CompareOp::kGe, Value(int64_t{0})}}));
}

Query AvgLatency() {
  return Query::On("requests")
      .Where(Predicate({{1, CompareOp::kLt, Value(int64_t{50})}}))
      .Aggregate(AggKind::kAvg, "latency_ms");
}

Query GroupedAvg() {
  return Query::On("requests")
      .Aggregate(AggKind::kAvg, "latency_ms")
      .GroupBy("user_id");
}

TEST(DeadlineTest, ExpiredDeadlineFailsScan) {
  Executor executor(TestDb());
  ExecContext ctx;
  ctx.SetMode(ExecutionMode::kScan);
  ctx.SetDeadline(steady_clock::now() - milliseconds(1));
  auto r = executor.Execute(ScanAll(), ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineTest, TinyTimeoutFailsLargeScan) {
  Executor executor(TestDb());
  ExecContext ctx;
  ctx.SetMode(ExecutionMode::kScan);
  // 1us expires before the first morsel is even dispatched; the scan must
  // notice and fail rather than run to completion.
  ctx.SetTimeout(microseconds(1));
  auto r = executor.Execute(ScanAll(), ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineTest, ExpiredDeadlineFailsExactAggregate) {
  Executor executor(TestDb());
  ExecContext ctx;
  ctx.SetDeadline(steady_clock::now() - milliseconds(1));
  auto r = executor.Execute(AvgLatency(), ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineTest, ExpiredDeadlineFailsGroupByAcrossThreadCounts) {
  Database* db = TestDb();
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    Executor executor(db);
    ExecContext ctx;
    ctx.SetThreadPool(&pool);
    ctx.SetDeadline(steady_clock::now() - milliseconds(1));
    auto r = executor.Execute(GroupedAvg(), ctx);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  }
}

TEST(DeadlineTest, OnlineModeReturnsPartialUnderExpiredDeadline) {
  Executor executor(TestDb());
  ExecContext ctx;
  ctx.SetMode(ExecutionMode::kOnline);
  ctx.SetDeadline(steady_clock::now() - milliseconds(1));
  auto r = executor.Execute(AvgLatency(), ctx);
  // The AQP contract: a deadline bounds refinement, not correctness — the
  // running estimate comes back approximate, with at least one batch of
  // evidence behind it.
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().approximate);
  ASSERT_TRUE(r.ValueOrDie().scalar.has_value());
  EXPECT_GT(r.ValueOrDie().stats().rows_scanned, 0u);
}

TEST(DeadlineTest, BudgetedAggregateNeverFailsOnDeadline) {
  Executor executor(TestDb());
  executor.planner().cost_model().SetExactNsPerRowForTest(1e9);
  ExecContext ctx;
  // Both a hopeless budget and an already-expired explicit deadline: the
  // planner must still produce an approximate answer, not an error and not
  // a hang (regression guard for the exact-plan rescue path).
  ctx.SetBudget({.latency = microseconds(1)});
  ctx.SetDeadline(steady_clock::now() - milliseconds(1));
  auto r = executor.Execute(AvgLatency(), ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().approximate);
  ASSERT_TRUE(r.ValueOrDie().scalar.has_value());
  EXPECT_GT(r.ValueOrDie().scalar->sample_size, 0u);
}

TEST(DeadlineTest, BudgetedCountOnEmptyTableNeverFailsOnDeadline) {
  // No plan fits an expired deadline even on an empty table; the minimum
  // sample of nothing must still answer 0, not reject its own fraction.
  Database db;
  ASSERT_TRUE(
      db.CreateTable("empty", Table(Schema({{"x", DataType::kInt64}}))).ok());
  Executor executor(&db);
  ExecContext ctx;
  ctx.SetBudget({.latency = microseconds(1)});
  ctx.SetDeadline(steady_clock::now() - milliseconds(1));
  auto r = executor.Execute(Query::On("empty").Aggregate(AggKind::kCount), ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.ValueOrDie().approximate);
  ASSERT_TRUE(r.ValueOrDie().scalar.has_value());
  EXPECT_EQ(r.ValueOrDie().scalar->value, 0.0);
  EXPECT_EQ(r.ValueOrDie().scalar->ci_half_width, 0.0);
}

TEST(DeadlineTest, BudgetedGroupByDegradesInsteadOfFailing) {
  Executor executor(TestDb());
  executor.planner().cost_model().SetExactNsPerRowForTest(1e9);
  ExecContext ctx;
  ctx.SetBudget({.latency = milliseconds(50)});
  auto r = executor.Execute(GroupedAvg(), ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.ValueOrDie().groups.empty());
  EXPECT_EQ(r.ValueOrDie().stats().planner_choice, PlannerChoice::kSample);
}

TEST(DeadlineTest, FutureDeadlineDoesNotFailFastQuery) {
  Executor executor(TestDb());
  ExecContext ctx;
  ctx.SetTimeout(std::chrono::seconds(30));
  auto r = executor.Execute(AvgLatency(), ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.ValueOrDie().approximate);
}

}  // namespace
}  // namespace exploredb
