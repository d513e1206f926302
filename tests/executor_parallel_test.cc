// Serial-vs-parallel equivalence of the morsel-driven executor, plus the
// ExecContext/ExecStats API surface: identical results for any thread count
// (projected rows and cache hits included), morsel-boundary edge cases,
// access-path and phase-time reporting, deadline and cancellation behavior,
// and the ThreadPool primitive itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "engine/query.h"
#include "engine/session.h"
#include "sampling/online_agg.h"

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

Query WindowQuery(int64_t lo, int64_t hi) {
  return Query::On("events").Where(
      Predicate({{0, CompareOp::kGe, Value(lo)}, {0, CompareOp::kLt, Value(hi)}}));
}

/// A context running over `pool` with a small morsel so modest test tables
/// still split into many parallel work units.
ExecContext ParallelCtx(ThreadPool* pool, size_t morsel = 1000) {
  ExecContext ctx;
  ctx.SetThreadPool(pool).SetMorselSize(morsel);
  return ctx;
}

class ParallelExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable("events", EventsTable(50000, 42)).ok());
  }
  Database db_;
};

// ---- serial vs parallel equivalence ---------------------------------------

TEST_F(ParallelExecutorTest, ScanPositionsIdenticalAcrossThreadCounts) {
  Executor exec(&db_);
  ExecContext serial;
  serial.SetThreadPool(nullptr);
  auto want = exec.Execute(WindowQuery(20000, 60000), serial);
  ASSERT_TRUE(want.ok());
  ASSERT_FALSE(want.ValueOrDie().positions.empty());

  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    auto got = exec.Execute(WindowQuery(20000, 60000), ParallelCtx(&pool));
    ASSERT_TRUE(got.ok()) << "threads=" << threads;
    // Byte-identical: morsel buffers merge in morsel order, so parallel
    // output equals the serial row-order scan exactly, unsorted.
    EXPECT_EQ(got.ValueOrDie().positions, want.ValueOrDie().positions)
        << "threads=" << threads;
  }
}

TEST_F(ParallelExecutorTest, AggregatesIdenticalAcrossThreadCounts) {
  Executor exec(&db_);
  for (AggKind kind : {AggKind::kCount, AggKind::kSum, AggKind::kAvg}) {
    Query q = WindowQuery(10000, 90000);
    q.Aggregate(kind, kind == AggKind::kCount ? "" : "value");
    ExecContext serial;
    serial.SetThreadPool(nullptr).SetMorselSize(1000);
    auto want = exec.Execute(q, serial);
    ASSERT_TRUE(want.ok());
    for (size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      auto got = exec.Execute(q, ParallelCtx(&pool));
      ASSERT_TRUE(got.ok());
      // Bit-identical doubles: both paths merge the same per-morsel partial
      // sums in morsel order.
      EXPECT_EQ(got.ValueOrDie().scalar->value, want.ValueOrDie().scalar->value)
          << "kind=" << AggKindName(kind) << " threads=" << threads;
    }
  }
}

TEST_F(ParallelExecutorTest, OnlineEstimateIdenticalAcrossThreadCounts) {
  Executor exec(&db_);
  Query q = WindowQuery(0, 50000).Aggregate(AggKind::kAvg, "value");
  auto run = [&](ThreadPool* pool) {
    ExecContext ctx = ParallelCtx(pool);
    ctx.SetThreadPool(pool);
    ctx.options().mode = ExecutionMode::kOnline;
    ctx.options().error_budget = 1.0;
    auto r = exec.Execute(q, ctx);
    EXPECT_TRUE(r.ok());
    return r.ValueOrDie().scalar->value;
  };
  double want = run(nullptr);
  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    // The mask/values materialization is partitioned; the random consumption
    // order is seeded — the estimate must not depend on the thread count.
    EXPECT_EQ(run(&pool), want) << "threads=" << threads;
  }
}

TEST_F(ParallelExecutorTest, GroupByIdenticalAcrossThreadCounts) {
  Executor exec(&db_);
  Query q = WindowQuery(0, 80000).Aggregate(AggKind::kCount).GroupBy("kind");
  ExecContext serial;
  serial.SetThreadPool(nullptr);
  auto want = exec.Execute(q, serial);
  ASSERT_TRUE(want.ok());
  ThreadPool pool(8);
  auto got = exec.Execute(q, ParallelCtx(&pool));
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.ValueOrDie().groups.size(), want.ValueOrDie().groups.size());
  for (size_t i = 0; i < want.ValueOrDie().groups.size(); ++i) {
    EXPECT_EQ(got.ValueOrDie().groups[i].key, want.ValueOrDie().groups[i].key);
    EXPECT_EQ(got.ValueOrDie().groups[i].value.value,
              want.ValueOrDie().groups[i].value.value);
  }
}

// ---- morsel-boundary edge cases -------------------------------------------

TEST_F(ParallelExecutorTest, EmptyTable) {
  Database db;
  ASSERT_TRUE(db.CreateTable("empty", Table(EventsSchema())).ok());
  Executor exec(&db);
  ThreadPool pool(4);
  ExecContext ctx = ParallelCtx(&pool);
  auto sel = exec.Execute(Query::On("empty").Where(Predicate::Range(0, 0, 10)),
                          ctx);
  ASSERT_TRUE(sel.ok());
  EXPECT_TRUE(sel.ValueOrDie().positions.empty());
  auto agg =
      exec.Execute(Query::On("empty").Aggregate(AggKind::kAvg, "value"), ctx);
  ASSERT_TRUE(agg.ok());
  EXPECT_DOUBLE_EQ(agg.ValueOrDie().scalar->value, 0.0);
}

TEST_F(ParallelExecutorTest, TableSmallerThanOneMorsel) {
  Database db;
  ASSERT_TRUE(db.CreateTable("events", EventsTable(100, 7)).ok());
  Executor exec(&db);
  ThreadPool pool(8);
  ExecContext ctx = ParallelCtx(&pool, /*morsel=*/ExecContext::kDefaultMorselSize);
  ExecContext serial;
  serial.SetThreadPool(nullptr);
  Executor exec_serial(&db);
  auto got = exec.Execute(WindowQuery(0, 100000), ctx);
  auto want = exec.Execute(WindowQuery(0, 100000), serial);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got.ValueOrDie().positions, want.ValueOrDie().positions);
  EXPECT_EQ(got.ValueOrDie().positions.size(), 100u);
}

TEST_F(ParallelExecutorTest, AllMatchPredicateAndRaggedLastMorsel) {
  // 50000 rows over 1000-row morsels with an all-match predicate: every
  // morsel buffer is fully populated and the concatenation must be exactly
  // 0..n-1. A ragged table size exercises the short last morsel.
  Database db;
  ASSERT_TRUE(db.CreateTable("events", EventsTable(4999, 3)).ok());
  Executor exec(&db);
  ThreadPool pool(8);
  auto got = exec.Execute(WindowQuery(0, 1 << 30), ParallelCtx(&pool));
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.ValueOrDie().positions.size(), 4999u);
  for (uint32_t i = 0; i < 4999; ++i) {
    ASSERT_EQ(got.ValueOrDie().positions[i], i);
  }
}

// ---- ExecStats ------------------------------------------------------------

TEST_F(ParallelExecutorTest, ScanStatsReportMorselsAndPhases) {
  Executor exec(&db_);
  ThreadPool pool(4);
  auto r = exec.Execute(WindowQuery(0, 50000), ParallelCtx(&pool));
  ASSERT_TRUE(r.ok());
  const ExecStats& s = r.ValueOrDie().stats();
  EXPECT_EQ(s.path, AccessPath::kScan);
  EXPECT_EQ(s.rows_scanned, 50000u);
  EXPECT_EQ(s.morsels_dispatched, 50u);  // 50000 rows / 1000-row morsels
  EXPECT_GE(s.threads_used, 1u);
  EXPECT_GT(s.select_nanos, 0);
  EXPECT_GT(s.total_nanos, 0);
  EXPECT_GT(s.project_nanos, 0);
  EXPECT_NE(s.Summary().find("path=scan"), std::string::npos);
  EXPECT_NE(s.Summary().find("morsels=50"), std::string::npos);
}

TEST_F(ParallelExecutorTest, AggregateStatsReportPhase) {
  Executor exec(&db_);
  ThreadPool pool(4);
  Query q = WindowQuery(0, 80000).Aggregate(AggKind::kSum, "value");
  auto r = exec.Execute(q, ParallelCtx(&pool));
  ASSERT_TRUE(r.ok());
  const ExecStats& s = r.ValueOrDie().stats();
  EXPECT_EQ(s.path, AccessPath::kScan);
  EXPECT_GT(s.select_nanos, 0);
  EXPECT_GT(s.aggregate_nanos, 0);
}

TEST_F(ParallelExecutorTest, CrackedPathReportedInStats) {
  Executor exec(&db_);
  ExecContext ctx;
  ctx.options().mode = ExecutionMode::kCracking;
  auto r = exec.Execute(WindowQuery(1000, 2000), ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().stats().path, AccessPath::kCracker);
  EXPECT_GT(r.ValueOrDie().stats().select_nanos, 0);
  EXPECT_GT(r.ValueOrDie().stats().rows_scanned, 0u);

  ctx.options().mode = ExecutionMode::kFullIndex;
  auto sorted = exec.Execute(WindowQuery(1000, 2000), ctx);
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(sorted.ValueOrDie().stats().path, AccessPath::kSorted);
}

TEST_F(ParallelExecutorTest, ExtractRangeIsDeterministicAcrossRebuilds) {
  // Two fully-bounded int64 columns both qualify for the index; the planner
  // must always pick the lowest column index, so repeated runs on fresh
  // databases crack the same column and report identical costs.
  auto run_once = [] {
    Table t(Schema({{"x", DataType::kInt64}, {"y", DataType::kInt64}}));
    Random rng(7);
    for (size_t i = 0; i < 20000; ++i) {
      EXPECT_TRUE(t.AppendRow({Value(rng.UniformInt(0, 9999)),
                               Value(rng.UniformInt(0, 9999))})
                      .ok());
    }
    Database db;
    EXPECT_TRUE(db.CreateTable("xy", std::move(t)).ok());
    Executor exec(&db);
    ExecContext ctx;
    ctx.options().mode = ExecutionMode::kCracking;
    Query q = Query::On("xy").Where(
        Predicate({{1, CompareOp::kGe, Value(int64_t{2000})},
                   {1, CompareOp::kLt, Value(int64_t{3000})},
                   {0, CompareOp::kGe, Value(int64_t{4000})},
                   {0, CompareOp::kLt, Value(int64_t{6000})}}));
    auto r = exec.Execute(q, ctx);
    EXPECT_TRUE(r.ok());
    return std::make_pair(r.ValueOrDie().positions,
                          r.ValueOrDie().stats().rows_scanned);
  };
  auto [want_pos, want_scanned] = run_once();
  ASSERT_FALSE(want_pos.empty());
  for (int i = 0; i < 3; ++i) {
    auto [pos, scanned] = run_once();
    EXPECT_EQ(pos, want_pos);
    EXPECT_EQ(scanned, want_scanned);
  }
}

TEST_F(ParallelExecutorTest, SampleAndOnlinePathsReported) {
  Executor exec(&db_);
  Query q = WindowQuery(0, 50000).Aggregate(AggKind::kAvg, "value");
  ExecContext sampled;
  sampled.options().mode = ExecutionMode::kSampled;
  auto s = exec.Execute(q, sampled);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.ValueOrDie().stats().path, AccessPath::kSample);

  ExecContext online;
  online.options().mode = ExecutionMode::kOnline;
  online.options().error_budget = 5.0;
  auto o = exec.Execute(q, online);
  ASSERT_TRUE(o.ok());
  EXPECT_EQ(o.ValueOrDie().stats().path, AccessPath::kOnline);
  EXPECT_GT(o.ValueOrDie().stats().aggregate_nanos, 0);
}

// ---- deadline & cancellation ----------------------------------------------

TEST_F(ParallelExecutorTest, CancelledQueryFails) {
  Executor exec(&db_);
  ExecContext ctx;
  ctx.RequestCancel();
  auto r = exec.Execute(WindowQuery(0, 50000), ctx);
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST_F(ParallelExecutorTest, ExpiredDeadlineFailsExactQuery) {
  Executor exec(&db_);
  ExecContext ctx;
  ctx.SetDeadline(std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1));
  auto r = exec.Execute(WindowQuery(0, 50000), ctx);
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(ParallelExecutorTest, ExpiredDeadlineStillAnswersOnlineMode) {
  // The AQP contract: a deadline bounds refinement, not correctness — the
  // online aggregator returns its current (here: zero-sample) estimate.
  Executor exec(&db_);
  ExecContext ctx;
  ctx.options().mode = ExecutionMode::kOnline;
  ctx.SetDeadline(std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1));
  auto r = exec.Execute(
      Query::On("events").Aggregate(AggKind::kCount), ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().approximate);
}

TEST_F(ParallelExecutorTest, CancellationSharedAcrossCopies) {
  ExecContext a;
  ExecContext b = a;  // copies share the flag: a controller can cancel
  b.RequestCancel();
  EXPECT_TRUE(a.cancelled());
}

// ---- QueryBuilder ----------------------------------------------------------

TEST_F(ParallelExecutorTest, BuilderMatchesHandAssembledQuery) {
  Executor exec(&db_);
  auto built = exec.Execute(Query::From("events")
                                .WhereBetween("ts", int64_t{1000}, int64_t{2000})
                                .Select({"ts", "value"}));
  auto hand = exec.Execute(WindowQuery(1000, 2000).Select({"ts", "value"}));
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(hand.ok());
  EXPECT_EQ(built.ValueOrDie().positions, hand.ValueOrDie().positions);
}

TEST_F(ParallelExecutorTest, BuilderCoercesAndValidatesTypes) {
  Executor exec(&db_);
  // int64 literal against the double column coerces.
  auto ok = exec.Execute(
      Query::From("events").Where("value", CompareOp::kGt, int64_t{50}));
  EXPECT_TRUE(ok.ok());
  // Unknown column and string-vs-numeric mismatches fail at Build time.
  EXPECT_FALSE(
      exec.Execute(Query::From("events").Where("bogus", CompareOp::kEq,
                                               int64_t{1}))
          .ok());
  EXPECT_FALSE(
      exec.Execute(Query::From("events").Where("ts", CompareOp::kEq, "x"))
          .ok());
  EXPECT_FALSE(
      exec.Execute(Query::From("events").Where("kind", CompareOp::kEq,
                                               int64_t{1}))
          .ok());
}

// ---- projection ------------------------------------------------------------

/// Same columns, names and cells (doubles compared bitwise via ==; the
/// events table holds no NaN).
void ExpectSameRows(const Table& got, const Table& want,
                    const std::string& at) {
  ASSERT_EQ(got.num_columns(), want.num_columns()) << at;
  for (size_t c = 0; c < want.num_columns(); ++c) {
    EXPECT_EQ(got.schema().field(c).name, want.schema().field(c).name) << at;
    ASSERT_EQ(got.column(c).type(), want.column(c).type()) << at;
    EXPECT_EQ(got.column(c).int64_data(), want.column(c).int64_data()) << at;
    EXPECT_EQ(got.column(c).double_data(), want.column(c).double_data())
        << at;
    EXPECT_EQ(got.column(c).string_data(), want.column(c).string_data())
        << at;
  }
}

TEST_F(ParallelExecutorTest, ProjectIdenticalAcrossThreadCounts) {
  TableEntry* entry = db_.GetTable("events").ValueOrDie();
  Random rng(9);
  std::vector<uint32_t> grains;  // three full 1024-position grains + a part
  for (int i = 0; i < 3 * 1024 + 517; ++i) {
    grains.push_back(static_cast<uint32_t>(rng.Uniform(50000)));
  }
  std::vector<uint32_t> duplicates;  // repeats within and across grains
  for (uint32_t i = 0; i < 2 * 1024 + 3; ++i) {
    duplicates.push_back((i * 7) % 600);
  }
  const std::vector<std::vector<uint32_t>> selections = {
      {}, {49999}, grains, duplicates};
  const std::vector<std::vector<std::string>> selects = {
      {}, {"kind", "value"}, {"ts"}};

  for (size_t s = 0; s < selections.size(); ++s) {
    const std::vector<uint32_t>& positions = selections[s];
    for (const std::vector<std::string>& select : selects) {
      const std::string at = "selection=" + std::to_string(s) +
                             " columns=" + std::to_string(select.size());
      ExecContext serial;
      serial.SetThreadPool(nullptr);
      auto want = Executor::Project(entry, select, positions, serial);
      ASSERT_TRUE(want.ok()) << at;
      const Table& rows = want.ValueOrDie();
      ASSERT_EQ(rows.num_columns(), select.empty() ? 3u : select.size())
          << at;
      // The serial rows are the source cells, in selection order.
      for (size_t c = 0; c < rows.num_columns(); ++c) {
        const size_t src =
            entry->schema().FieldIndex(rows.schema().field(c).name)
                .ValueOrDie();
        const ColumnVector* col = entry->GetColumn(src).ValueOrDie();
        ASSERT_EQ(rows.column(c).size(), positions.size()) << at;
        for (size_t i = 0; i < positions.size(); ++i) {
          ASSERT_EQ(rows.GetValue(i, c), col->GetValue(positions[i]))
              << at << " column=" << c << " i=" << i;
        }
      }
      for (size_t threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        auto got = Executor::Project(entry, select, positions,
                                     ParallelCtx(&pool));
        ASSERT_TRUE(got.ok()) << at;
        ExpectSameRows(got.ValueOrDie(), rows,
                       at + " threads=" + std::to_string(threads));
      }
    }
  }
  ExecContext serial;
  serial.SetThreadPool(nullptr);
  EXPECT_FALSE(Executor::Project(entry, {"bogus"}, grains, serial).ok());
}

TEST_F(ParallelExecutorTest, CacheHitRowsEqualMissRows) {
  // ~5K matching rows: five projection grains.
  for (const std::vector<std::string>& select :
       std::vector<std::vector<std::string>>{{}, {"value", "kind"}}) {
    Query q = WindowQuery(20000, 30000);
    q.Select(select);
    ExecContext serial;
    serial.SetThreadPool(nullptr);
    auto want = Executor(&db_).Execute(q, serial);
    ASSERT_TRUE(want.ok());
    ASSERT_GT(want.ValueOrDie().positions.size(), 4096u);
    for (size_t threads : {0u, 1u, 2u, 8u}) {
      const std::string at = "columns=" + std::to_string(select.size()) +
                             " threads=" + std::to_string(threads);
      std::unique_ptr<ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
      ExecContext ctx = ParallelCtx(pool.get());
      SessionOptions opts;  // private cache
      opts.speculate = false;
      Session session(&db_, opts);
      auto miss = session.Execute(q, ctx);
      auto hit = session.Execute(q, ctx);
      ASSERT_TRUE(miss.ok()) << at;
      ASSERT_TRUE(hit.ok()) << at;
      ASSERT_FALSE(miss.ValueOrDie().from_cache) << at;
      ASSERT_TRUE(hit.ValueOrDie().from_cache) << at;
      ASSERT_TRUE(miss.ValueOrDie().rows.has_value()) << at;
      ASSERT_TRUE(hit.ValueOrDie().rows.has_value()) << at;
      ExpectSameRows(*hit.ValueOrDie().rows, *miss.ValueOrDie().rows, at);
      ExpectSameRows(*miss.ValueOrDie().rows, *want.ValueOrDie().rows, at);
    }
  }
}

// ---- one access plan per query ---------------------------------------------

// An index plan outside the planner walks no zone map: a kCracking window
// on a fresh table builds its cracker and nothing else, and the next window
// builds nothing.
TEST_F(ParallelExecutorTest, CrackingWindowBuildsOnlyItsCracker) {
  Counter* builds = Metrics().GetCounter("exploredb_synopsis_builds_total");
  const uint64_t before = builds->Value();
  Executor exec(&db_);
  ExecContext ctx;
  ctx.SetMode(ExecutionMode::kCracking);
  ASSERT_TRUE(exec.Execute(WindowQuery(1000, 2000), ctx).ok());
  EXPECT_EQ(builds->Value() - before, 1u);
  ASSERT_TRUE(exec.Execute(WindowQuery(40000, 45000), ctx).ok());
  EXPECT_EQ(builds->Value() - before, 1u);
}

// ---- index answers ----------------------------------------------------------

// SortPositions and the radix sort alone agree with std::sort at every size
// around the comparison cutoff and at largest values that take one, two and
// three radix passes, on random, sorted and reversed input.
TEST(SortPositionsTest, MatchesStdSort) {
  const size_t sizes[] = {0,
                          1,
                          2,
                          kRadixSortCutoff - 1,
                          kRadixSortCutoff,
                          kRadixSortCutoff + 1,
                          5'700,
                          1'000'000};
  const uint32_t largest[] = {(1u << 12) - 1, (1u << 24) - 1, 1u << 24,
                              UINT32_MAX};
  Random rng(11);
  auto check = [](std::vector<uint32_t> positions, const std::string& at) {
    std::vector<uint32_t> want = positions;
    std::sort(want.begin(), want.end());
    std::vector<uint32_t> radix = positions;
    RadixSortPositions(&radix);
    EXPECT_EQ(radix, want) << "radix " << at;
    SortPositions(&positions);
    EXPECT_EQ(positions, want) << at;
  };
  for (const size_t n : sizes) {
    for (const uint32_t max : largest) {
      std::vector<uint32_t> positions(n);
      for (uint32_t& p : positions) {
        p = static_cast<uint32_t>(rng.Uniform(uint64_t{max} + 1));
      }
      if (n > 0) positions[rng.Uniform(n)] = max;
      check(positions, "n=" + std::to_string(n) + " max=" +
                           std::to_string(max));
    }
    std::vector<uint32_t> sorted(n);
    for (size_t i = 0; i < n; ++i) {
      sorted[i] = static_cast<uint32_t>(i * 4099);
    }
    check(sorted, "sorted n=" + std::to_string(n));
    check({sorted.rbegin(), sorted.rend()}, "reversed n=" + std::to_string(n));
  }
}

// Cracker and sorted-index windows wider than the radix cutoff, with and
// without a residual, return the scan's positions and rows at any thread
// count, whether the cracker cracks or answers converged.
TEST_F(ParallelExecutorTest, IndexWindowsMatchScanAcrossThreadCounts) {
  const Predicate window = WindowQuery(20000, 30000).where();
  const Predicate residual(
      {window.conjuncts()[0], window.conjuncts()[1],
       {2, CompareOp::kNe, Value("beta")}});
  for (const Predicate& where : {window, residual}) {
    const Query q = Query::On("events").Where(where);
    ExecContext scan;
    scan.SetThreadPool(nullptr).SetMode(ExecutionMode::kScan);
    auto want = Executor(&db_).Execute(q, scan);
    ASSERT_TRUE(want.ok());
    ASSERT_GT(want.ValueOrDie().positions.size(), kRadixSortCutoff);
    for (ExecutionMode mode :
         {ExecutionMode::kCracking, ExecutionMode::kFullIndex}) {
      for (size_t threads : {1u, 2u, 8u}) {
        const std::string at = std::string(ExecutionModeName(mode)) +
                               " conjuncts=" +
                               std::to_string(where.conjuncts().size()) +
                               " threads=" + std::to_string(threads);
        ThreadPool pool(threads);
        ExecContext ctx = ParallelCtx(&pool);
        ctx.SetMode(mode);
        Executor exec(&db_);
        // The first cracking run cracks; every later one reads converged.
        for (int run = 0; run < 2; ++run) {
          auto got = exec.Execute(q, ctx);
          ASSERT_TRUE(got.ok()) << at;
          EXPECT_EQ(got.ValueOrDie().stats().path,
                    mode == ExecutionMode::kCracking ? AccessPath::kCracker
                                                     : AccessPath::kSorted)
              << at;
          EXPECT_EQ(got.ValueOrDie().positions, want.ValueOrDie().positions)
              << at << " run=" << run;
          ExpectSameRows(*got.ValueOrDie().rows, *want.ValueOrDie().rows,
                         at + " run=" + std::to_string(run));
        }
      }
    }
  }
}

/// 737,000 rows: `k` uniform in [0, 1e6), `g` = k mod 8, and `v` a
/// heavy-tailed measure exp(6 N(0,1)) with a random sign. Its sums change
/// in their last bits under any change of summation order, where sums of
/// uniform values can happen to agree.
Table HeavyTailTable() {
  Table t(Schema({{"k", DataType::kInt64},
                  {"g", DataType::kInt64},
                  {"v", DataType::kDouble}}));
  Random rng(1);
  constexpr size_t kRows = 737'000;
  t.Reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    const int64_t k = rng.UniformInt(0, 999'999);
    const double v = std::exp(6.0 * rng.NextGaussian());
    t.mutable_column(0)->AppendInt64(k);
    t.mutable_column(1)->AppendInt64(k % 8);
    t.mutable_column(2)->AppendDouble(rng.Uniform(2) == 0 ? v : -v);
  }
  return t;
}

// Every exact plan reduces per table morsel and merges in morsel order, so
// a scan, both index probes, the budgeted planner's exact rung and a
// session's focus refine return the same SUM and AVG bits at any thread
// count. (The scan's reduce is per morsel of ctx's size, so the bits are
// compared per morsel size.)
TEST(ExactBitsTest, EveryExactPlanReturnsTheSameBits) {
  Database db;
  ASSERT_TRUE(db.CreateTable("heavy", HeavyTailTable()).ok());
  const Predicate window({{0, CompareOp::kGe, Value(int64_t{0})},
                          {0, CompareOp::kLt, Value(int64_t{555'555})}});
  const Query widest = Query::On("heavy")
                           .Where(Predicate({window.conjuncts()[0]}))
                           .Aggregate(AggKind::kCount)
                           .GroupBy("g");
  SessionOptions quiet;
  quiet.speculate = false;
  for (AggKind kind : {AggKind::kSum, AggKind::kAvg}) {
    const Query q =
        Query::On("heavy").Where(window).Aggregate(kind, "v");
    for (size_t morsel : {ExecContext::kDefaultMorselSize, size_t{1000}}) {
      std::optional<double> want;
      for (size_t threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        ExecContext base = ParallelCtx(&pool, morsel);
        auto check = [&](const std::string& how,
                         const Result<QueryResult>& got, AccessPath path) {
          SCOPED_TRACE(std::string(AggKindName(kind)) + " morsel=" +
                       std::to_string(morsel) + " threads=" +
                       std::to_string(threads) + " " + how);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          const QueryResult& r = got.ValueOrDie();
          EXPECT_EQ(r.stats().path, path);
          EXPECT_FALSE(r.approximate);
          ASSERT_TRUE(r.scalar.has_value());
          if (!want.has_value()) want = r.scalar->value;
          char bits[64];
          std::snprintf(bits, sizeof(bits), "%.17g against %.17g",
                        r.scalar->value, *want);
          EXPECT_EQ(r.scalar->value, *want) << bits;
        };
        Executor exec(&db);
        const std::pair<ExecutionMode, AccessPath> modes[] = {
            {ExecutionMode::kScan, AccessPath::kScan},
            {ExecutionMode::kCracking, AccessPath::kCracker},
            {ExecutionMode::kFullIndex, AccessPath::kSorted},
            {ExecutionMode::kAuto, AccessPath::kCracker}};
        for (const auto& [mode, path] : modes) {
          ExecContext ctx = base;
          ctx.SetMode(mode);
          check(ExecutionModeName(mode), exec.Execute(q, ctx), path);
        }
        ExecContext budgeted = base;
        budgeted.SetBudget({.latency = std::chrono::seconds(5)});
        Result<QueryResult> planned = exec.Execute(q, budgeted);
        check("budgeted", planned, AccessPath::kCracker);
        EXPECT_EQ(planned.ValueOrDie().stats().planner_choice,
                  PlannerChoice::kExact);

        // The grouped scan over `k >= 0` leaves the focus the window's
        // aggregate refines.
        Session session(&db, quiet);
        ExecContext scan = base;
        scan.SetMode(ExecutionMode::kScan);
        ASSERT_TRUE(session.Execute(widest, scan).ok());
        check("focus", session.Execute(q, scan), AccessPath::kFocus);
      }
    }
  }
}

/// 200,000 rows: `k` uniform in [0, 1e6), group keys of each type derived
/// from it (`s` one of 8 strings, `g` = k mod 8, `d` one of 5 doubles) and
/// the heavy-tailed measure `v` of HeavyTailTable.
Table SampledTable() {
  Table t(Schema({{"k", DataType::kInt64},
                  {"s", DataType::kString},
                  {"g", DataType::kInt64},
                  {"d", DataType::kDouble},
                  {"v", DataType::kDouble}}));
  const char* const kCarriers[] = {"AA", "B6", "DL", "F9",
                                   "HA", "NK", "UA", "WN"};
  Random rng(2);
  constexpr size_t kRows = 200'000;
  t.Reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    const int64_t k = rng.UniformInt(0, 999'999);
    const double v = std::exp(6.0 * rng.NextGaussian());
    t.mutable_column(0)->AppendInt64(k);
    t.mutable_column(1)->AppendString(kCarriers[k % 8]);
    t.mutable_column(2)->AppendInt64(k % 8);
    t.mutable_column(3)->AppendDouble(0.1 * static_cast<double>(k % 5));
    t.mutable_column(4)->AppendDouble(rng.Uniform(2) == 0 ? v : -v);
  }
  return t;
}

// A sample plan draws each table morsel's rows from a seed of its own and
// merges its partials in morsel order, so a sampled answer (value, width,
// sample size, group keys) is the same at any thread count, per morsel
// size.
TEST(SampledBitsTest, SampledAnswersAreTheSameAtAnyThreadCount) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", SampledTable()).ok());
  Executor exec(&db);
  const Predicate window({{0, CompareOp::kGe, Value(int64_t{100'000})},
                          {0, CompareOp::kLt, Value(int64_t{700'000})}});
  for (size_t morsel : {ExecContext::kDefaultMorselSize, size_t{1000}}) {
    for (AggKind kind : {AggKind::kCount, AggKind::kSum, AggKind::kAvg}) {
      for (const char* group : {"", "s", "g", "d"}) {
        Query q = Query::On("t").Where(window).Aggregate(
            kind, kind == AggKind::kCount ? "" : "v");
        if (*group != '\0') q.GroupBy(group);
        std::optional<QueryResult> want;
        for (size_t threads : {1u, 2u, 8u}) {
          SCOPED_TRACE(std::string(AggKindName(kind)) + " by '" + group +
                       "' morsel=" + std::to_string(morsel) +
                       " threads=" + std::to_string(threads));
          ThreadPool pool(threads);
          ExecContext ctx = ParallelCtx(&pool, morsel);
          ctx.SetMode(ExecutionMode::kSampled);
          ctx.options().sample_fraction = 0.05;
          Result<QueryResult> got = exec.Execute(q, ctx);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          const QueryResult& r = got.ValueOrDie();
          EXPECT_TRUE(r.approximate);
          EXPECT_EQ(r.stats().path, AccessPath::kSample);
          if (!want.has_value()) {
            want = r;
            continue;
          }
          auto same = [](const Estimate& a, const Estimate& b) {
            EXPECT_EQ(std::memcmp(&a.value, &b.value, sizeof(double)), 0)
                << a.value << " against " << b.value;
            EXPECT_EQ(std::memcmp(&a.ci_half_width, &b.ci_half_width,
                                  sizeof(double)),
                      0)
                << a.ci_half_width << " against " << b.ci_half_width;
            EXPECT_EQ(a.sample_size, b.sample_size);
          };
          if (*group == '\0') {
            same(*r.scalar, *want->scalar);
            continue;
          }
          ASSERT_EQ(r.groups.size(), want->groups.size());
          for (size_t i = 0; i < r.groups.size(); ++i) {
            EXPECT_EQ(r.groups[i].key, want->groups[i].key);
            same(r.groups[i].value, want->groups[i].value);
          }
        }
      }
    }
  }
}

// ---- ThreadPool primitive --------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversEveryChunkOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  auto stats = pool.ParallelFor(1000, [&](size_t i) { hits[i]++; });
  EXPECT_EQ(stats.chunks, 1000u);
  EXPECT_GE(stats.threads_used, 1u);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  int sum = 0;
  auto stats = pool.ParallelFor(10, [&](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
  EXPECT_EQ(stats.threads_used, 1u);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) { total++; });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPoolTest, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<bool> ran{false};
  pool.Submit([&] { ran = true; });
  // Destruction drains the queue via worker join; poll briefly first.
  for (int i = 0; i < 1000 && !ran; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(ran.load());
}

}  // namespace
}  // namespace exploredb
