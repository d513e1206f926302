// The Session query path. Session::Execute, Session::ExecuteProgressive and
// ServerSession::Submit share one path: a miss and a hit of the same budgeted
// window leave the same journal records through each of them and count once
// per call. ExplainAnalyze is counted and journaled but touches neither the
// cache nor the trajectory model. A cache hit's total_nanos excludes the
// speculation it triggers, as a miss's does. A sampled COUNT whose sample
// holds no matching row reports a bounded relative error to the SLO monitor
// and leaves the planner's cv alone. Queries whose constants differ in
// digits, separator bytes or type never share a cache entry. A speculated
// neighbour caches the positions a fresh selection returns.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "engine/query.h"
#include "engine/session.h"
#include "journal_records.h"
#include "obs/journal.h"
#include "obs/slo.h"
#include "prefetch/query_cache.h"
#include "server/server.h"

namespace exploredb {
namespace {

/// Fresh "events" table: "ts" = row number, "user_id" uniform in [0, rows).
std::unique_ptr<Database> EventsDb(int64_t rows) {
  Table t(Schema({{"ts", DataType::kInt64}, {"user_id", DataType::kInt64}}));
  Random rng(17);
  t.Reserve(rows);
  for (int64_t i = 0; i < rows; ++i) {
    t.mutable_column(0)->AppendInt64(i);
    t.mutable_column(1)->AppendInt64(rng.UniformInt(0, rows - 1));
  }
  auto db = std::make_unique<Database>();
  EXPECT_TRUE(db->CreateTable("events", std::move(t)).ok());
  return db;
}

Query Window(int64_t lo, int64_t hi) {
  return Query::On("events").Where(Predicate(
      {{1, CompareOp::kGe, Value(lo)}, {1, CompareOp::kLt, Value(hi)}}));
}

uint64_t TenantQueries(const std::string& tenant) {
  return Metrics()
      .GetCounter(LabeledMetricName("exploredb_session_queries_total",
                                    "tenant", tenant))
      ->Value();
}

TEST(SessionPathTest, EntryPointsRecordAndCountAlike) {
  ScopedMemoryJournal journal;
  const LatencyBudget budget{.latency = std::chrono::seconds(1)};
  ExecContext budgeted;
  budgeted.SetBudget(budget);
  const Query window = Window(1'000, 2'000);

  std::vector<std::vector<JournalRecord>> records;
  for (const std::string entry : {"execute", "progressive", "submit"}) {
    SCOPED_TRACE(entry);
    std::unique_ptr<Database> db = EventsDb(64 * 1024);
    const std::string tenant = "path-" + entry;
    std::unique_ptr<ExplorationServer> server;
    std::unique_ptr<Session> owned;
    Session* session = nullptr;
    std::function<Result<QueryResult>()> run;
    if (entry == "submit") {
      server = std::make_unique<ExplorationServer>(db.get());
      ServerSession* handle = server->OpenSession(tenant);
      session = &handle->session();
      run = [handle, &window, &budgeted] {
        return handle->Submit(window, budgeted).get();
      };
    } else {
      SessionOptions options;
      options.tenant = tenant;
      owned = std::make_unique<Session>(db.get(), options);
      session = owned.get();
      if (entry == "execute") {
        run = [&] { return session->Execute(window, budgeted); };
      } else {
        run = [&] {
          return session->ExecuteProgressive(window, budget,
                                             [](const ProgressiveUpdate&) {});
        };
      }
    }

    for (const bool hit : {false, true}) {
      const uint64_t queries = session->stats().queries;
      const uint64_t tenant_queries = TenantQueries(tenant);
      Result<QueryResult> result = run();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result.ValueOrDie().from_cache, hit);
      EXPECT_EQ(session->stats().queries, queries + 1);
      EXPECT_EQ(TenantQueries(tenant), tenant_queries + 1);
    }
    records.push_back(SessionJournal(session->id()));
    ASSERT_EQ(records.back().size(), 2u);
  }

  const std::vector<JournalRecord>& want = records.front();
  EXPECT_EQ(want[0].stats.planner_choice, PlannerChoice::kExact);
  EXPECT_EQ(want[1].stats.planner_choice, PlannerChoice::kCache);
  EXPECT_EQ(want[1].stats.path, AccessPath::kCache);
  EXPECT_EQ(want[0].result_fingerprint, want[1].result_fingerprint);
  for (size_t e = 1; e < records.size(); ++e) {
    for (size_t i = 0; i < want.size(); ++i) {
      SCOPED_TRACE("entry " + std::to_string(e) + " query " +
                   std::to_string(i));
      const JournalRecord& got = records[e][i];
      EXPECT_EQ(got.requested_mode, ExecutionMode::kBudgeted);
      EXPECT_EQ(got.requested_mode, want[i].requested_mode);
      EXPECT_EQ(got.resolved_mode, want[i].resolved_mode);
      EXPECT_EQ(got.from_cache, want[i].from_cache);
      EXPECT_EQ(got.stats.path, want[i].stats.path);
      EXPECT_EQ(got.stats.planner_choice, want[i].stats.planner_choice);
      EXPECT_EQ(got.result_rows, want[i].result_rows);
      EXPECT_EQ(got.result_fingerprint, want[i].result_fingerprint);
    }
  }
}

TEST(SessionPathTest, ExplainAnalyzeBypassesCacheAndTrajectory) {
  ScopedMemoryJournal journal;
  std::unique_ptr<Database> db = EventsDb(64 * 1024);
  Session session(db.get());
  const Query first = Window(1'000, 2'000);
  ASSERT_TRUE(session.Execute(first).ok());
  ASSERT_TRUE(session.Execute(Window(2'000, 3'000)).ok());
  ASSERT_TRUE(session.Execute(first).ok());
  const CacheStats cache = session.cache_stats();
  const std::vector<std::string> predicted = session.PredictNextQueries(4);
  ASSERT_FALSE(predicted.empty());
  const uint64_t queries = session.stats().queries;
  const size_t journaled = SessionJournal(session.id()).size();

  // `first` is cached: a probe would count a hit, and a trajectory update
  // would add a first -> first transition to the predictions.
  ASSERT_TRUE(session.ExplainAnalyze(first).ok());

  EXPECT_EQ(SessionJournal(session.id()).size(), journaled + 1);
  EXPECT_EQ(session.stats().queries, queries + 1);
  EXPECT_EQ(session.cache_stats().hits, cache.hits);
  EXPECT_EQ(session.cache_stats().misses, cache.misses);
  EXPECT_EQ(session.cache_stats().evictions, cache.evictions);
  EXPECT_EQ(session.PredictNextQueries(4), predicted);
}

TEST(SessionPathTest, CacheHitTotalExcludesTheSpeculationItTriggers) {
  // ~1M unsorted values: every kScan window, including each speculated
  // neighbour, is a full scan, while a cached narrow window is a tiny gather.
  std::unique_ptr<Database> db = EventsDb(1 << 20);
  QueryResultCache cache(64);
  SessionOptions quiet;
  quiet.speculate = false;
  quiet.shared_cache = &cache;
  SessionOptions speculating;
  speculating.shared_cache = &cache;
  Session a(db.get(), quiet);
  Session b(db.get(), speculating);
  const Query window = Window(500'000, 500'100);
  ExecContext serial;  // scan times independent of the shared pool's load
  serial.SetThreadPool(nullptr);
  // The table's first scan also builds its lazy synopses (zone map,
  // compressed form); take that cost before the timed miss.
  ASSERT_TRUE(a.Execute(Window(0, 100), serial).ok());

  Result<QueryResult> miss = a.Execute(window, serial);
  ASSERT_TRUE(miss.ok());
  ASSERT_FALSE(miss.ValueOrDie().from_cache);
  Result<QueryResult> hit = b.Execute(window, serial);
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(hit.ValueOrDie().from_cache);
  ASSERT_EQ(b.stats().speculative_queries, 2u);  // both neighbours scanned

  // Counting the speculation would put two full scans (~2x the miss) into
  // the hit's total.
  const int64_t hit_ns = hit.ValueOrDie().stats().total_nanos;
  EXPECT_GT(hit_ns, 0);
  EXPECT_LT(hit_ns * 4, miss.ValueOrDie().stats().total_nanos);
}

TEST(SessionPathTest, SpeculatedNeighbourCachesAFreshSelectionsPositions) {
  // Speculation computes positions only, through the executor's own entry:
  // each neighbour's cache entry equals a fresh selection's positions, and
  // each speculative run counts as an executor query.
  std::unique_ptr<Database> db = EventsDb(64 * 1024);
  Counter* executed = Metrics().GetCounter("exploredb_queries_total");
  for (ExecutionMode mode : {ExecutionMode::kScan, ExecutionMode::kCracking,
                             ExecutionMode::kBudgeted}) {
    SCOPED_TRACE(ExecutionModeName(mode));
    QueryResultCache cache(64);
    SessionOptions options;
    options.shared_cache = &cache;
    Session session(db.get(), options);
    ExecContext ctx;
    ctx.SetMode(mode);
    if (mode == ExecutionMode::kBudgeted) {
      ctx.SetBudget({.latency = std::chrono::seconds(1)});
    }
    const uint64_t before = executed->Value();
    ASSERT_TRUE(session.Execute(Window(10'000, 12'000), ctx).ok());
    ASSERT_EQ(session.stats().speculative_queries, 2u);
    EXPECT_EQ(executed->Value() - before, 3u);

    Executor fresh(db.get());
    for (const Query& neighbour :
         {Window(12'000, 14'000), Window(8'000, 10'000)}) {
      std::optional<std::vector<uint32_t>> cached =
          cache.Get(neighbour.CacheKey());
      ASSERT_TRUE(cached.has_value());
      Result<QueryResult> want = fresh.Execute(neighbour);
      ASSERT_TRUE(want.ok());
      ASSERT_FALSE(want.ValueOrDie().positions.empty());
      EXPECT_EQ(*cached, want.ValueOrDie().positions);
    }
  }
}

TEST(SessionPathTest, ZeroMatchSampleReportsBoundedErrorAndKeepsCv) {
  // Even values in [0, 2 * kRows): the odd `v == kRows + 1` matches no row,
  // yet sits inside every zone's [min, max], so zone maps cannot prune it
  // and no sample holds a match.
  Table t(Schema({{"v", DataType::kInt64}}));
  Random rng(5);
  constexpr int64_t kRows = 256 * 1024;
  t.Reserve(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    t.mutable_column(0)->AppendInt64(2 * rng.UniformInt(0, kRows - 1));
  }
  Database db;
  ASSERT_TRUE(db.CreateTable("evens", std::move(t)).ok());
  SloMonitor::Global().ResetForTest();
  SessionOptions options;
  options.speculate = false;
  Session session(&db, options);
  // A 1 us budget fits no plan, so the planner answers from its minimum
  // sample.
  ExecContext ctx;
  ctx.SetBudget({.latency = std::chrono::microseconds(1)});
  const Query count =
      Query::On("evens")
          .Where(Predicate({{0, CompareOp::kEq, Value(kRows + 1)}}))
          .Aggregate(AggKind::kCount);

  std::vector<ExecStats> runs;
  for (int i = 0; i < 2; ++i) {
    Result<QueryResult> r = session.Execute(count, ctx);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const QueryResult& result = r.ValueOrDie();
    ASSERT_EQ(result.stats().planner_choice, PlannerChoice::kSample);
    ASSERT_TRUE(result.scalar.has_value());
    EXPECT_EQ(result.scalar->value, 0.0);
    EXPECT_GT(result.scalar->ci_half_width, 0.0);
    // A zero estimate is off by 100% from any nonzero truth.
    EXPECT_EQ(result.stats().achieved_error, 1.0);
    runs.push_back(result.stats());
  }
  // promised_error is the cost model's z * cv / sqrt(m) for the same m both
  // times: the zero estimate must not have moved the cv.
  EXPECT_GT(runs[0].promised_error, 0.0);
  EXPECT_EQ(runs[1].promised_error, runs[0].promised_error);

  const SloClassSnapshot slo = SloMonitor::Global().Snapshot().classes
      [static_cast<size_t>(QueryClass::kBudgeted)];
  EXPECT_EQ(slo.approximate, 2u);
  EXPECT_DOUBLE_EQ(slo.mean_achieved_error, 1.0);
}

TEST(SessionPathTest, DistinctConstantsNeverShareACacheEntry) {
  // "x" double, "s" string, "n" int64. Each pair's queries differ only in
  // what a key that prints constants loosely would drop: digits past the
  // sixth decimal, a string holding the key's separators, the type.
  constexpr int64_t kRows = 1000;
  Table t(Schema({{"x", DataType::kDouble},
                  {"s", DataType::kString},
                  {"n", DataType::kInt64}}));
  const char* strings[] = {"a", "a;2<5", "1"};
  for (int64_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(0.1234560 + static_cast<double>(i) * 1e-9),
                             Value(strings[i % 3]), Value(i % 10)})
                    .ok());
  }
  Database db;
  ASSERT_TRUE(db.CreateTable("t", std::move(t)).ok());
  auto where = [](std::vector<Condition> conjuncts) {
    return Query::On("t").Where(Predicate(std::move(conjuncts)));
  };
  const std::vector<std::pair<Query, Query>> pairs = {
      {where({{0, CompareOp::kLt, Value(0.1234561)}}),
       where({{0, CompareOp::kLt, Value(0.1234564)}})},
      {where({{1, CompareOp::kEq, Value("a;2<5")}}),
       where({{1, CompareOp::kEq, Value("a")},
              {2, CompareOp::kLt, Value(int64_t{5})}})},
      {where({{1, CompareOp::kEq, Value(int64_t{1})}}),
       where({{1, CompareOp::kEq, Value("1")}})},
  };
  Executor fresh(&db);
  for (size_t i = 0; i < pairs.size(); ++i) {
    SCOPED_TRACE("pair " + std::to_string(i));
    Session session(&db);
    ASSERT_TRUE(session.Execute(pairs[i].first).ok());
    Result<QueryResult> second = session.Execute(pairs[i].second);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    Result<QueryResult> want = fresh.Execute(pairs[i].second);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_FALSE(want.ValueOrDie().positions.empty());
    EXPECT_EQ(second.ValueOrDie().positions, want.ValueOrDie().positions);
  }
}

}  // namespace
}  // namespace exploredb
