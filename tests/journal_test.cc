// Workload-journal tests: JSONL round-trip fidelity, multi-threaded capture
// (exact counts, per-session ordering, think-time bookkeeping), ring-wrap
// backpressure with a paused writer, SLO monitor windows and breach events,
// and the zero-allocation guarantee of the disabled emission path.

#include <gtest/gtest.h>

#include <atomic>
#include <cfloat>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "engine/database.h"
#include "engine/query.h"
#include "engine/session.h"
#include "obs/journal.h"
#include "obs/slo.h"

// ---- allocation counting ---------------------------------------------------
// Same discipline as trace_test: replace the global allocator so the
// disabled-journal path can be asserted allocation-free.

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace exploredb {
namespace {

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "exploredb_" + name;
}

void BuildEventsDatabase(int64_t rows, uint64_t seed, Database* db) {
  Schema schema({{"ts", DataType::kInt64},
                 {"user_id", DataType::kInt64},
                 {"latency_ms", DataType::kDouble}});
  Table events(schema);
  Random rng(seed);
  events.Reserve(rows);
  for (int64_t i = 0; i < rows; ++i) {
    events.mutable_column(0)->AppendInt64(i);
    events.mutable_column(1)->AppendInt64(rng.UniformInt(0, 9'999));
    events.mutable_column(2)->AppendDouble(rng.NextDouble() * 100.0);
  }
  CHECK_OK(db->CreateTable("events", std::move(events)));
}

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override { WorkloadJournal::Global().Disable(); }
  void TearDown() override { WorkloadJournal::Global().Disable(); }
};

TEST_F(JournalTest, JsonLineRoundTripsEveryField) {
  JournalRecord r;
  r.session_id = 7;
  r.session_seq = 42;
  r.global_seq = 1234;
  r.wall_time_us = 1700000000123456;
  r.think_ns = 2'500'000;
  // Constants at every edge the writer must keep: non-finite, signed zero,
  // subnormal, extreme and non-terminating doubles, the int64 extremes, and
  // a string holding every control byte, the escapes, DEL and UTF-8.
  const double inf = std::numeric_limits<double>::infinity();
  std::string bytes;
  for (char c = 1; c < 0x20; ++c) bytes += c;
  bytes += "\"\\\x7f\xc3\xa9\xe2\x82\xac";
  std::vector<Condition> where = {
      {0, CompareOp::kGe, Value(int64_t{10'000})},
      {2, CompareOp::kLt, Value(2.5)},
      {1, CompareOp::kEq, Value(std::string("a\"b\\c\nd"))}};
  for (double d : {inf, -inf, std::numeric_limits<double>::quiet_NaN(), -0.0,
                   5e-324, DBL_MAX, 0.1}) {
    where.push_back({2, CompareOp::kNe, Value(d)});
  }
  where.push_back(
      {0, CompareOp::kGe, Value(std::numeric_limits<int64_t>::min())});
  where.push_back(
      {0, CompareOp::kLe, Value(std::numeric_limits<int64_t>::max())});
  where.push_back({1, CompareOp::kEq, Value(bytes)});
  r.query = Query::On("events")
                .Where(Predicate(where))
                .Select({"ts", "latency_ms"})
                .Aggregate(AggKind::kSum, "latency_ms")
                .GroupBy("user_id");
  r.query_text = "events|0>=10000;...";
  r.requested_mode = ExecutionMode::kBudgeted;
  r.resolved_mode = ExecutionMode::kSampled;
  r.from_cache = false;
  r.approximate = true;
  r.budget_ns = 50'000'000;
  r.target_error = 0.05;
  r.sample_fraction = 0.02;
  r.error_budget = 0.3;
  r.confidence = 0.9;
  r.stats.rows_scanned = 123456;
  r.stats.morsels_dispatched = 16;
  r.stats.morsels_pruned = 3;
  r.stats.compressed_morsels = 5;
  r.stats.threads_used = 4;
  r.stats.path = AccessPath::kSample;
  r.stats.resolved_mode = ExecutionMode::kSampled;
  r.stats.planner_choice = PlannerChoice::kSample;
  r.stats.plans_considered = 3;
  r.stats.promised_error = 0.04;
  r.stats.achieved_error = inf;
  r.stats.simd_path = simd::SimdPath::kAvx2;
  r.stats.plan_nanos = 1111;
  r.stats.select_nanos = 2222;
  r.stats.aggregate_nanos = 3333;
  r.stats.project_nanos = 4444;
  r.stats.decompress_nanos = 5555;
  r.stats.total_nanos = 16665;
  r.stats.predicted_nanos = 7777;
  r.result_fingerprint = 0xdeadbeefcafef00dULL;
  r.result_rows = 99;
  r.scalar = 3.25;

  const std::string line = WorkloadJournal::ToJsonLine(r);
  auto parsed = WorkloadJournal::FromJsonLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JournalRecord& p = parsed.ValueOrDie();

  EXPECT_EQ(p.session_id, r.session_id);
  EXPECT_EQ(p.session_seq, r.session_seq);
  EXPECT_EQ(p.global_seq, r.global_seq);
  EXPECT_EQ(p.wall_time_us, r.wall_time_us);
  EXPECT_EQ(p.think_ns, r.think_ns);

  EXPECT_EQ(p.query.table(), "events");
  ASSERT_EQ(p.query.where().conjuncts().size(), where.size());
  for (size_t i = 0; i < where.size(); ++i) {
    SCOPED_TRACE("conjunct " + std::to_string(i));
    const Condition& got = p.query.where().conjuncts()[i];
    EXPECT_EQ(got.column, where[i].column);
    EXPECT_EQ(got.op, where[i].op);
    ASSERT_EQ(got.constant.type(), where[i].constant.type());
    if (got.constant.is_double()) {
      EXPECT_EQ(Bits(got.constant.dbl()), Bits(where[i].constant.dbl()));
    } else {
      EXPECT_EQ(got.constant, where[i].constant);
    }
  }

  ASSERT_EQ(p.query.select().size(), 2u);
  EXPECT_EQ(p.query.select()[1], "latency_ms");
  ASSERT_TRUE(p.query.aggregate().has_value());
  EXPECT_EQ(p.query.aggregate()->kind, AggKind::kSum);
  EXPECT_EQ(p.query.aggregate()->column, "latency_ms");
  ASSERT_TRUE(p.query.group_by().has_value());
  EXPECT_EQ(*p.query.group_by(), "user_id");
  EXPECT_EQ(p.query_text, r.query_text);

  EXPECT_EQ(p.requested_mode, ExecutionMode::kBudgeted);
  EXPECT_EQ(p.resolved_mode, ExecutionMode::kSampled);
  EXPECT_EQ(p.from_cache, false);
  EXPECT_EQ(p.approximate, true);
  EXPECT_EQ(p.budget_ns, r.budget_ns);
  EXPECT_DOUBLE_EQ(p.target_error, r.target_error);
  EXPECT_DOUBLE_EQ(p.sample_fraction, r.sample_fraction);
  EXPECT_DOUBLE_EQ(p.error_budget, r.error_budget);
  EXPECT_DOUBLE_EQ(p.confidence, r.confidence);

  EXPECT_EQ(p.stats.rows_scanned, r.stats.rows_scanned);
  EXPECT_EQ(p.stats.morsels_dispatched, r.stats.morsels_dispatched);
  EXPECT_EQ(p.stats.morsels_pruned, r.stats.morsels_pruned);
  EXPECT_EQ(p.stats.compressed_morsels, r.stats.compressed_morsels);
  EXPECT_EQ(p.stats.threads_used, r.stats.threads_used);
  EXPECT_EQ(p.stats.path, AccessPath::kSample);
  EXPECT_EQ(p.stats.planner_choice, PlannerChoice::kSample);
  EXPECT_EQ(p.stats.plans_considered, r.stats.plans_considered);
  EXPECT_DOUBLE_EQ(p.stats.promised_error, r.stats.promised_error);
  EXPECT_EQ(p.stats.achieved_error, inf);
  EXPECT_EQ(p.stats.simd_path, simd::SimdPath::kAvx2);
  EXPECT_EQ(p.stats.plan_nanos, r.stats.plan_nanos);
  EXPECT_EQ(p.stats.select_nanos, r.stats.select_nanos);
  EXPECT_EQ(p.stats.aggregate_nanos, r.stats.aggregate_nanos);
  EXPECT_EQ(p.stats.project_nanos, r.stats.project_nanos);
  EXPECT_EQ(p.stats.decompress_nanos, r.stats.decompress_nanos);
  EXPECT_EQ(p.stats.total_nanos, r.stats.total_nanos);
  EXPECT_EQ(p.stats.predicted_nanos, r.stats.predicted_nanos);

  EXPECT_EQ(p.result_fingerprint, r.result_fingerprint);
  EXPECT_EQ(p.result_rows, r.result_rows);
  ASSERT_TRUE(p.scalar.has_value());
  EXPECT_DOUBLE_EQ(*p.scalar, 3.25);
  // Every field read back exactly writes the same line again.
  EXPECT_EQ(WorkloadJournal::ToJsonLine(p), line);
}

// A line nested far deeper than any journal record is an error, not a
// recursion off the end of the stack: given directly and inside a file.
TEST_F(JournalTest, DeeplyNestedLineIsRejected) {
  const std::string line = "{\"type\":\"q\",\"where\":" +
                           std::string(100'000, '[') +
                           std::string(100'000, ']') + "}";
  EXPECT_EQ(WorkloadJournal::FromJsonLine(line).status().code(),
            StatusCode::kInvalidArgument);

  const std::string path = TempPath("journal_nested.jsonl");
  {
    std::ofstream out(path);
    out << WorkloadJournal::HeaderJsonLine({"events", 100, 1}) << "\n"
        << line << "\n";
  }
  auto file = WorkloadJournal::ReadFile(path);
  EXPECT_EQ(file.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(file.status().message().find("journal line 2"), std::string::npos)
      << file.status().ToString();
  std::remove(path.c_str());
}

// Unsigned 64-bit fields above INT64_MAX (a perfectly valid --seed) must
// survive the round trip: a strtoll-based parse would saturate and silently
// change the seed, so replay would regenerate a different dataset.
TEST_F(JournalTest, Uint64FieldsAboveInt64MaxRoundTrip) {
  JournalHeader header;
  header.dataset = "events";
  header.rows = 100;
  header.seed = 0x8000'0000'0000'002aULL;  // 2^63 + 42

  const std::string path = TempPath("journal_uint64.jsonl");
  ASSERT_TRUE(WorkloadJournal::Global().EnableFile(path, header).ok());
  WorkloadJournal::Global().Disable();

  auto journal = WorkloadJournal::ReadFile(path);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ASSERT_TRUE(journal.ValueOrDie().header.has_value());
  EXPECT_EQ(journal.ValueOrDie().header->seed, header.seed);

  JournalRecord r;
  r.session_id = 0xffff'ffff'ffff'fff0ULL;
  r.session_seq = 0x8000'0000'0000'0001ULL;
  r.global_seq = 0x9000'0000'0000'0000ULL;
  r.result_rows = 0xa000'0000'0000'0000ULL;
  r.query = Query::On("events").Select({"ts"});
  auto parsed = WorkloadJournal::FromJsonLine(WorkloadJournal::ToJsonLine(r));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.ValueOrDie().session_id, r.session_id);
  EXPECT_EQ(parsed.ValueOrDie().session_seq, r.session_seq);
  EXPECT_EQ(parsed.ValueOrDie().global_seq, r.global_seq);
  EXPECT_EQ(parsed.ValueOrDie().result_rows, r.result_rows);
}

TEST_F(JournalTest, CapturesEveryQueryFromEightThreads) {
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 40;
  const std::string path = TempPath("journal_mt.jsonl");

  JournalHeader header;
  header.dataset = "events";
  header.rows = 4'000;
  header.seed = 11;
  ASSERT_TRUE(
      WorkloadJournal::Global().EnableFile(path, header).ok());

  // Each thread owns its Database + Session: cracking mutates table state,
  // and the journal contract is per-session ordering, not cross-session.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      Database db;
      BuildEventsDatabase(4'000, 11, &db);
      Session session(&db);
      const Schema& schema = db.GetTable("events").ValueOrDie()->schema();
      ExecContext cracking;
      cracking.options().mode = ExecutionMode::kCracking;
      for (int q = 0; q < kQueriesPerThread; ++q) {
        const int64_t lo = (q * 137 + t * 61) % 9'000;
        auto query = Query::From("events")
                         .WhereBetween("user_id", lo, lo + 500)
                         .Build(schema);
        CHECK_OK(session.Execute(query.ValueOrDie(), cracking));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  WorkloadJournal::Global().Disable();

  auto journal = WorkloadJournal::ReadFile(path);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  const JournalFile& file = journal.ValueOrDie();
  ASSERT_TRUE(file.header.has_value());
  EXPECT_EQ(file.header->dataset, "events");
  EXPECT_EQ(file.header->rows, 4'000);
  ASSERT_EQ(file.records.size(),
            static_cast<size_t>(kThreads * kQueriesPerThread));

  // Per session: session_seq is contiguous from 0, think time is -1 on the
  // first query and non-negative after, wall time never goes backwards.
  std::map<uint64_t, std::vector<const JournalRecord*>> by_session;
  for (const JournalRecord& r : file.records) {
    by_session[r.session_id].push_back(&r);
  }
  ASSERT_EQ(by_session.size(), static_cast<size_t>(kThreads));
  for (auto& [sid, records] : by_session) {
    std::sort(records.begin(), records.end(),
              [](const JournalRecord* a, const JournalRecord* b) {
                return a->session_seq < b->session_seq;
              });
    ASSERT_EQ(records.size(), static_cast<size_t>(kQueriesPerThread));
    for (size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i]->session_seq, i);
      if (i == 0) {
        EXPECT_EQ(records[i]->think_ns, -1);
      } else {
        EXPECT_GE(records[i]->think_ns, 0);
        EXPECT_GE(records[i]->wall_time_us, records[i - 1]->wall_time_us);
      }
      EXPECT_NE(records[i]->result_fingerprint, 0u);
    }
  }
}

TEST_F(JournalTest, FullRingDropsNewestWithoutBlocking) {
  const std::string path = TempPath("journal_wrap.jsonl");
  ASSERT_TRUE(WorkloadJournal::Global().EnableFile(path).ok());
  WorkloadJournal& journal = WorkloadJournal::Global();
  journal.SetWriterPausedForTest(true);

  const uint64_t appended_before = journal.appended();
  const uint64_t dropped_before = journal.dropped();
  JournalRecord r;
  r.query = Query::On("events");
  for (size_t i = 0; i < 2 * WorkloadJournal::kRingCapacity; ++i) {
    r.session_seq = i;
    journal.Append(r);
  }
  EXPECT_EQ(journal.appended() - appended_before,
            WorkloadJournal::kRingCapacity);
  EXPECT_EQ(journal.dropped() - dropped_before,
            WorkloadJournal::kRingCapacity);

  journal.SetWriterPausedForTest(false);
  journal.Flush();
  journal.Disable();

  auto parsed = WorkloadJournal::ReadFile(path);
  ASSERT_TRUE(parsed.ok());
  // Drop-newest: exactly the first kRingCapacity records survived.
  ASSERT_EQ(parsed.ValueOrDie().records.size(),
            WorkloadJournal::kRingCapacity);
  EXPECT_EQ(parsed.ValueOrDie().records.front().session_seq, 0u);
  EXPECT_EQ(parsed.ValueOrDie().records.back().session_seq,
            WorkloadJournal::kRingCapacity - 1);
}

TEST_F(JournalTest, ThinkTimeReflectsIdleGap) {
  const std::string path = TempPath("journal_think.jsonl");
  ASSERT_TRUE(WorkloadJournal::Global().EnableFile(path).ok());

  Database db;
  BuildEventsDatabase(2'000, 3, &db);
  Session session(&db);
  const Schema& schema = db.GetTable("events").ValueOrDie()->schema();
  auto q1 = Query::From("events")
                .WhereBetween("user_id", int64_t{0}, int64_t{100})
                .Build(schema);
  auto q2 = Query::From("events")
                .WhereBetween("user_id", int64_t{100}, int64_t{200})
                .Build(schema);
  CHECK_OK(session.Execute(q1.ValueOrDie()));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  CHECK_OK(session.Execute(q2.ValueOrDie()));
  WorkloadJournal::Global().Disable();

  auto journal = WorkloadJournal::ReadFile(path);
  ASSERT_TRUE(journal.ok());
  ASSERT_EQ(journal.ValueOrDie().records.size(), 2u);
  EXPECT_EQ(journal.ValueOrDie().records[0].think_ns, -1);
  // The 20ms pause dominates any scheduling noise.
  EXPECT_GE(journal.ValueOrDie().records[1].think_ns, 10'000'000);
}

TEST_F(JournalTest, MemoryTailServesRecentLines) {
  WorkloadJournal::Global().EnableMemory();
  Database db;
  BuildEventsDatabase(2'000, 5, &db);
  Session session(&db);
  const Schema& schema = db.GetTable("events").ValueOrDie()->schema();
  auto q = Query::From("events")
               .WhereBetween("user_id", int64_t{0}, int64_t{500})
               .Build(schema);
  CHECK_OK(session.Execute(q.ValueOrDie()));
  WorkloadJournal::Global().Flush();

  const std::vector<std::string> tail = WorkloadJournal::Global().Tail();
  ASSERT_FALSE(tail.empty());
  auto parsed = WorkloadJournal::FromJsonLine(tail.back());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.ValueOrDie().query.table(), "events");
  WorkloadJournal::Global().Disable();
}

TEST_F(JournalTest, SloBreachWritesEventLine) {
  const std::string path = TempPath("journal_breach.jsonl");
  ASSERT_TRUE(WorkloadJournal::Global().EnableFile(path).ok());
  // A one-second "query" against a 1ms budget is an unambiguous breach.
  SloMonitor::Global().Observe(QueryClass::kInteractive, 1'000'000'000,
                               1'000'000, false, 0.0);
  WorkloadJournal::Global().Flush();
  WorkloadJournal::Global().Disable();

  std::string contents;
  {
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      contents.append(buf, n);
    }
    std::fclose(f);
  }
  EXPECT_NE(contents.find("\"type\":\"slo_breach\""), std::string::npos);
  EXPECT_NE(contents.find("\"class\":\"interactive\""), std::string::npos);
}

TEST_F(JournalTest, DisabledEmissionPathDoesNotAllocate) {
  ASSERT_FALSE(WorkloadJournal::enabled());

  Database db;
  BuildEventsDatabase(1'000, 7, &db);
  const Schema& schema = db.GetTable("events").ValueOrDie()->schema();
  Query query = Query::From("events")
                    .WhereBetween("user_id", int64_t{0}, int64_t{100})
                    .Build(schema)
                    .ValueOrDie();
  QueryResult result;
  result.exec_stats.total_nanos = 1'000'000;

  JournalQueryInfo info;
  info.session_id = 1;
  info.query = &query;
  info.result = &result;

  // Warm up every function-local static (SLO monitor, metric resolution,
  // slot recycling) before counting.
  JournalQueryExecution(info);
  SloMonitor::Global().Observe(QueryClass::kInteractive, 1'000'000, 0, false,
                               0.0);

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    JournalQueryExecution(info);
    SloMonitor::Global().Observe(QueryClass::kInteractive, 1'000'000, 0,
                                 false, 0.0);
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
}

TEST_F(JournalTest, SloSnapshotTracksWithinBudgetFraction) {
  SloMonitor::Global().ResetForTest();
  // 9 fast interactive queries + 1 slow one: 90% within a 100ms budget.
  for (int i = 0; i < 9; ++i) {
    SloMonitor::Global().Observe(QueryClass::kInteractive, 5'000'000, 0,
                                 false, 0.0);
  }
  SloMonitor::Global().Observe(QueryClass::kInteractive, 500'000'000, 0,
                               false, 0.0);
  const SloSnapshot snap = SloMonitor::Global().Snapshot(30);
  const SloClassSnapshot& c =
      snap.classes[static_cast<size_t>(QueryClass::kInteractive)];
  EXPECT_EQ(c.total, 10u);
  EXPECT_EQ(c.within, 9u);
  EXPECT_NEAR(c.within_fraction, 0.9, 1e-9);
  // 10% misses against a 1% allowance: burning 10x.
  EXPECT_NEAR(c.burn_rate, 10.0, 1e-6);
  EXPECT_GT(c.p99_latency_ns, c.p95_latency_ns);

  const std::string json = SloMonitor::Global().JsonReport(30);
  EXPECT_NE(json.find("\"interactive\""), std::string::npos);
  EXPECT_NE(json.find("\"within_fraction\":0.9"), std::string::npos);
  SloMonitor::Global().ResetForTest();
}

}  // namespace
}  // namespace exploredb
