// The session focus: the latest exact selection a grouped aggregate
// materialized, which later exact aggregates over the same filter refine
// instead of filtering the table. A differential test runs seeded random
// gestures through a Session and compares every answer with a fresh
// Executor::Execute of the same query and context: the focus replaces only
// the seed of the morsel kernels, so answers are bit-identical (double sums
// included) for every exact mode, thread count and morsel size. A model of
// the focus rules predicts which queries the focus serves. Further cases pin
// what never touches the focus, the size rule and the focus-bytes gauge.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "engine/query.h"
#include "engine/session.h"
#include "journal_records.h"
#include "obs/journal.h"

namespace exploredb {
namespace {

constexpr int64_t kRows = 30'000;
constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
const char* const kCodes[] = {"AA", "BB", "CC", "DD", "EE", "FF", "GG"};

enum Col : size_t { kTs, kA, kB, kX, kY, kS };

/// ts = row number (sorted, so zone maps prune it); a uniform in
/// [-1000, 1000] with INT64 extremes sprinkled in; b a small group key;
/// x uniform in [-1, 1) with exact +-0.0 and NaN rows; y a measure whose
/// values are not multiples of a power of two, so any change in summation
/// order changes the sums; s a 7-value string.
std::unique_ptr<Database> FocusDb() {
  Table t(Schema({{"ts", DataType::kInt64},
                  {"a", DataType::kInt64},
                  {"b", DataType::kInt64},
                  {"x", DataType::kDouble},
                  {"y", DataType::kDouble},
                  {"s", DataType::kString}}));
  Random rng(1901);
  t.Reserve(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    int64_t a = rng.UniformInt(-1000, 1000);
    if (i % 997 == 0) a = kMin;
    if (i % 991 == 0) a = kMax;
    double x = rng.NextDouble() * 2.0 - 1.0;
    if (i % 101 == 0) x = 0.0;
    if (i % 103 == 0) x = -0.0;
    if (i % 211 == 0) x = std::numeric_limits<double>::quiet_NaN();
    t.mutable_column(kTs)->AppendInt64(i);
    t.mutable_column(kA)->AppendInt64(a);
    t.mutable_column(kB)->AppendInt64(rng.UniformInt(0, 40));
    t.mutable_column(kX)->AppendDouble(x);
    t.mutable_column(kY)->AppendDouble((rng.NextDouble() * 2000.0 - 1000.0) /
                                       3.0);
    t.mutable_column(kS)->AppendString(kCodes[rng.Uniform(7)]);
  }
  auto db = std::make_unique<Database>();
  EXPECT_TRUE(db->CreateTable("t", std::move(t)).ok());
  return db;
}

/// Session options without speculation, so only the queries under test run.
SessionOptions Quiet() {
  SessionOptions options;
  options.speculate = false;
  return options;
}

CompareOp RandomOp(Random* rng) {
  constexpr CompareOp kOps[] = {CompareOp::kLt, CompareOp::kLe,
                                CompareOp::kGt, CompareOp::kGe,
                                CompareOp::kEq, CompareOp::kNe};
  return kOps[rng->Uniform(6)];
}

/// One random conjunct over ts, a, x or s, drawing constants from pools
/// that include INT64 extremes, +-0.0, +-inf and NaN.
Condition RandomConjunct(Random* rng) {
  switch (rng->Uniform(4)) {
    case 0:
      return {kTs, RandomOp(rng), Value(rng->UniformInt(-5, kRows + 5))};
    case 1: {
      const int64_t pool[] = {kMin, kMax, kMin + 1, kMax - 1, 0};
      const int64_t v = rng->Uniform(3) != 0 ? rng->UniformInt(-1100, 1100)
                                             : pool[rng->Uniform(5)];
      return {kA, RandomOp(rng), Value(v)};
    }
    case 2: {
      const double inf = std::numeric_limits<double>::infinity();
      const double pool[] = {0.0, -0.0, std::nan(""), inf, -inf};
      const double v = rng->Uniform(3) != 0 ? rng->NextDouble() * 2.4 - 1.2
                                            : pool[rng->Uniform(5)];
      return {kX, RandomOp(rng), Value(v)};
    }
    default: {
      const std::string v =
          rng->Uniform(8) == 0 ? "ZZ" : kCodes[rng->Uniform(7)];
      return {kS, rng->Uniform(2) == 0 ? CompareOp::kEq : CompareOp::kNe,
              Value(v)};
    }
  }
}

/// A gesture's filter: 1-3 random conjuncts, sometimes with an indexable
/// `lo <= a < hi` window in front.
std::vector<Condition> RandomFilter(Random* rng) {
  std::vector<Condition> w;
  if (rng->Uniform(3) == 0) {
    const int64_t lo = rng->UniformInt(-1000, 900);
    w.push_back({kA, CompareOp::kGe, Value(lo)});
    w.push_back({kA, CompareOp::kLt, Value(lo + rng->UniformInt(1, 600))});
  }
  const uint64_t extra = 1 + rng->Uniform(3);
  for (uint64_t i = 0; i < extra; ++i) w.push_back(RandomConjunct(rng));
  return w;
}

/// The filter as a linked view restates it: conjuncts shuffled, and a zero
/// constant written as 0.0 or -0.0 at random (both compare alike).
std::vector<Condition> Restate(std::vector<Condition> w, Random* rng) {
  for (Condition& c : w) {
    if (c.constant.is_double() && c.constant.dbl() == 0.0) {
      c.constant = Value(rng->Uniform(2) == 0 ? 0.0 : -0.0);
    }
  }
  rng->Shuffle(&w);
  return w;
}

bool SameConjunct(const Condition& a, const Condition& b) {
  return a.column == b.column && a.op == b.op && a.constant == b.constant;
}

bool Contains(const std::vector<Condition>& set, const Condition& c) {
  return std::any_of(set.begin(), set.end(),
                     [&](const Condition& s) { return SameConjunct(s, c); });
}

/// The test's own model of the session focus.
struct ModelFocus {
  bool held = false;
  std::vector<Condition> conjuncts;
  uint64_t size = 0;
};

Query Aggregate(std::vector<Condition> where, bool grouped, Random* rng) {
  Query q = Query::On("t").Where(Predicate(std::move(where)));
  switch (rng->Uniform(4)) {
    case 0:
      q.Aggregate(AggKind::kCount);
      break;
    case 1:
      q.Aggregate(AggKind::kSum, "y");
      break;
    case 2:
      q.Aggregate(AggKind::kAvg, "y");
      break;
    default:
      q.Aggregate(rng->Uniform(2) == 0 ? AggKind::kSum : AggKind::kAvg, "b");
      break;
  }
  if (grouped) q.GroupBy(rng->Uniform(2) == 0 ? "b" : "s");
  return q;
}

struct Counts {
  uint64_t queries = 0;
  uint64_t refined = 0;      ///< served from the focus with a residual
  uint64_t passthrough = 0;  ///< served from the focus as it is
  uint64_t empty_focus = 0;  ///< served from an empty focus
};

/// Runs `gestures` random gestures through one Session under `ctx` and
/// checks every answer against a fresh executor, and every access path
/// against the model.
void RunGestures(Database* db, const ExecContext& ctx, uint64_t seed,
                 int gestures, Counts* counts) {
  Session session(db, Quiet());
  Executor fresh(db);
  Random rng(seed);
  ModelFocus model;
  for (int g = 0; g < gestures; ++g) {
    std::vector<Condition> w = RandomFilter(&rng);
    // Gesture 0 filters out every row, so its focus is empty.
    if (g == 0) w = {{kA, CompareOp::kGt, Value(kMax)}};
    for (int v = 0; v < 7; ++v) {
      std::vector<Condition> where = Restate(w, &rng);
      if (v > 0 && rng.Uniform(2) == 0) {
        const uint64_t extra = 1 + rng.Uniform(2);
        for (uint64_t i = 0; i < extra; ++i) {
          where.push_back(RandomConjunct(&rng));
        }
      }
      const bool grouped = v == 0 || rng.Uniform(3) == 0;
      const Query q = Aggregate(where, grouped, &rng);
      SCOPED_TRACE("seed " + std::to_string(seed) + " gesture " +
                   std::to_string(g) + " view " + std::to_string(v) + ": " +
                   q.CacheKey());

      const bool covered =
          model.held &&
          std::all_of(model.conjuncts.begin(), model.conjuncts.end(),
                      [&](const Condition& f) { return Contains(where, f); });
      const bool no_residual =
          std::all_of(where.begin(), where.end(), [&](const Condition& c) {
            return Contains(model.conjuncts, c);
          });
      const uint64_t focus_size = model.size;

      Result<QueryResult> got = session.Execute(q, ctx);
      Result<QueryResult> want = fresh.Execute(q, ctx);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      const QueryResult& r = got.ValueOrDie();
      const QueryResult& f = want.ValueOrDie();
      EXPECT_EQ(QueryResultFingerprint(r), QueryResultFingerprint(f));
      EXPECT_TRUE(r.positions.empty());
      EXPECT_FALSE(r.from_cache);
      EXPECT_FALSE(r.approximate);
      ++counts->queries;

      // The model: the focus seeds exact scan plans it covers when it is no
      // larger than the pruned scan (a fresh scan's rows_scanned); a focus
      // with no conjunct left to apply always fits.
      const bool scan_plan = f.exec_stats.path == AccessPath::kScan;
      const bool seeded =
          covered && scan_plan &&
          (no_residual || focus_size <= f.exec_stats.rows_scanned);
      EXPECT_EQ(AccessPathName(r.exec_stats.path),
                std::string(AccessPathName(seeded ? AccessPath::kFocus
                                                  : f.exec_stats.path)));
      EXPECT_EQ(r.exec_stats.planner_choice, f.exec_stats.planner_choice);
      if (seeded) {
        ++(no_residual ? counts->passthrough : counts->refined);
        if (focus_size == 0) ++counts->empty_focus;
      }

      if (!covered) model.held = false;
      if (grouped && scan_plan && !(seeded && no_residual)) {
        model.held = true;
        model.conjuncts = where;
        model.size = 0;
        for (const GroupValue& gv : f.groups) {
          model.size += gv.value.sample_size;
        }
      }
    }
  }
}

/// Every pool (1, 2 and 8 threads) and morsel size (64K, 1000, 7) under one
/// requested mode.
Counts RunMode(ExecutionMode mode) {
  std::unique_ptr<Database> db = FocusDb();
  Counts counts;
  uint64_t seed = 7000 + static_cast<uint64_t>(mode) * 100;
  for (size_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    for (size_t morsel : {ExecContext::kDefaultMorselSize, size_t{1000},
                          size_t{7}}) {
      ExecContext ctx;
      ctx.SetMode(mode).SetThreadPool(&pool).SetMorselSize(morsel);
      if (mode == ExecutionMode::kBudgeted) {
        // A budget every exact plan meets, so both sides answer exactly.
        ctx.SetBudget({std::chrono::seconds(30), 0.01, 0.95});
      }
      RunGestures(db.get(), ctx, seed++, 8, &counts);
    }
  }
  EXPECT_GT(counts.refined, 0u);
  EXPECT_GT(counts.passthrough, 0u);
  EXPECT_GT(counts.empty_focus, 0u);
  return counts;
}

TEST(SessionFocusTest, ScanMatchesFreshExecution) {
  RunMode(ExecutionMode::kScan);
}

TEST(SessionFocusTest, CrackingMatchesFreshExecution) {
  // RandomFilter puts an indexable window in front of a third of the
  // gestures: those run the cracker and leave the focus alone.
  RunMode(ExecutionMode::kCracking);
}

TEST(SessionFocusTest, FullIndexMatchesFreshExecution) {
  RunMode(ExecutionMode::kFullIndex);
}

TEST(SessionFocusTest, AutoMatchesFreshExecution) {
  RunMode(ExecutionMode::kAuto);
}

TEST(SessionFocusTest, BudgetedMatchesFreshExecution) {
  RunMode(ExecutionMode::kBudgeted);
}

Query Grouped(std::vector<Condition> where) {
  return Query::On("t")
      .Where(Predicate(std::move(where)))
      .Aggregate(AggKind::kCount)
      .GroupBy("s");
}

Query Summed(std::vector<Condition> where) {
  return Query::On("t")
      .Where(Predicate(std::move(where)))
      .Aggregate(AggKind::kSum, "y");
}

const std::vector<Condition> kWide = {{kX, CompareOp::kGt, Value(-0.5)}};

TEST(SessionFocusTest, ApproximateModesSelectionsAndExplainLeaveTheFocus) {
  std::unique_ptr<Database> db = FocusDb();
  Session session(db.get(), Quiet());
  ScopedMemoryJournal journal;
  ExecContext scan;
  ASSERT_TRUE(session.Execute(Grouped(kWide), scan).ok());

  ExecContext sampled;
  sampled.SetMode(ExecutionMode::kSampled);
  sampled.options().sample_fraction = 0.1;
  ExecContext online;
  online.SetMode(ExecutionMode::kOnline);
  EXPECT_EQ(session.Execute(Summed(kWide), sampled).ValueOrDie().stats().path,
            AccessPath::kSample);
  EXPECT_EQ(session.Execute(Summed(kWide), online).ValueOrDie().stats().path,
            AccessPath::kOnline);
  Query selection = Query::On("t").Where(Predicate(kWide));
  EXPECT_EQ(session.Execute(selection, scan).ValueOrDie().stats().path,
            AccessPath::kScan);
  Result<std::string> explain = session.ExplainAnalyze(Summed(kWide), scan);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain.ValueOrDie().find("path=scan"), std::string::npos);
  // A budgeted grouped query the focus covers, whose exact plan (a refine
  // of ~22K focus rows at the seeded 1 ns/row) does not fit 10 us: the
  // sample rung answers it from the table's rows.
  std::vector<Condition> narrower = kWide;
  narrower.push_back({kS, CompareOp::kNe, Value("ZZ")});
  ExecContext budgeted;
  budgeted.SetBudget({.latency = std::chrono::microseconds(10)});
  QueryResult rung = session.Execute(Grouped(narrower), budgeted).ValueOrDie();
  EXPECT_EQ(rung.stats().planner_choice, PlannerChoice::kSample);
  EXPECT_EQ(rung.stats().path, AccessPath::kSample);
  EXPECT_TRUE(rung.approximate);

  // None of them released the focus: an exact aggregate still refines it,
  // and says so in its Summary and its journal record.
  QueryResult served = session.Execute(Summed(kWide), scan).ValueOrDie();
  EXPECT_EQ(served.stats().path, AccessPath::kFocus);
  EXPECT_EQ(served.stats().rows_scanned, 0u);
  EXPECT_NE(served.stats().Summary().find("path=focus"), std::string::npos);
  std::vector<JournalRecord> records = SessionJournal(session.id());
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.back().stats.path, AccessPath::kFocus);
}

TEST(SessionFocusTest, FocusLargerThanThePrunedScanIsNotUsed) {
  // The focus holds ~3/4 of the table; the extra ts conjunct prunes all but
  // the first zone's morsels, so a fresh scan touches fewer rows than the
  // focus has.
  std::unique_ptr<Database> db = FocusDb();
  Session session(db.get(), Quiet());
  Executor fresh(db.get());
  ExecContext scan;
  scan.SetMorselSize(1000);
  ASSERT_TRUE(session.Execute(Grouped(kWide), scan).ok());
  std::vector<Condition> narrow = kWide;
  narrow.push_back({kTs, CompareOp::kLt, Value(int64_t{100})});
  QueryResult got = session.Execute(Summed(narrow), scan).ValueOrDie();
  QueryResult want = fresh.Execute(Summed(narrow), scan).ValueOrDie();
  EXPECT_EQ(got.stats().path, AccessPath::kScan);
  EXPECT_EQ(QueryResultFingerprint(got), QueryResultFingerprint(want));
  // ...but it is still the focus, so a covered query the size rule admits
  // refines it.
  std::vector<Condition> coded = kWide;
  coded.push_back({kS, CompareOp::kEq, Value("CC")});
  EXPECT_EQ(session.Execute(Summed(coded), scan).ValueOrDie().stats().path,
            AccessPath::kFocus);
}

TEST(SessionFocusTest, GaugeCountsTheBytesOfEveryFocus) {
  std::unique_ptr<Database> db = FocusDb();
  Gauge* gauge = Metrics().GetGauge("exploredb_session_focus_bytes");
  const int64_t base = gauge->Value();
  ExecContext scan;
  {
    Session session(db.get(), Quiet());
    QueryResult grouped = session.Execute(Grouped(kWide), scan).ValueOrDie();
    uint64_t rows = 0;
    for (const GroupValue& g : grouped.groups) rows += g.value.sample_size;
    ASSERT_GT(rows, 0u);
    EXPECT_EQ(gauge->Value() - base,
              static_cast<int64_t>(rows * sizeof(uint32_t)));

    // An exact aggregate the focus does not cover releases it first.
    ASSERT_TRUE(
        session.Execute(Summed({{kX, CompareOp::kLt, Value(0.25)}}), scan)
            .ok());
    EXPECT_EQ(gauge->Value(), base);

    // A destroyed session returns its bytes.
    ASSERT_TRUE(session.Execute(Grouped(kWide), scan).ok());
    EXPECT_EQ(gauge->Value() - base,
              static_cast<int64_t>(rows * sizeof(uint32_t)));
  }
  EXPECT_EQ(gauge->Value(), base);
}

}  // namespace
}  // namespace exploredb
