// Failure injection and adversarial-input tests across module boundaries:
// malformed files, empty/degenerate data, extreme values, and cache
// consistency properties.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "common/random.h"
#include "cracking/cracker_column.h"
#include "engine/session.h"
#include "engine/steering.h"
#include "loading/raw_table.h"
#include "sampling/online_agg.h"
#include "storage/csv.h"

namespace exploredb {
namespace {

// ---------------------------------------------------------------- CSV fuzz

class CsvRobustness : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  Result<Table> ParseContent(const std::string& content) {
    {
      std::ofstream out(path_);
      out << content;
    }
    Schema schema({{"a", DataType::kInt64}, {"b", DataType::kDouble}});
    CsvOptions options;
    options.has_header = false;
    return ReadCsv(path_, schema, options);
  }

  // Unique per test: ctest -j runs each case as its own process, and a
  // shared path lets one case's TearDown unlink the file mid-read.
  std::string path_ =
      ::testing::TempDir() + "/exploredb_robustness_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".csv";
};

TEST_F(CsvRobustness, MalformedInputsFailCleanly) {
  // Every case must produce a ParseError, never a crash or silent accept.
  const char* bad_inputs[] = {
      "1,2.0\nx,3.0\n",        // non-numeric int cell
      "1,2.0\n2,\n",           // empty double cell
      "1,2.0\n3\n",            // missing field
      "1,2.0\n4,5.0,6.0\n",    // extra field
      "1,2.0\n5,2.0.0\n",      // double-dot
      "1,2.0\n0x10,1.0\n",     // hex not accepted
      "NaN_but_not,1.0\n",     // garbage int
      ",,\n",                  // all empty with wrong arity
  };
  for (const char* input : bad_inputs) {
    auto r = ParseContent(input);
    EXPECT_FALSE(r.ok()) << "accepted: " << input;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << input;
  }
}

TEST_F(CsvRobustness, AcceptableOddInputsParse) {
  auto r = ParseContent("  1 , 2.0 \n-9223372036854775808,1e-300\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().num_rows(), 2u);
  EXPECT_EQ(r.ValueOrDie().GetValue(1, 0).int64(),
            std::numeric_limits<int64_t>::min());
}

TEST_F(CsvRobustness, EmptyFileYieldsEmptyTable) {
  auto r = ParseContent("");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().num_rows(), 0u);
}

TEST_F(CsvRobustness, RawTableSurvivesMalformedLateColumns) {
  {
    std::ofstream out(path_);
    out << "1,notanumber\n2,also_bad\n";
  }
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kDouble}});
  CsvOptions options;
  options.has_header = false;
  auto raw = RawTable::Open(path_, schema, options);
  ASSERT_TRUE(raw.ok());
  RawTable table = std::move(raw).ValueOrDie();
  EXPECT_TRUE(table.GetColumn(0).ok());               // good column loads
  auto bad = table.GetColumn(1);
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError);
  // The failure is sticky-free: the good column remains usable.
  EXPECT_TRUE(table.GetColumn(0).ok());
}

// ------------------------------------------------------------- degenerate

TEST(DegenerateDataTest, CrackingExtremeValues) {
  std::vector<int64_t> v{std::numeric_limits<int64_t>::min(), -1, 0, 1,
                         std::numeric_limits<int64_t>::max()};
  CrackerColumn col(v);
  EXPECT_EQ(col.RangeSelect(-1, 2).count(), 3u);  // -1, 0, 1
  EXPECT_EQ(col.RangeSelect(std::numeric_limits<int64_t>::min(), 0).count(),
            2u);
  // Querying a range with hi = max covers everything below max.
  EXPECT_EQ(
      col.RangeSelect(std::numeric_limits<int64_t>::min(),
                      std::numeric_limits<int64_t>::max())
          .count(),
      4u);
}

TEST(DegenerateDataTest, SingleElementColumn) {
  CrackerColumn col({7});
  EXPECT_EQ(col.RangeSelect(7, 8).count(), 1u);
  EXPECT_EQ(col.RangeSelect(8, 9).count(), 0u);
  EXPECT_EQ(col.RangeSelect(0, 7).count(), 0u);
}

TEST(DegenerateDataTest, OnlineAggregatorEmptyInput) {
  OnlineAggregator agg({}, {}, AggKind::kAvg);
  EXPECT_TRUE(agg.done());
  EXPECT_EQ(agg.ProcessNext(10), 0u);
  Estimate e = agg.Current();
  EXPECT_EQ(e.sample_size, 0u);
}

TEST(DegenerateDataTest, OnlineAggregatorAllMaskedOut) {
  OnlineAggregator agg({1, 2, 3}, {false, false, false}, AggKind::kAvg);
  while (!agg.done()) agg.ProcessNext(2);
  Estimate e = agg.Current();
  EXPECT_DOUBLE_EQ(e.value, 0.0);  // no matches: mean of nothing
  OnlineAggregator count({1, 2, 3}, {false, false, false}, AggKind::kCount);
  while (!count.done()) count.ProcessNext(2);
  EXPECT_DOUBLE_EQ(count.Current().value, 0.0);
}

TEST(DegenerateDataTest, EngineOnEmptyTable) {
  Database db;
  Schema schema({{"a", DataType::kInt64}});
  ASSERT_TRUE(db.CreateTable("empty", Table(schema)).ok());
  Executor exec(&db);
  auto sel = exec.Execute(
      Query::On("empty").Where(Predicate::Range(0, 0, 10)));
  ASSERT_TRUE(sel.ok());
  EXPECT_TRUE(sel.ValueOrDie().positions.empty());
  auto agg = exec.Execute(Query::On("empty").Aggregate(AggKind::kCount));
  ASSERT_TRUE(agg.ok());
  EXPECT_DOUBLE_EQ(agg.ValueOrDie().scalar->value, 0.0);
  ExecContext online;
  online.options().mode = ExecutionMode::kOnline;
  auto online_result =
      exec.Execute(Query::On("empty").Aggregate(AggKind::kCount), online);
  ASSERT_TRUE(online_result.ok());
}

// ---------------------------------------------------------- cache property

TEST(CacheConsistencyTest, CachedSessionsMatchUncachedResults) {
  Schema schema({{"k", DataType::kInt64}, {"v", DataType::kDouble}});
  auto fill_db = [&](Database& db) {
    Table t(schema);
    Random rng(31);
    t.Reserve(30'000);
    for (int i = 0; i < 30'000; ++i) {
      t.mutable_column(0)->AppendInt64(rng.UniformInt(0, 9999));
      t.mutable_column(1)->AppendDouble(rng.NextDouble());
    }
    EXPECT_TRUE(db.CreateTable("data", std::move(t)).ok());
  };
  Database db_cached;
  Database db_plain;
  fill_db(db_cached);
  fill_db(db_plain);
  SessionOptions cached_opts;
  cached_opts.idle_budget = 4;
  Session cached(&db_cached, cached_opts);
  Executor plain(&db_plain);

  // A panning workload that revisits windows: cache + speculation must not
  // change any answer.
  Random rng(37);
  int64_t lo = 0;
  for (int q = 0; q < 60; ++q) {
    lo = std::max<int64_t>(0, lo + rng.UniformInt(-1, 1) * 500);
    Query query = Query::On("data").Where(
        Predicate({{0, CompareOp::kGe, Value(lo)},
                   {0, CompareOp::kLt, Value(lo + 500)}}));
    auto a = cached.Execute(query);
    auto b = plain.Execute(query);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    auto pa = a.ValueOrDie().positions;
    auto pb = b.ValueOrDie().positions;
    std::sort(pa.begin(), pa.end());
    std::sort(pb.begin(), pb.end());
    ASSERT_EQ(pa, pb) << "q=" << q << " lo=" << lo;
  }
  EXPECT_GT(cached.cache_stats().hits, 0u);
}

// -------------------------------------------------------- steering fuzzing

TEST(SteeringFuzzTest, GarbageProgramsNeverCrash) {
  Database db;
  Schema schema({{"a", DataType::kInt64}});
  Table t(schema);
  ASSERT_TRUE(t.AppendRow({Value(int64_t{1})}).ok());
  ASSERT_TRUE(db.CreateTable("t", std::move(t)).ok());
  Session session(&db);
  SteeringInterpreter interp(&session);
  const char* programs[] = {
      "WINDOW a 0 10",            // before USE
      "USE t\nWINDOW a x y",      // non-numeric bounds
      "USE t\nZOOM -1",           // before window + bad factor
      "USE t\nWINDOW a 0 10\nZOOM 0",
      "USE t\nMODE warp",
      "USE t\nAGG median a",
      "USE t\nFILTER b = 1",      // unknown column
      "USE t\nFILTER a ~ 1",      // unknown operator
      "USE t\nSAMPLE 2.0",
      "USE t\nERROR -3",
      "USE t\nSELECT",
      "\x01\x02 garbage \xff",
      "USE t\nWINDOW a 10 0\nRUN",  // inverted window: runs, matches nothing
  };
  for (const char* program : programs) {
    auto trace = interp.Run(program);
    if (trace.ok()) {
      // The only OK case is the inverted window: zero results allowed.
      for (const QueryResult& r : trace.ValueOrDie().results) {
        EXPECT_TRUE(r.positions.empty());
      }
    }
  }
  SUCCEED();
}

TEST(SteeringFuzzTest, RandomTokenStreams) {
  Database db;
  Schema schema({{"a", DataType::kInt64}});
  Table t(schema);
  ASSERT_TRUE(t.AppendRow({Value(int64_t{1})}).ok());
  ASSERT_TRUE(db.CreateTable("t", std::move(t)).ok());
  Session session(&db);
  SteeringInterpreter interp(&session);
  const char* vocab[] = {"USE", "t", "WINDOW", "a", "0", "10", "PAN",
                         "ZOOM", "0.5", "RUN", "FILTER", "=", "MODE",
                         "cracking", "#", "\n"};
  Random rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    std::string program;
    for (int w = 0; w < 20; ++w) {
      program += vocab[rng.Uniform(16)];
      program += (rng.Uniform(4) == 0) ? "\n" : " ";
    }
    // Fuzz loop: any Status is acceptable, crashing is the only failure.
    interp.Run(program).IgnoreError();
  }
  SUCCEED();
}

}  // namespace
}  // namespace exploredb
