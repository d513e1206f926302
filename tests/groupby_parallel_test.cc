// Hash GROUP BY correctness: the typed, morsel-parallel aggregation must
// produce the same groups (keys, values, ordering) as a reference
// string-keyed map accumulator, and identical results at every thread count
// — the contract the scan/SUM/AVG paths already pin. Run under TSan in CI.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "engine/query.h"

namespace exploredb {
namespace {

/// The pre-hash accumulator: row-at-a-time, keys stringified, map-ordered.
std::vector<GroupValue> ReferenceGroupBy(const Table& table, size_t key_col,
                                         const Predicate& pred,
                                         AggKind kind,
                                         const std::string& measure_name) {
  struct Acc {
    double sum = 0;
    uint64_t count = 0;
  };
  const ColumnVector* measure = nullptr;
  if (!measure_name.empty()) {
    measure = table.ColumnByName(measure_name).ValueOrDie();
  }
  std::map<std::string, Acc> groups;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (!pred.Matches(table, r)) continue;
    Acc& acc = groups[table.column(key_col).GetValue(r).ToString()];
    ++acc.count;
    if (measure != nullptr) acc.sum += measure->GetDouble(r);
  }
  std::vector<GroupValue> out;
  for (const auto& [key, acc] : groups) {
    Estimate e;
    e.sample_size = acc.count;
    switch (kind) {
      case AggKind::kCount:
        e.value = static_cast<double>(acc.count);
        break;
      case AggKind::kSum:
        e.value = acc.sum;
        break;
      case AggKind::kAvg:
        e.value = acc.sum / static_cast<double>(acc.count);
        break;
    }
    out.push_back({key, e});
  }
  return out;
}

/// dense_key: small int64 domain (dense-array path). wide_key: the same
/// group structure scaled out to a huge sparse domain (hash path). fkey:
/// a handful of distinct doubles. tag: low-cardinality strings. fine_key:
/// doubles that differ only past the sixth decimal. label: 12 strings,
/// among them the empty string and ones past the 15-byte inline buffer.
/// uid: a distinct string per row.
Table GroupTable(size_t n, uint64_t seed) {
  Table t(Schema({{"dense_key", DataType::kInt64},
                  {"wide_key", DataType::kInt64},
                  {"fkey", DataType::kDouble},
                  {"tag", DataType::kString},
                  {"value", DataType::kDouble},
                  {"ivalue", DataType::kInt64},
                  {"fine_key", DataType::kDouble},
                  {"label", DataType::kString},
                  {"uid", DataType::kString}}));
  Random rng(seed);
  const char* tags[] = {"red", "green", "blue", "cyan", "mauve"};
  const double fine[] = {0.1234561, 0.1234562, 0.1234563, 0.1234564};
  const char* labels[] = {"",   "a long label past the inline buffer",
                          "UA", "AA", "DL", "WN", "B6", "AS", "NK", "F9",
                          "HA", "another-label-longer-than-15"};
  for (size_t i = 0; i < n; ++i) {
    int64_t g = rng.UniformInt(0, 99);
    EXPECT_TRUE(t.AppendRow({Value(g),
                             Value(g * 10'000'019),  // span >> dense limit
                             Value(static_cast<double>(g % 7) * 0.5),
                             Value(tags[g % 5]),
                             Value(rng.NextDouble() * 100),
                             Value(rng.UniformInt(0, 1000)),
                             Value(fine[g % 4]),
                             Value(labels[g % 12]),
                             Value("uid-" + std::to_string(i))})
                    .ok());
  }
  return t;
}

class GroupByParallelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable("g", GroupTable(30000, 77)).ok());
  }

  Result<QueryResult> Run(const Query& q, ThreadPool* pool,
                          size_t morsel = 1000) {
    Executor exec(&db_);
    ExecContext ctx;
    ctx.SetThreadPool(pool).SetMorselSize(morsel);
    return exec.Execute(q, ctx);
  }

  Database db_;
};

TEST_F(GroupByParallelTest, MatchesReferenceForEveryKeyTypeAndKind) {
  auto* entry = db_.GetTable("g").ValueOrDie();
  const Table* table = entry->Materialized().ValueOrDie();
  // ~80% of rows; then the same under string (in)equalities.
  const Predicate value_lt({{4, CompareOp::kLt, Value(80.0)}});
  const Predicate with_strings({{4, CompareOp::kLt, Value(80.0)},
                                {7, CompareOp::kNe, Value("")},
                                {3, CompareOp::kNe, Value("blue")}});
  const Predicate one_label({{7, CompareOp::kEq, Value("UA")}});
  for (const Predicate& pred : {value_lt, with_strings, one_label}) {
    for (const char* key : {"dense_key", "wide_key", "fkey", "tag", "fine_key",
                            "label", "uid"}) {
      size_t key_col = table->schema().FieldIndex(key).ValueOrDie();
      for (AggKind kind : {AggKind::kCount, AggKind::kSum, AggKind::kAvg}) {
        std::string measure = kind == AggKind::kCount ? "" : "value";
        Query q =
            Query::On("g").Where(pred).Aggregate(kind, measure).GroupBy(key);
        auto got = Run(q, nullptr);
        ASSERT_TRUE(got.ok()) << key;
        auto want = ReferenceGroupBy(*table, key_col, pred, kind, measure);
          ASSERT_EQ(got.ValueOrDie().groups.size(), want.size())
            << key << "/" << AggKindName(kind) << " " << pred.CacheKey();
        for (size_t i = 0; i < want.size(); ++i) {
          const GroupValue& g = got.ValueOrDie().groups[i];
          EXPECT_EQ(g.key, want[i].key) << key << "/" << AggKindName(kind);
          // Morsel-partial summation may differ from row-at-a-time summation
          // in the last ulps; values must agree to relative 1e-12.
          EXPECT_NEAR(g.value.value, want[i].value.value,
                      1e-12 * (1.0 + std::abs(want[i].value.value)))
              << key << "/" << AggKindName(kind) << " group " << g.key;
          EXPECT_EQ(g.value.sample_size, want[i].value.sample_size);
          EXPECT_EQ(g.value.ci_half_width, 0.0);
        }
      }
    }
  }
}

TEST_F(GroupByParallelTest, IdenticalAcrossThreadCounts) {
  for (const char* key : {"dense_key", "wide_key", "fkey", "tag"}) {
    for (AggKind kind : {AggKind::kCount, AggKind::kSum, AggKind::kAvg}) {
      Query q = Query::On("g")
                    .Where(Predicate({{4, CompareOp::kGe, Value(10.0)}}))
                    .Aggregate(kind, kind == AggKind::kCount ? "" : "value")
                    .GroupBy(key);
      auto want = Run(q, nullptr);
      ASSERT_TRUE(want.ok());
      ASSERT_FALSE(want.ValueOrDie().groups.empty());
      for (size_t threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        auto got = Run(q, &pool);
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(got.ValueOrDie().groups.size(),
                  want.ValueOrDie().groups.size())
            << key << " threads=" << threads;
        for (size_t i = 0; i < want.ValueOrDie().groups.size(); ++i) {
          EXPECT_EQ(got.ValueOrDie().groups[i].key,
                    want.ValueOrDie().groups[i].key);
          // Bit-identical: serial and parallel fold the same per-morsel
          // partials in the same morsel order.
          EXPECT_EQ(got.ValueOrDie().groups[i].value.value,
                    want.ValueOrDie().groups[i].value.value)
              << key << "/" << AggKindName(kind) << " threads=" << threads;
        }
      }
    }
  }
}

TEST_F(GroupByParallelTest, IntMeasureAggregatesExactly) {
  Query q = Query::On("g").Aggregate(AggKind::kSum, "ivalue").GroupBy("tag");
  auto got = Run(q, nullptr);
  ASSERT_TRUE(got.ok());
  auto* entry = db_.GetTable("g").ValueOrDie();
  const Table* table = entry->Materialized().ValueOrDie();
  auto want = ReferenceGroupBy(*table, 3, Predicate(), AggKind::kSum, "ivalue");
  ASSERT_EQ(got.ValueOrDie().groups.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.ValueOrDie().groups[i].key, want[i].key);
    EXPECT_EQ(got.ValueOrDie().groups[i].value.value, want[i].value.value);
  }
}

TEST_F(GroupByParallelTest, OrderingMatchesLegacyStringSort) {
  // Int64 keys 0..12 sort as display strings — "0" < "1" < "10" < ... < "9"
  // — exactly what the old std::map<std::string, Acc> produced.
  Table t(Schema({{"k", DataType::kInt64}}));
  for (int64_t i = 0; i < 13; ++i) {
    for (int j = 0; j <= i; ++j) {
      ASSERT_TRUE(t.AppendRow({Value(i)}).ok());
    }
  }
  Database db;
  ASSERT_TRUE(db.CreateTable("t", std::move(t)).ok());
  Executor exec(&db);
  auto r = exec.Execute(Query::On("t").Aggregate(AggKind::kCount).GroupBy("k"));
  ASSERT_TRUE(r.ok());
  std::vector<std::string> keys;
  for (const GroupValue& g : r.ValueOrDie().groups) keys.push_back(g.key);
  std::vector<std::string> want = {"0", "1", "10", "11", "12", "2", "3",
                                   "4", "5", "6", "7", "8", "9"};
  EXPECT_EQ(keys, want);
  // And the counts follow their keys, not the sort order.
  EXPECT_DOUBLE_EQ(r.ValueOrDie().groups[2].value.value, 11.0);  // key "10"
}

TEST_F(GroupByParallelTest, DenseAndSparseIntPathsAgree) {
  // wide_key = dense_key * 10'000'019: same partition of rows, but the span
  // forces the sparse hash path. Aggregates must agree group-for-group.
  Query dense_q =
      Query::On("g").Aggregate(AggKind::kSum, "value").GroupBy("dense_key");
  Query sparse_q =
      Query::On("g").Aggregate(AggKind::kSum, "value").GroupBy("wide_key");
  auto dense = Run(dense_q, nullptr);
  auto sparse = Run(sparse_q, nullptr);
  ASSERT_TRUE(dense.ok());
  ASSERT_TRUE(sparse.ok());
  ASSERT_EQ(dense.ValueOrDie().groups.size(),
            sparse.ValueOrDie().groups.size());
  std::map<std::string, double> by_key;
  for (const GroupValue& g : sparse.ValueOrDie().groups) {
    by_key[g.key] = g.value.value;
  }
  for (const GroupValue& g : dense.ValueOrDie().groups) {
    int64_t k = std::stoll(g.key);
    auto it = by_key.find(std::to_string(k * 10'000'019));
    ASSERT_NE(it, by_key.end()) << g.key;
    EXPECT_EQ(g.value.value, it->second) << g.key;
  }
}

TEST_F(GroupByParallelTest, EmptySelectionYieldsNoGroups) {
  Query q = Query::On("g")
                .Where(Predicate({{4, CompareOp::kLt, Value(-1.0)}}))
                .Aggregate(AggKind::kSum, "value")
                .GroupBy("tag");
  ThreadPool pool(4);
  auto r = Run(q, &pool);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().groups.empty());
}

TEST_F(GroupByParallelTest, SampledGroupByStaysApproximate) {
  Executor exec(&db_);
  ExecContext ctx;
  ctx.options().mode = ExecutionMode::kSampled;
  ctx.options().sample_fraction = 0.1;
  auto r = exec.Execute(
      Query::On("g").Aggregate(AggKind::kCount).GroupBy("tag"), ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().approximate);
  EXPECT_EQ(r.ValueOrDie().stats().path, AccessPath::kSample);
  // Scaled counts should land near the true per-tag totals.
  double total = 0;
  for (const GroupValue& g : r.ValueOrDie().groups) total += g.value.value;
  EXPECT_NEAR(total, 30000.0, 3000.0);
}

TEST_F(GroupByParallelTest, GroupByStatsCountAggregateMorsels) {
  ThreadPool pool(4);
  Query q = Query::On("g").Aggregate(AggKind::kSum, "value").GroupBy("tag");
  auto r = Run(q, &pool);
  ASSERT_TRUE(r.ok());
  const ExecStats& s = r.ValueOrDie().stats();
  // 30 scan morsels + 30 aggregation morsels at 1000 rows/morsel.
  EXPECT_EQ(s.morsels_dispatched, 60u);
  EXPECT_GT(s.aggregate_nanos, 0);
}

}  // namespace
}  // namespace exploredb
