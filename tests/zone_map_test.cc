// Zone-map synopsis unit tests plus pruned-scan correctness: a scan that
// skips morsels via zone-map bounds must return exactly the positions of an
// unpruned scan, serial or parallel, while ExecStats shows the pruning.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "engine/query.h"
#include "storage/zone_map.h"

namespace exploredb {
namespace {

ColumnVector Int64Column(std::vector<int64_t> data) {
  ColumnVector col(DataType::kInt64);
  *col.mutable_int64_data() = std::move(data);
  return col;
}

Condition Cond(CompareOp op, int64_t k) { return {0, op, Value(k)}; }

// ---- synopsis unit tests ---------------------------------------------------

TEST(ZoneMapTest, BoundsPerOperator) {
  // One zone holding [10, 20].
  ColumnVector col = Int64Column({10, 15, 20});
  ZoneMap zm = ZoneMap::Build(col, /*zone_rows=*/8);
  ASSERT_EQ(zm.num_zones(), 1u);
  const uint32_t n = 3;

  EXPECT_TRUE(zm.MayMatch(Cond(CompareOp::kLt, 11), 0, n));
  EXPECT_FALSE(zm.MayMatch(Cond(CompareOp::kLt, 10), 0, n));
  EXPECT_TRUE(zm.MayMatch(Cond(CompareOp::kLe, 10), 0, n));
  EXPECT_FALSE(zm.MayMatch(Cond(CompareOp::kLe, 9), 0, n));
  EXPECT_TRUE(zm.MayMatch(Cond(CompareOp::kGt, 19), 0, n));
  EXPECT_FALSE(zm.MayMatch(Cond(CompareOp::kGt, 20), 0, n));
  EXPECT_TRUE(zm.MayMatch(Cond(CompareOp::kGe, 20), 0, n));
  EXPECT_FALSE(zm.MayMatch(Cond(CompareOp::kGe, 21), 0, n));
  EXPECT_TRUE(zm.MayMatch(Cond(CompareOp::kEq, 15), 0, n));
  EXPECT_FALSE(zm.MayMatch(Cond(CompareOp::kEq, 9), 0, n));
  EXPECT_FALSE(zm.MayMatch(Cond(CompareOp::kEq, 21), 0, n));
  EXPECT_TRUE(zm.MayMatch(Cond(CompareOp::kNe, 15), 0, n));
}

TEST(ZoneMapTest, NePrunesOnlyConstantZones) {
  ColumnVector col = Int64Column({7, 7, 7, 7});
  ZoneMap zm = ZoneMap::Build(col, 8);
  EXPECT_FALSE(zm.MayMatch(Cond(CompareOp::kNe, 7), 0, 4));
  EXPECT_TRUE(zm.MayMatch(Cond(CompareOp::kNe, 8), 0, 4));
}

TEST(ZoneMapTest, MultiZoneRangeChecksOnlyOverlappingZones) {
  // Two zones of 4 rows: [0..3] holds 0..3, [4..7] holds 100..103.
  ColumnVector col = Int64Column({0, 1, 2, 3, 100, 101, 102, 103});
  ZoneMap zm = ZoneMap::Build(col, 4);
  ASSERT_EQ(zm.num_zones(), 2u);
  EXPECT_TRUE(zm.MayMatch(Cond(CompareOp::kGe, 100), 4, 8));
  EXPECT_FALSE(zm.MayMatch(Cond(CompareOp::kGe, 100), 0, 4));
  // A morsel spanning both zones may match if either zone can.
  EXPECT_TRUE(zm.MayMatch(Cond(CompareOp::kGe, 100), 0, 8));
  EXPECT_FALSE(zm.MayMatch(Cond(CompareOp::kGt, 103), 0, 8));
}

TEST(ZoneMapTest, DoubleConstantAgainstInt64ZonesWidens) {
  ColumnVector col = Int64Column({10, 20});
  ZoneMap zm = ZoneMap::Build(col, 8);
  Condition c{0, CompareOp::kGt, Value(19.5)};
  EXPECT_TRUE(zm.MayMatch(c, 0, 2));
  Condition c2{0, CompareOp::kGt, Value(20.5)};
  EXPECT_FALSE(zm.MayMatch(c2, 0, 2));
}

TEST(ZoneMapTest, StringConstantIsAlwaysConservative) {
  ColumnVector col = Int64Column({1, 2, 3});
  ZoneMap zm = ZoneMap::Build(col, 8);
  Condition c{0, CompareOp::kEq, Value("x")};
  EXPECT_TRUE(zm.MayMatch(c, 0, 3));
}

TEST(ZoneMapTest, RaggedLastZoneAndInt64Range) {
  std::vector<int64_t> data(10);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<int64_t>(i);
  ZoneMap zm = ZoneMap::Build(Int64Column(data), 4);
  EXPECT_EQ(zm.num_zones(), 3u);  // 4 + 4 + 2
  auto range = zm.Int64Range();
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->first, 0);
  EXPECT_EQ(range->second, 9);
  // The last (short) zone holds {8, 9}.
  EXPECT_TRUE(zm.MayMatch(Cond(CompareOp::kGe, 9), 8, 10));
  EXPECT_FALSE(zm.MayMatch(Cond(CompareOp::kGe, 10), 8, 10));
}

TEST(ZoneMapTest, DoubleColumnBounds) {
  ColumnVector col(DataType::kDouble);
  *col.mutable_double_data() = {1.5, 2.5, 3.5};
  ZoneMap zm = ZoneMap::Build(col, 8);
  Condition lt{0, CompareOp::kLt, Value(1.5)};
  EXPECT_FALSE(zm.MayMatch(lt, 0, 3));
  Condition gt{0, CompareOp::kGt, Value(3.0)};
  EXPECT_TRUE(zm.MayMatch(gt, 0, 3));
}

TEST(ZoneMapTest, SelectivityOverInfiniteBoundsStaysInUnitRange) {
  // The estimate sizes selection vectors; a NaN here reaches a size_t cast.
  const double inf = std::numeric_limits<double>::infinity();
  ColumnVector col(DataType::kDouble);
  *col.mutable_double_data() = {-inf, 0.0, inf};
  ZoneMap zm = ZoneMap::Build(col, 8);
  for (CompareOp op : {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                       CompareOp::kGe, CompareOp::kEq, CompareOp::kNe}) {
    for (double k : {0.0, -inf, inf, 1e300}) {
      const double s = zm.EstimateSelectivity({0, op, Value(k)});
      EXPECT_GE(s, 0.0) << CompareOpName(op) << " " << k;
      EXPECT_LE(s, 1.0) << CompareOpName(op) << " " << k;
    }
  }
}

// ---- pruned-scan correctness through the executor --------------------------

/// Clustered table: `key` grows monotonically (rows/zone narrow), `noise` is
/// uniform (unprunable), `score` is a clustered double.
Table ClusteredTable(size_t n, uint64_t seed) {
  Table t(Schema({{"key", DataType::kInt64},
                  {"noise", DataType::kInt64},
                  {"score", DataType::kDouble}}));
  Random rng(seed);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(t.AppendRow({Value(static_cast<int64_t>(i / 2)),
                             Value(rng.UniformInt(0, 99999)),
                             Value(static_cast<double>(i) * 0.25)})
                    .ok());
  }
  return t;
}

class ZoneMapPruningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable("clustered", ClusteredTable(60000, 9)).ok());
  }

  Result<QueryResult> Run(const Query& q, bool prune, ThreadPool* pool,
                          size_t morsel = 1000) {
    Executor exec(&db_);
    ExecContext ctx;
    ctx.SetThreadPool(pool).SetMorselSize(morsel);
    ctx.options().use_zone_maps = prune;
    return exec.Execute(q, ctx);
  }

  Database db_;
};

TEST_F(ZoneMapPruningTest, PrunedEqualsUnprunedOnRandomWindows) {
  Random rng(123);
  ThreadPool pool(4);
  bool saw_pruning = false;
  for (int trial = 0; trial < 20; ++trial) {
    int64_t lo = rng.UniformInt(0, 30000);
    int64_t hi = lo + rng.UniformInt(1, 3000);
    Query q = Query::On("clustered")
                  .Where(Predicate({{0, CompareOp::kGe, Value(lo)},
                                    {0, CompareOp::kLt, Value(hi)}}));
    auto unpruned = Run(q, false, nullptr);
    auto serial = Run(q, true, nullptr);
    auto parallel = Run(q, true, &pool);
    ASSERT_TRUE(unpruned.ok());
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(serial.ValueOrDie().positions, unpruned.ValueOrDie().positions)
        << "lo=" << lo << " hi=" << hi;
    EXPECT_EQ(parallel.ValueOrDie().positions, unpruned.ValueOrDie().positions)
        << "lo=" << lo << " hi=" << hi;
    EXPECT_EQ(unpruned.ValueOrDie().stats().morsels_pruned, 0u);
    saw_pruning |= serial.ValueOrDie().stats().morsels_pruned > 0;
  }
  EXPECT_TRUE(saw_pruning);
}

TEST_F(ZoneMapPruningTest, SelectiveScanSkipsMostMorselsAndRows) {
  Query q = Query::On("clustered")
                .Where(Predicate({{0, CompareOp::kGe, Value(int64_t{10000})},
                                  {0, CompareOp::kLt, Value(int64_t{10300})}}));
  auto r = Run(q, true, nullptr);
  ASSERT_TRUE(r.ok());
  const ExecStats& s = r.ValueOrDie().stats();
  // 60 morsels of 1000 rows; the 600-row match window overlaps ~1 zone.
  EXPECT_GT(s.morsels_pruned, 50u);
  EXPECT_LT(s.rows_scanned, 60000u / 4);
  EXPECT_EQ(r.ValueOrDie().positions.size(), 600u);
}

TEST_F(ZoneMapPruningTest, UnprunableConjunctStillScansEverything) {
  // `noise` is uniform, so every zone spans nearly the full domain.
  Query q = Query::On("clustered")
                .Where(Predicate({{1, CompareOp::kLt, Value(int64_t{500})}}));
  auto pruned = Run(q, true, nullptr);
  auto unpruned = Run(q, false, nullptr);
  ASSERT_TRUE(pruned.ok());
  ASSERT_TRUE(unpruned.ok());
  EXPECT_EQ(pruned.ValueOrDie().positions, unpruned.ValueOrDie().positions);
  EXPECT_EQ(pruned.ValueOrDie().stats().morsels_pruned, 0u);
  EXPECT_EQ(pruned.ValueOrDie().stats().rows_scanned, 60000u);
}

TEST_F(ZoneMapPruningTest, DoubleColumnPruningMatchesUnpruned) {
  ThreadPool pool(4);
  Query q = Query::On("clustered")
                .Where(Predicate({{2, CompareOp::kGe, Value(2000.0)},
                                  {2, CompareOp::kLt, Value(2100.0)}}));
  auto unpruned = Run(q, false, nullptr);
  auto serial = Run(q, true, nullptr);
  auto parallel = Run(q, true, &pool);
  ASSERT_TRUE(unpruned.ok());
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(serial.ValueOrDie().positions, unpruned.ValueOrDie().positions);
  EXPECT_EQ(parallel.ValueOrDie().positions, unpruned.ValueOrDie().positions);
  EXPECT_GT(serial.ValueOrDie().stats().morsels_pruned, 0u);
}

TEST_F(ZoneMapPruningTest, MixedConjunctsPruneByAnyNumericColumn) {
  ThreadPool pool(4);
  // key window (prunable) AND noise threshold (unprunable residual).
  Query q = Query::On("clustered")
                .Where(Predicate({{0, CompareOp::kGe, Value(int64_t{5000})},
                                  {0, CompareOp::kLt, Value(int64_t{5500})},
                                  {1, CompareOp::kLt, Value(int64_t{50000})}}));
  auto unpruned = Run(q, false, &pool);
  auto pruned = Run(q, true, &pool);
  ASSERT_TRUE(unpruned.ok());
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(pruned.ValueOrDie().positions, unpruned.ValueOrDie().positions);
  EXPECT_GT(pruned.ValueOrDie().stats().morsels_pruned, 0u);
}

TEST_F(ZoneMapPruningTest, SummaryMentionsPrunedMorsels) {
  Query q = Query::On("clustered")
                .Where(Predicate({{0, CompareOp::kEq, Value(int64_t{42})}}));
  auto r = Run(q, true, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.ValueOrDie().stats().Summary().find("pruned="),
            std::string::npos);
}

TEST(ZoneMapStringPredicateTest, StringConditionsSkipPruningSafely) {
  // A string conjunct rides along unprunable while the numeric conjunct
  // still prunes whole morsels.
  Table t(Schema({{"kind", DataType::kString}, {"v", DataType::kInt64}}));
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value(i % 2 ? "a" : "b"), Value(int64_t{i})}).ok());
  }
  Database db;
  ASSERT_TRUE(db.CreateTable("t", std::move(t)).ok());
  Executor exec(&db);
  ExecContext ctx;
  ctx.SetThreadPool(nullptr).SetMorselSize(500);
  auto r = exec.Execute(
      Query::On("t").Where(
          Predicate({{0, CompareOp::kEq, Value("a")},
                     {1, CompareOp::kGe, Value(int64_t{16000})}})),
      ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().positions.size(), 2000u);
  EXPECT_GT(r.ValueOrDie().stats().morsels_pruned, 0u);
}

// ---- invariant validation --------------------------------------------------

TEST(ZoneMapValidateTest, BuiltMapsValidateShallowAndDeep) {
  Random rng(41);
  std::vector<int64_t> data(10'000);
  for (int64_t& v : data) v = rng.UniformInt(-1'000'000, 1'000'000);
  ColumnVector col = Int64Column(data);
  ZoneMap zm = ZoneMap::Build(col, /*zone_rows=*/256);
  EXPECT_TRUE(zm.Validate().ok());
  EXPECT_TRUE(zm.Validate(&col).ok());

  ColumnVector dcol(DataType::kDouble);
  for (int i = 0; i < 5000; ++i) {
    dcol.mutable_double_data()->push_back(rng.NextGaussian());
  }
  ZoneMap dzm = ZoneMap::Build(dcol, 128);
  EXPECT_TRUE(dzm.Validate(&dcol).ok());
}

TEST(ZoneMapValidateTest, DeepValidateCatchesStaleSynopsis) {
  ColumnVector col = Int64Column({1, 2, 3, 4, 5, 6, 7, 8});
  ZoneMap zm = ZoneMap::Build(col, /*zone_rows=*/4);
  ASSERT_TRUE(zm.Validate(&col).ok());
  // An in-place update the synopsis never saw: the recorded max of zone 0
  // (4) now undercovers the data, so the map would prune a live row.
  (*col.mutable_int64_data())[0] = 999;
  EXPECT_FALSE(zm.Validate(&col).ok());
}

TEST(ZoneMapValidateTest, DeepValidateCatchesRowCountDrift) {
  ColumnVector col = Int64Column({1, 2, 3, 4, 5, 6, 7, 8});
  ZoneMap zm = ZoneMap::Build(col, 4);
  col.mutable_int64_data()->push_back(9);  // appended after the build
  EXPECT_FALSE(zm.Validate(&col).ok());
}

}  // namespace
}  // namespace exploredb
