#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/random.h"
#include "storage/csv.h"
#include "storage/predicate.h"
#include "storage/table.h"

namespace exploredb {
namespace {

Schema TestSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"score", DataType::kDouble},
                 {"tag", DataType::kString}});
}

Table TestTable() {
  Table t(TestSchema());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{1}), Value(1.5), Value("a")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{2}), Value(2.5), Value("b")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{3}), Value(3.5), Value("a")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{4}), Value(4.5), Value("c")}).ok());
  return t;
}

// ---------------------------------------------------------------- Value

TEST(ValueTest, TypeTagsAndAccessors) {
  Value i(int64_t{7});
  Value d(2.5);
  Value s("hi");
  EXPECT_TRUE(i.is_int64());
  EXPECT_TRUE(d.is_double());
  EXPECT_TRUE(s.is_string());
  EXPECT_EQ(i.int64(), 7);
  EXPECT_DOUBLE_EQ(d.dbl(), 2.5);
  EXPECT_EQ(s.str(), "hi");
  EXPECT_EQ(i.type(), DataType::kInt64);
  EXPECT_EQ(d.type(), DataType::kDouble);
  EXPECT_EQ(s.type(), DataType::kString);
}

TEST(ValueTest, AsDoubleWidensInt) {
  EXPECT_DOUBLE_EQ(Value(int64_t{3}).AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(Value(0.25).AsDouble(), 0.25);
}

TEST(ValueTest, EqualityAndOrdering) {
  EXPECT_EQ(Value(int64_t{1}), Value(int64_t{1}));
  EXPECT_LT(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_EQ(Value("x"), Value("x"));
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(int64_t{5}).ToString(), "5");
  EXPECT_EQ(Value("abc").ToString(), "abc");
}

// ---------------------------------------------------------------- Schema

TEST(SchemaTest, FieldIndexFindsAndFails) {
  Schema s = TestSchema();
  auto idx = s.FieldIndex("score");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx.ValueOrDie(), 1u);
  EXPECT_EQ(s.FieldIndex("nope").status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, SelectReorders) {
  Schema s = TestSchema().Select({2, 0});
  ASSERT_EQ(s.num_fields(), 2u);
  EXPECT_EQ(s.field(0).name, "tag");
  EXPECT_EQ(s.field(1).name, "id");
}

TEST(SchemaTest, ToStringListsFields) {
  EXPECT_EQ(TestSchema().ToString(), "(id:int64, score:double, tag:string)");
}

// ---------------------------------------------------------------- Column

TEST(ColumnTest, AppendTypeMismatchFails) {
  ColumnVector col(DataType::kInt64);
  EXPECT_TRUE(col.Append(Value(int64_t{1})).ok());
  EXPECT_EQ(col.Append(Value("x")).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(col.size(), 1u);
}

TEST(ColumnTest, GatherReordersAndDuplicates) {
  ColumnVector col(DataType::kInt64);
  for (int64_t v : {10, 20, 30}) col.AppendInt64(v);
  ColumnVector g = col.Gather({2, 0, 0});
  ASSERT_EQ(g.size(), 3u);
  EXPECT_EQ(g.int64_data()[0], 30);
  EXPECT_EQ(g.int64_data()[1], 10);
  EXPECT_EQ(g.int64_data()[2], 10);
}

TEST(ColumnTest, GetDoubleWidens) {
  ColumnVector col(DataType::kInt64);
  col.AppendInt64(4);
  EXPECT_DOUBLE_EQ(col.GetDouble(0), 4.0);
}

// ---------------------------------------------------------------- Table

TEST(TableTest, AppendRowChecksArity) {
  Table t(TestSchema());
  EXPECT_EQ(t.AppendRow({Value(int64_t{1})}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(TableTest, AppendRowChecksTypesAtomically) {
  Table t(TestSchema());
  // Second column wrong: nothing should be appended anywhere.
  EXPECT_FALSE(
      t.AppendRow({Value(int64_t{1}), Value("oops"), Value("a")}).ok());
  EXPECT_EQ(t.num_rows(), 0u);
  for (size_t c = 0; c < t.num_columns(); ++c) {
    EXPECT_EQ(t.column(c).size(), 0u);
  }
}

TEST(TableTest, TakeSelectsRows) {
  Table t = TestTable();
  Table sub = t.Take({3, 1});
  ASSERT_EQ(sub.num_rows(), 2u);
  EXPECT_EQ(sub.GetValue(0, 0).int64(), 4);
  EXPECT_EQ(sub.GetValue(1, 0).int64(), 2);
}

TEST(TableTest, ProjectSelectsColumns) {
  Table t = TestTable();
  Table p = t.Project({2, 1});
  EXPECT_EQ(p.num_columns(), 2u);
  EXPECT_EQ(p.schema().field(0).name, "tag");
  EXPECT_EQ(p.GetValue(0, 0).str(), "a");
  EXPECT_DOUBLE_EQ(p.GetValue(0, 1).dbl(), 1.5);
}

TEST(TableTest, ColumnByName) {
  Table t = TestTable();
  auto col = t.ColumnByName("score");
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col.ValueOrDie()->size(), 4u);
  EXPECT_FALSE(t.ColumnByName("ghost").ok());
}

TEST(TableTest, ToStringTruncates) {
  Table t = TestTable();
  std::string s = t.ToString(2);
  EXPECT_NE(s.find("more rows"), std::string::npos);
}

// ---------------------------------------------------------------- Predicate

TEST(PredicateTest, EmptyMatchesEverything) {
  Table t = TestTable();
  Predicate p;
  EXPECT_EQ(p.SelectPositions(t).size(), t.num_rows());
}

TEST(PredicateTest, RangeSelectsHalfOpen) {
  Table t = TestTable();
  // score in [2.5, 4.5)
  Predicate p = Predicate::Range(1, 2.5, 4.5);
  auto pos = p.SelectPositions(t);
  ASSERT_EQ(pos.size(), 2u);
  EXPECT_EQ(pos[0], 1u);
  EXPECT_EQ(pos[1], 2u);
}

TEST(PredicateTest, ConjunctionAndsConditions) {
  Table t = TestTable();
  Predicate p;
  p.And({2, CompareOp::kEq, Value("a")});
  p.And({0, CompareOp::kGt, Value(int64_t{1})});
  auto pos = p.SelectPositions(t);
  ASSERT_EQ(pos.size(), 1u);
  EXPECT_EQ(pos[0], 2u);
}

TEST(PredicateTest, AllOperatorsOnInt64) {
  Table t = TestTable();
  auto count = [&](CompareOp op, int64_t v) {
    Predicate p({{0, op, Value(v)}});
    return p.SelectPositions(t).size();
  };
  EXPECT_EQ(count(CompareOp::kLt, 3), 2u);
  EXPECT_EQ(count(CompareOp::kLe, 3), 3u);
  EXPECT_EQ(count(CompareOp::kGt, 3), 1u);
  EXPECT_EQ(count(CompareOp::kGe, 3), 2u);
  EXPECT_EQ(count(CompareOp::kEq, 3), 1u);
  EXPECT_EQ(count(CompareOp::kNe, 3), 3u);
}

TEST(PredicateTest, DoubleConstantAgainstIntColumn) {
  Table t = TestTable();
  Predicate p({{0, CompareOp::kGe, Value(2.5)}});
  EXPECT_EQ(p.SelectPositions(t).size(), 2u);  // ids 3, 4
}

TEST(PredicateTest, StringComparisonRequiresStringConstant) {
  Table t = TestTable();
  Predicate p({{2, CompareOp::kEq, Value(int64_t{1})}});
  EXPECT_TRUE(p.SelectPositions(t).empty());
}

TEST(PredicateTest, CacheKeyDistinguishesPredicates) {
  Predicate a = Predicate::Range(0, 1, 5);
  Predicate b = Predicate::Range(0, 1, 6);
  Predicate c = Predicate::Range(1, 1, 5);
  EXPECT_NE(a.CacheKey(), b.CacheKey());
  EXPECT_NE(a.CacheKey(), c.CacheKey());
  EXPECT_EQ(a.CacheKey(), Predicate::Range(0, 1, 5).CacheKey());

  // Constants that differ only past the sixth decimal, a string holding the
  // key's separators, and constants of different types.
  auto key = [](std::vector<Condition> conjuncts) {
    return Predicate(std::move(conjuncts)).CacheKey();
  };
  EXPECT_NE(key({{1, CompareOp::kLt, Value(0.1234561)}}),
            key({{1, CompareOp::kLt, Value(0.1234564)}}));
  EXPECT_NE(key({{2, CompareOp::kEq, Value("a;0<5")}}),
            key({{2, CompareOp::kEq, Value("a")},
                 {0, CompareOp::kLt, Value(int64_t{5})}}));
  EXPECT_NE(key({{2, CompareOp::kEq, Value(int64_t{1})}}),
            key({{2, CompareOp::kEq, Value("1")}}));
  EXPECT_NE(key({{1, CompareOp::kEq, Value(int64_t{1})}}),
            key({{1, CompareOp::kEq, Value(1.0)}}));
}

TEST(PredicateTest, ToStringReadable) {
  Table t = TestTable();
  Predicate p({{0, CompareOp::kGe, Value(int64_t{2})}});
  EXPECT_EQ(p.ToString(t.schema()), "id >= 2");
  EXPECT_EQ(Predicate().ToString(t.schema()), "true");
}

// ---------------------------------------------------------------- CSV

class CsvTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // Unique per test: ctest -j runs each case as its own process, and a
  // shared path lets one case's TearDown unlink the file mid-read.
  std::string path_ =
      ::testing::TempDir() + "/exploredb_csv_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".csv";
};

TEST_F(CsvTest, RoundTrip) {
  Table t = TestTable();
  ASSERT_TRUE(WriteCsv(t, path_).ok());
  auto r = ReadCsv(path_, TestSchema());
  ASSERT_TRUE(r.ok());
  const Table& back = r.ValueOrDie();
  ASSERT_EQ(back.num_rows(), t.num_rows());
  for (size_t row = 0; row < t.num_rows(); ++row) {
    EXPECT_EQ(back.GetValue(row, 0).int64(), t.GetValue(row, 0).int64());
    EXPECT_EQ(back.GetValue(row, 2).str(), t.GetValue(row, 2).str());
  }
}

TEST_F(CsvTest, MissingFileIsIOError) {
  auto r = ReadCsv("/nonexistent/nope.csv", TestSchema());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST_F(CsvTest, WrongArityIsParseErrorWithLineNumber) {
  {
    std::ofstream out(path_);
    out << "id,score,tag\n1,2.0,a\n1,2.0\n";
  }
  auto r = ReadCsv(path_, TestSchema());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find(":3"), std::string::npos);
}

TEST_F(CsvTest, BadCellIsParseError) {
  {
    std::ofstream out(path_);
    out << "id,score,tag\nxx,2.0,a\n";
  }
  auto r = ReadCsv(path_, TestSchema());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST_F(CsvTest, SkipsBlankLines) {
  {
    std::ofstream out(path_);
    out << "id,score,tag\n1,2.0,a\n\n2,3.0,b\n";
  }
  auto r = ReadCsv(path_, TestSchema());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().num_rows(), 2u);
}

TEST_F(CsvTest, NoHeaderMode) {
  {
    std::ofstream out(path_);
    out << "1,2.0,a\n";
  }
  CsvOptions options;
  options.has_header = false;
  auto r = ReadCsv(path_, TestSchema(), options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().num_rows(), 1u);
}

// FilterRange has typed fast paths (single comparison, int64 window) that
// must agree with the general row-at-a-time evaluation on every operator,
// type, and morsel split. Randomized data keeps the fast paths honest.
class FilterRangeEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Random rng(4242);
    table_ = Table(Schema({{"a", DataType::kInt64},
                           {"b", DataType::kDouble},
                           {"c", DataType::kInt64}}));
    for (size_t i = 0; i < 7777; ++i) {  // ragged vs any morsel size
      ASSERT_TRUE(table_
                      .AppendRow({Value(rng.UniformInt(-500, 500)),
                                  Value(rng.NextDouble() * 200.0 - 100.0),
                                  Value(rng.UniformInt(0, 9))})
                      .ok());
    }
  }

  std::vector<const ColumnVector*> Cols(const std::vector<Condition>& conds) {
    std::vector<const ColumnVector*> cols;
    for (const Condition& c : conds) cols.push_back(&table_.column(c.column));
    return cols;
  }

  /// Reference: evaluate every condition per row via Condition::Matches.
  std::vector<uint32_t> Slow(const std::vector<Condition>& conds,
                             uint32_t begin, uint32_t end) {
    std::vector<uint32_t> out;
    for (uint32_t r = begin; r < end; ++r) {
      bool ok = true;
      for (const Condition& c : conds) {
        if (!c.Matches(table_, r)) {
          ok = false;
          break;
        }
      }
      if (ok) out.push_back(r);
    }
    return out;
  }

  void ExpectEquivalent(const std::vector<Condition>& conds) {
    auto cols = Cols(conds);
    const uint32_t n = static_cast<uint32_t>(table_.num_rows());
    std::vector<uint32_t> fast;
    Predicate::FilterRange(conds, cols, 0, n, &fast);
    EXPECT_EQ(fast, Slow(conds, 0, n));
    // Morsel-split concatenation must equal the whole-range call.
    std::vector<uint32_t> split;
    for (uint32_t begin = 0; begin < n; begin += 1000) {
      Predicate::FilterRange(conds, cols, begin, std::min(n, begin + 1000),
                             &split);
    }
    EXPECT_EQ(split, fast);
  }

  Table table_;
};

TEST_F(FilterRangeEquivalenceTest, SingleInt64ComparisonEveryOp) {
  for (CompareOp op : {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                       CompareOp::kGe, CompareOp::kEq, CompareOp::kNe}) {
    ExpectEquivalent({{0, op, Value(int64_t{37})}});
  }
}

TEST_F(FilterRangeEquivalenceTest, SingleDoubleComparisonEveryOp) {
  for (CompareOp op : {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                       CompareOp::kGe, CompareOp::kEq, CompareOp::kNe}) {
    ExpectEquivalent({{1, op, Value(12.5)}});
  }
}

TEST_F(FilterRangeEquivalenceTest, Int64WindowFastPath) {
  ExpectEquivalent({{0, CompareOp::kGe, Value(int64_t{-100})},
                    {0, CompareOp::kLt, Value(int64_t{100})}});
}

TEST_F(FilterRangeEquivalenceTest, RandomizedMixedConjuncts) {
  Random rng(99);
  std::vector<CompareOp> ops = {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                                CompareOp::kGe, CompareOp::kEq, CompareOp::kNe};
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Condition> conds;
    const int64_t arity = rng.UniformInt(1, 3);
    for (int64_t i = 0; i < arity; ++i) {
      size_t col = static_cast<size_t>(rng.UniformInt(0, 2));
      CompareOp op = ops[static_cast<size_t>(rng.UniformInt(0, 5))];
      Value constant = col == 1 ? Value(rng.NextDouble() * 200.0 - 100.0)
                                : Value(rng.UniformInt(-500, 500));
      conds.push_back({col, op, constant});
    }
    ExpectEquivalent(conds);
  }
}

TEST_F(FilterRangeEquivalenceTest, EmptyConjunctsSelectEverything) {
  std::vector<Condition> none;
  auto cols = Cols(none);
  std::vector<uint32_t> out;
  Predicate::FilterRange(none, cols, 10, 20, &out);
  std::vector<uint32_t> want = {10, 11, 12, 13, 14, 15, 16, 17, 18, 19};
  EXPECT_EQ(out, want);
}

}  // namespace
}  // namespace exploredb
