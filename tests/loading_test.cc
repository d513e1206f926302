#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "loading/eager_loader.h"
#include "loading/positional_map.h"
#include "loading/raw_table.h"

namespace exploredb {
namespace {

Schema WideSchema() {
  return Schema({{"a", DataType::kInt64},
                 {"b", DataType::kDouble},
                 {"c", DataType::kString},
                 {"d", DataType::kInt64}});
}

class LoadingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest -j runs each case as its own process, and a
    // shared path lets one case's TearDown unlink the file mid-read.
    path_ = ::testing::TempDir() + "/exploredb_loading_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".csv";
    std::ofstream out(path_);
    out << "a,b,c,d\n";
    for (int i = 0; i < 100; ++i) {
      out << i << "," << i * 0.5 << ",tag" << (i % 3) << "," << 1000 - i
          << "\n";
    }
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

// ---------------------------------------------------------------- map

TEST(PositionalMapTest, BuildsFieldOffsets) {
  std::string data = "x,y\n1,2\n30,40\n";
  PositionalMap map;
  ASSERT_TRUE(map.Build(data, 2, ',', /*skip_header=*/true).ok());
  EXPECT_EQ(map.num_rows(), 2u);
  EXPECT_EQ(map.Field(data, 0, 0), "1");
  EXPECT_EQ(map.Field(data, 0, 1), "2");
  EXPECT_EQ(map.Field(data, 1, 0), "30");
  EXPECT_EQ(map.Field(data, 1, 1), "40");
}

TEST(PositionalMapTest, NoTrailingNewline) {
  std::string data = "1,2\n3,4";
  PositionalMap map;
  ASSERT_TRUE(map.Build(data, 2, ',', /*skip_header=*/false).ok());
  EXPECT_EQ(map.num_rows(), 2u);
  EXPECT_EQ(map.Field(data, 1, 1), "4");
}

TEST(PositionalMapTest, WrongArityFails) {
  PositionalMap map;
  EXPECT_EQ(map.Build("1,2\n3\n", 2, ',', false).code(),
            StatusCode::kParseError);
}

TEST(PositionalMapTest, BlankLinesSkipped) {
  std::string data = "1,2\n\n3,4\n";
  PositionalMap map;
  ASSERT_TRUE(map.Build(data, 2, ',', false).ok());
  EXPECT_EQ(map.num_rows(), 2u);
}

TEST(PositionalMapTest, EmptyFields) {
  std::string data = "1,\n,4\n";
  PositionalMap map;
  ASSERT_TRUE(map.Build(data, 2, ',', false).ok());
  EXPECT_EQ(map.Field(data, 0, 1), "");
  EXPECT_EQ(map.Field(data, 1, 0), "");
}

// ---------------------------------------------------------------- raw table

TEST_F(LoadingTest, LazyColumnLoading) {
  auto raw = RawTable::Open(path_, WideSchema());
  ASSERT_TRUE(raw.ok());
  RawTable table = std::move(raw).ValueOrDie();
  EXPECT_EQ(table.stats().columns_loaded, 0u);
  EXPECT_FALSE(table.IsColumnLoaded(0));

  auto col = table.GetColumn(0);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col.ValueOrDie()->int64_data()[5], 5);
  EXPECT_TRUE(table.IsColumnLoaded(0));
  EXPECT_EQ(table.stats().columns_loaded, 1u);
  EXPECT_FALSE(table.IsColumnLoaded(1));
}

TEST_F(LoadingTest, MatchesEagerLoad) {
  auto raw = RawTable::Open(path_, WideSchema());
  ASSERT_TRUE(raw.ok());
  RawTable table = std::move(raw).ValueOrDie();
  auto eager = EagerLoad(path_, WideSchema());
  ASSERT_TRUE(eager.ok());
  const Table& full = eager.ValueOrDie().table;

  for (size_t c = 0; c < 4; ++c) {
    auto col = table.GetColumn(c);
    ASSERT_TRUE(col.ok());
    for (size_t r = 0; r < full.num_rows(); ++r) {
      EXPECT_EQ(col.ValueOrDie()->GetValue(r).ToString(),
                full.GetValue(r, c).ToString());
    }
  }
}

TEST_F(LoadingTest, GetColumnByName) {
  auto raw = RawTable::Open(path_, WideSchema());
  ASSERT_TRUE(raw.ok());
  RawTable table = std::move(raw).ValueOrDie();
  auto col = table.GetColumnByName("d");
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col.ValueOrDie()->int64_data()[0], 1000);
  EXPECT_FALSE(table.GetColumnByName("nope").ok());
}

TEST_F(LoadingTest, NumRowsTriggersTokenizationOnly) {
  auto raw = RawTable::Open(path_, WideSchema());
  ASSERT_TRUE(raw.ok());
  RawTable table = std::move(raw).ValueOrDie();
  auto rows = table.NumRows();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.ValueOrDie(), 100u);
  EXPECT_EQ(table.stats().columns_loaded, 0u);
}

TEST_F(LoadingTest, SpeculativeLoadProgresses) {
  auto raw = RawTable::Open(path_, WideSchema());
  ASSERT_TRUE(raw.ok());
  RawTable table = std::move(raw).ValueOrDie();
  for (size_t i = 0; i < 4; ++i) {
    auto loaded = table.SpeculativelyLoadOne();
    ASSERT_TRUE(loaded.ok());
  }
  EXPECT_EQ(table.stats().columns_loaded, 4u);
  EXPECT_EQ(table.SpeculativelyLoadOne().status().code(),
            StatusCode::kNotFound);
}

TEST_F(LoadingTest, ColumnOutOfRange) {
  auto raw = RawTable::Open(path_, WideSchema());
  ASSERT_TRUE(raw.ok());
  RawTable table = std::move(raw).ValueOrDie();
  EXPECT_EQ(table.GetColumn(99).status().code(), StatusCode::kOutOfRange);
}

TEST_F(LoadingTest, MalformedCellFailsOnTouch) {
  std::string bad = ::testing::TempDir() + "/exploredb_loading_bad.csv";
  {
    std::ofstream out(bad);
    out << "a,b,c,d\n1,2.0,x,oops\n";
  }
  auto raw = RawTable::Open(bad, WideSchema());
  ASSERT_TRUE(raw.ok());
  RawTable table = std::move(raw).ValueOrDie();
  // Columns a..c parse fine; d is broken and should fail only when touched.
  EXPECT_TRUE(table.GetColumn(0).ok());
  EXPECT_EQ(table.GetColumn(3).status().code(), StatusCode::kParseError);
  std::remove(bad.c_str());
}

TEST(RawTableTest, MissingFileIsIOError) {
  auto raw = RawTable::Open("/no/such/file.csv", WideSchema());
  EXPECT_EQ(raw.status().code(), StatusCode::kIOError);
}

TEST_F(LoadingTest, EagerLoadReportsTiming) {
  auto eager = EagerLoad(path_, WideSchema());
  ASSERT_TRUE(eager.ok());
  EXPECT_EQ(eager.ValueOrDie().table.num_rows(), 100u);
  EXPECT_GE(eager.ValueOrDie().load_micros, 0);
}

}  // namespace
}  // namespace exploredb
