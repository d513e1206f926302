// String columns are stored as one dictionary code per row plus a per-column
// dictionary, filled as rows are appended. Every way a string column is
// built (typed and Value appends, Table::AppendRow, both CSV loaders) and
// every way one is copied (Gather, Executor::Project, a Table copy) must
// read back the reference strings row by row, with codes in
// first-appearance order. Copies share the source's dictionary, and a
// column that appends a new value to a shared dictionary copies it first.
// On a fresh Database the first string filter and the first string GROUP BY
// build nothing, and both agree with a reference with compression on and
// off at 1, 2 and 8 threads.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "engine/query.h"
#include "loading/eager_loader.h"
#include "storage/column.h"
#include "storage/csv.h"
#include "storage/table.h"

namespace exploredb {
namespace {

/// One named reference input: the strings a column must read back.
struct Input {
  std::string name;
  std::vector<std::string> rows;
};

/// The inputs every build path is checked on: a 12-value column holding the
/// empty string and values longer than the 15-byte inline buffer, and an
/// all-distinct column.
std::vector<Input> Inputs() {
  const std::vector<std::string> twelve = {
      "",
      "a",
      "carrier-with-a-long-name",
      "UA",
      "AA",
      "DL",
      "exactly-15-byte",
      "exactly-16-bytes",
      "WN",
      "B6",
      "a value well past any small-string buffer",
      "Z"};
  Random rng(2026);
  Input low{"twelve", {}};
  Input distinct{"all_distinct", {}};
  for (size_t i = 0; i < 3'000; ++i) {
    low.rows.push_back(twelve[rng.Uniform(twelve.size())]);
    distinct.rows.push_back("row-" + std::to_string(i) +
                            (i % 2 == 0 ? "" : "-with-a-long-suffix"));
  }
  return {low, distinct};
}

/// Distinct values of `rows` in first-appearance order.
std::vector<std::string> FirstAppearance(const std::vector<std::string>& rows) {
  std::vector<std::string> out;
  std::map<std::string, size_t> seen;
  for (const std::string& s : rows) {
    if (seen.emplace(s, out.size()).second) out.push_back(s);
  }
  return out;
}

/// Checks `col` against `want` row by row, and its codes against
/// first-appearance order.
void ExpectColumn(const ColumnVector& col, const std::vector<std::string>& want,
                  const std::string& how) {
  SCOPED_TRACE(how);
  ASSERT_EQ(col.type(), DataType::kString);
  ASSERT_EQ(col.size(), want.size());
  ASSERT_EQ(col.string_data().size(), want.size());
  for (size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(col.string_data()[r], want[r]) << "row " << r;
    ASSERT_EQ(col.GetValue(r), Value(want[r])) << "row " << r;
  }
  size_t r = 0;
  for (const std::string& s : col.string_data()) ASSERT_EQ(s, want[r++]);
  EXPECT_TRUE(col.dictionary().Validate().ok());
}

/// Codes of a freshly built column: code c is the c-th distinct value.
void ExpectFirstAppearanceCodes(const ColumnVector& col,
                                const std::vector<std::string>& want) {
  const std::vector<std::string> order = FirstAppearance(want);
  EXPECT_EQ(col.dictionary().values(), order);
  for (size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(order[col.codes()[r]], want[r]) << "row " << r;
  }
}

Table TableOf(const std::vector<std::string>& rows) {
  Table t(Schema({{"id", DataType::kInt64}, {"s", DataType::kString}}));
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(
        t.AppendRow({Value(static_cast<int64_t>(i)), Value(rows[i])}).ok());
  }
  return t;
}

TEST(StringColumnTest, EveryAppendPathReadsBackInFirstAppearanceOrder) {
  for (const Input& input : Inputs()) {
    SCOPED_TRACE(input.name);
    ColumnVector typed(DataType::kString);
    ColumnVector valued(DataType::kString);
    for (const std::string& s : input.rows) {
      typed.AppendString(s);
      ASSERT_TRUE(valued.Append(Value(s)).ok());
    }
    ExpectColumn(typed, input.rows, "AppendString");
    ExpectFirstAppearanceCodes(typed, input.rows);
    ExpectColumn(valued, input.rows, "Append(Value)");
    ExpectFirstAppearanceCodes(valued, input.rows);
    const Table table = TableOf(input.rows);
    ExpectColumn(table.column(1), input.rows, "Table::AppendRow");
    ExpectFirstAppearanceCodes(table.column(1), input.rows);
    EXPECT_FALSE(valued.Append(Value(int64_t{1})).ok());
  }
}

TEST(StringColumnTest, BothCsvLoadersReadBackTheReference) {
  for (const Input& input : Inputs()) {
    SCOPED_TRACE(input.name);
    const std::string path =
        ::testing::TempDir() + "/exploredb_strings_" + input.name + ".csv";
    const Table table = TableOf(input.rows);
    ASSERT_TRUE(WriteCsv(table, path).ok());

    Result<EagerLoadReport> eager = EagerLoad(path, table.schema());
    ASSERT_TRUE(eager.ok()) << eager.status().ToString();
    ExpectColumn(eager.ValueOrDie().table.column(1), input.rows, "EagerLoad");
    ExpectFirstAppearanceCodes(eager.ValueOrDie().table.column(1),
                               input.rows);

    Database db;
    ASSERT_TRUE(db.RegisterCsv("t", path, table.schema()).ok());
    TableEntry* entry = db.GetTable("t").ValueOrDie();
    const ColumnVector* col = entry->GetColumn(1).ValueOrDie();
    ExpectColumn(*col, input.rows, "RegisterCsv");
    ExpectFirstAppearanceCodes(*col, input.rows);
  }
}

TEST(StringColumnTest, GathersProjectionsAndCopiesShareTheDictionary) {
  ThreadPool pool(4);
  for (const Input& input : Inputs()) {
    SCOPED_TRACE(input.name);
    Table table = TableOf(input.rows);
    const ColumnVector& source = table.column(1);
    // Reordered, repeated, and more than one projection grain.
    Random rng(9);
    std::vector<uint32_t> positions;
    for (size_t i = 0; i < 5'000; ++i) {
      positions.push_back(
          static_cast<uint32_t>(rng.Uniform(input.rows.size())));
    }
    std::vector<std::string> want;
    for (uint32_t p : positions) want.push_back(input.rows[p]);

    const ColumnVector gathered = source.Gather(positions);
    ExpectColumn(gathered, want, "Gather");
    EXPECT_EQ(&gathered.dictionary(), &source.dictionary());
    ExpectColumn(table.Take(positions).column(1), want, "Table::Take");

    const Table copy = table;
    ExpectColumn(copy.column(1), input.rows, "Table copy");
    EXPECT_EQ(&copy.column(1).dictionary(), &source.dictionary());
    EXPECT_EQ(copy.column(1).string_data(), source.string_data());

    Database db;
    ASSERT_TRUE(db.CreateTable("t", std::move(table)).ok());
    TableEntry* entry = db.GetTable("t").ValueOrDie();
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      ExecContext ctx;
      ctx.SetThreadPool(p);
      Result<Table> projected = Executor::Project(entry, {"s"}, positions, ctx);
      ASSERT_TRUE(projected.ok());
      ExpectColumn(projected.ValueOrDie().column(0), want,
                   p == nullptr ? "Project serial" : "Project pooled");
      EXPECT_EQ(&projected.ValueOrDie().column(0).dictionary(),
                &entry->GetColumn(1).ValueOrDie()->dictionary());
    }
  }
}

TEST(StringColumnTest, AppendingANewValueToASharedDictionaryCopiesIt) {
  ColumnVector source(DataType::kString);
  for (const char* s : {"x", "y", "x"}) source.AppendString(s);
  ColumnVector copy = source;
  ASSERT_EQ(&copy.dictionary(), &source.dictionary());

  // A value the shared dictionary holds keeps sharing it.
  copy.AppendString("y");
  EXPECT_EQ(&copy.dictionary(), &source.dictionary());
  // A new one gives the copy a private dictionary; the source's is as it
  // was.
  copy.AppendString("z");
  EXPECT_NE(&copy.dictionary(), &source.dictionary());
  EXPECT_EQ(source.dictionary().values(),
            (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(copy.dictionary().values(),
            (std::vector<std::string>{"x", "y", "z"}));
  // The source, whose dictionary the copy once shared, copies too.
  const StringDictionary* before = &source.dictionary();
  source.AppendString("w");
  EXPECT_NE(&source.dictionary(), before);
  ExpectColumn(source, {"x", "y", "x", "w"}, "source");
  ExpectColumn(copy, {"x", "y", "x", "y", "z"}, "copy");
}

/// Two string columns: "label" (12 values) and "uid" (all distinct), plus a
/// double measure.
std::unique_ptr<Database> StringDb(std::vector<Input>* inputs) {
  *inputs = Inputs();
  Table t(Schema({{"label", DataType::kString},
                  {"uid", DataType::kString},
                  {"value", DataType::kDouble}}));
  for (size_t i = 0; i < (*inputs)[0].rows.size(); ++i) {
    EXPECT_TRUE(t.AppendRow({Value((*inputs)[0].rows[i]),
                             Value((*inputs)[1].rows[i]),
                             Value(static_cast<double>(i % 97) * 0.25)})
                    .ok());
  }
  auto db = std::make_unique<Database>();
  EXPECT_TRUE(db->CreateTable("t", std::move(t)).ok());
  return db;
}

TEST(StringColumnTest, FirstStringFilterAndGroupByBuildNothing) {
  std::vector<Input> inputs;
  std::unique_ptr<Database> db = StringDb(&inputs);
  Counter* builds = Metrics().GetCounter("exploredb_synopsis_builds_total");
  const uint64_t before = builds->Value();
  Executor exec(db.get());
  ExecContext budgeted;
  budgeted.SetBudget({.latency = std::chrono::seconds(10)});
  for (const ExecContext& ctx : {ExecContext{}, budgeted}) {
    Result<QueryResult> filtered = exec.Execute(
        Query::On("t")
            .Where(Predicate({{0, CompareOp::kEq, Value("UA")}}))
            .Aggregate(AggKind::kCount),
        ctx);
    ASSERT_TRUE(filtered.ok());
    EXPECT_GT(filtered.ValueOrDie().scalar->value, 0.0);
    Result<QueryResult> grouped = exec.Execute(
        Query::On("t").Aggregate(AggKind::kSum, "value").GroupBy("label"),
        ctx);
    ASSERT_TRUE(grouped.ok());
    EXPECT_EQ(grouped.ValueOrDie().groups.size(), 12u);
  }
  EXPECT_EQ(builds->Value(), before);
}

TEST(StringColumnTest, FiltersAndGroupByMatchAReferenceOnAndOffAtAnyThreads) {
  std::vector<Input> inputs;
  std::unique_ptr<Database> db = StringDb(&inputs);
  const std::vector<std::string>& label = inputs[0].rows;
  const std::vector<std::string>& uid = inputs[1].rows;
  struct Case {
    std::vector<Condition> where;
    std::string group_by;
  };
  const std::vector<Case> cases = {
      {{{0, CompareOp::kEq, Value("exactly-16-bytes")}}, "label"},
      {{{0, CompareOp::kNe, Value("")}}, "label"},
      {{{0, CompareOp::kEq, Value("absent")}}, "label"},
      {{{0, CompareOp::kNe, Value("absent")}, {1, CompareOp::kNe, uid[7]}},
       "uid"},
      {{{1, CompareOp::kEq, uid[42]}}, "uid"},
      {{{0, CompareOp::kNe, Value("UA")}, {0, CompareOp::kNe, Value("a")}},
       "uid"},
  };
  for (const Case& c : cases) {
    const Predicate where(c.where);
    SCOPED_TRACE(where.CacheKey() + " by " + c.group_by);
    // Reference: row by row over the input strings.
    std::vector<uint32_t> rows;
    std::map<std::string, double> counts;
    for (size_t r = 0; r < label.size(); ++r) {
      bool match = true;
      for (const Condition& cond : c.where) {
        const std::string& cell = cond.column == 0 ? label[r] : uid[r];
        match &= (cell == cond.constant.str()) == (cond.op == CompareOp::kEq);
      }
      if (!match) continue;
      rows.push_back(static_cast<uint32_t>(r));
      counts[c.group_by == "label" ? label[r] : uid[r]] += 1;
    }
    const Query select = Query::On("t").Where(where);
    const Query grouped = Query::On("t")
                              .Where(where)
                              .Aggregate(AggKind::kCount)
                              .GroupBy(c.group_by);
    for (bool compression : {true, false}) {
      for (size_t threads : {1u, 2u, 8u}) {
        SCOPED_TRACE(std::string(compression ? "on" : "off") + " threads " +
                     std::to_string(threads));
        ThreadPool pool(threads);
        Executor exec(db.get());
        ExecContext ctx;
        ctx.SetThreadPool(&pool).SetMorselSize(512);
        ctx.options().use_compression = compression;
        Result<QueryResult> sel = exec.Execute(select, ctx);
        ASSERT_TRUE(sel.ok());
        EXPECT_EQ(sel.ValueOrDie().positions, rows);
        Result<QueryResult> grp = exec.Execute(grouped, ctx);
        ASSERT_TRUE(grp.ok());
        const std::vector<GroupValue>& groups = grp.ValueOrDie().groups;
        ASSERT_EQ(groups.size(), counts.size());
        auto want = counts.begin();
        for (const GroupValue& g : groups) {
          EXPECT_EQ(g.key, want->first);
          EXPECT_EQ(g.value.value, want->second);
          ++want;
        }
      }
    }
  }
}

}  // namespace
}  // namespace exploredb
