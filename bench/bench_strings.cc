// E27 — string columns stored as dictionary codes (DESIGN.md §2g). For a
// 5M-row string column with 12, 64 and 5M distinct values it reports the
// resident bytes per row the column adds, the time to copy a Table holding
// it, and the time of the first and of a second budgeted GROUP BY on a
// fresh Database. A last run times the eager load of a string-heavy CSV,
// where every string field is hashed into its column's dictionary as it is
// parsed. Memory is read from /proc/self/statm after returning freed pages
// to the OS, so the bytes per row include the dictionary.

#include <malloc.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "loading/eager_loader.h"
#include "storage/csv.h"

namespace exploredb {
namespace {

/// Resident set size in bytes, after handing freed memory back to the OS.
double ResidentBytes() {
  malloc_trim(0);
  std::ifstream statm("/proc/self/statm");
  size_t pages = 0;
  size_t resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

/// Row `i` of a column of `distinct` values (0: every row distinct, as
/// "id-<i>").
std::string ValueOf(size_t i, size_t distinct, Random* rng) {
  std::string value = distinct == 0 ? "id-" : "v";
  value += std::to_string(distinct == 0 ? i : rng->Uniform(distinct));
  return value;
}

void RunColumn(size_t rows, size_t distinct, const char* name) {
  Schema schema({{"s", DataType::kString}, {"x", DataType::kDouble}});
  const double rss0 = ResidentBytes();
  Stopwatch build;
  Table table(schema);
  table.Reserve(rows);
  Random rng(27);
  for (size_t i = 0; i < rows; ++i) {
    table.mutable_column(0)->AppendString(ValueOf(i, distinct, &rng));
    table.mutable_column(1)->AppendDouble(static_cast<double>(i % 1000));
  }
  const double build_ms = build.ElapsedSeconds() * 1e3;
  // The double column is 8 bytes per row; the rest is the string column.
  const double bytes_per_row =
      (ResidentBytes() - rss0) / static_cast<double>(rows) - 8.0;

  Stopwatch copy_timer;
  Table copy = table;
  const double copy_ms = copy_timer.ElapsedSeconds() * 1e3;

  Database db;
  if (!db.CreateTable("t", std::move(copy)).ok()) return;
  Executor exec(&db);
  ExecContext ctx;
  ctx.SetBudget({.latency = std::chrono::seconds(30)});
  const Query grouped =
      Query::On("t").Aggregate(AggKind::kSum, "x").GroupBy("s");
  double group_ms[2] = {0, 0};
  size_t groups = 0;
  for (double& ms : group_ms) {
    Stopwatch timer;
    Result<QueryResult> r = exec.Execute(grouped, ctx);
    ms = timer.ElapsedSeconds() * 1e3;
    if (!r.ok()) return;
    groups = r.ValueOrDie().groups.size();
  }
  bench::Row(name, bytes_per_row, build_ms, copy_ms, group_ms[0],
             group_ms[1], static_cast<uint64_t>(groups));
  bench::ReportJson(std::string("string_column_") + name, 1, copy_ms * 1e6,
                    {{"bytes_per_row", bytes_per_row},
                     {"build_ms", build_ms},
                     {"copy_ms", copy_ms},
                     {"first_group_by_ms", group_ms[0]},
                     {"second_group_by_ms", group_ms[1]},
                     {"groups", static_cast<double>(groups)}});
}

void RunCsvLoad(size_t rows) {
  Schema schema({{"carrier", DataType::kString},
                 {"origin", DataType::kString},
                 {"id", DataType::kString},
                 {"delay", DataType::kDouble}});
  Random rng(31);
  const std::string path =
      (std::filesystem::temp_directory_path() / "exploredb_bench_strings.csv")
          .string();
  {
    Table t(schema);
    for (size_t i = 0; i < rows; ++i) {
      if (!t.AppendRow({Value(ValueOf(i, 12, &rng)),
                        Value(ValueOf(i, 64, &rng)), Value(ValueOf(i, 0, &rng)),
                        Value(static_cast<double>(i % 1000))})
               .ok()) {
        return;
      }
    }
    if (!WriteCsv(t, path).ok()) return;
  }
  Stopwatch timer;
  Result<EagerLoadReport> loaded = EagerLoad(path, schema);
  const double load_ms = timer.ElapsedSeconds() * 1e3;
  std::remove(path.c_str());
  if (!loaded.ok()) return;
  bench::Row("csv_load", static_cast<uint64_t>(rows), load_ms,
             load_ms * 1e6 / static_cast<double>(rows));
  bench::ReportJson("string_csv_load", 1, load_ms * 1e6,
                    {{"rows", static_cast<double>(rows)},
                     {"load_ms", load_ms}});
}

void Run() {
  using bench::Row;
  const size_t rows = bench::ScaledRows(5'000'000);
  bench::Banner("E27", "string columns as dictionary codes");
  Row("column", "bytes_per_row", "build_ms", "copy_ms", "first_groupby_ms",
      "second_groupby_ms", "groups");
  RunColumn(rows, 12, "distinct_12");
  RunColumn(rows, 64, "distinct_64");
  RunColumn(rows, 0, "all_distinct");
  Row("csv (3 string cols)", "rows", "load_ms", "ns_per_row");
  RunCsvLoad(bench::ScaledRows(1'000'000));
}

}  // namespace
}  // namespace exploredb

int main() {
  exploredb::Run();
  return 0;
}
