// E24 — compressed columnar storage: ratio and scan throughput (DESIGN.md
// §2g). Encodes three int64 distributions (clustered -> RLE, small-domain ->
// FOR, full-range -> incompressible) and reports the achieved ratio, then
// sweeps predicate selectivity on an 8M-row table comparing compressed scans
// (packed-domain FOR filters + RLE run skipping) against the raw SIMD
// kernels, as count(*) (pure filter) and sum (filter + gather). Throughput
// is reported as effective GB/s over the RAW bytes the predicate covers —
// the number that shows compressed scans beating raw when blocks/runs are
// skipped. A second sweep adds a range on a raw double column to the ts
// bound — the crossfilter chart's mixed conjunction, where the compressed
// seed is refined by a conjunct that has no compressed form.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "storage/compression/compressed_column.h"

namespace exploredb {
namespace {

void ReportRatio(const char* name, const std::vector<int64_t>& data) {
  const CompressedInt64Column col = CompressedInt64Column::Encode(data);
  bench::Row(name, col.compression_ratio(),
             static_cast<uint64_t>(col.rle_block_count()),
             static_cast<uint64_t>(col.num_blocks()));
  bench::ReportJson(std::string("compress_ratio_") + name, 1, 0.0,
                    {{"ratio", col.compression_ratio()},
                     {"rle_blocks", static_cast<double>(col.rle_block_count())},
                     {"blocks", static_cast<double>(col.num_blocks())}});
}

void Run() {
  using bench::Row;
  const size_t rows = bench::ScaledRows(8'000'000);
  bench::Banner("E24", "compressed storage: ratio and scan throughput");

  // -- Compression ratio per distribution ----------------------------------
  Random rng(53);
  std::vector<int64_t> clustered(rows), small_domain(rows), full_range(rows);
  for (size_t i = 0; i < rows; ++i) {
    clustered[i] = static_cast<int64_t>(i / 2048);    // long runs -> RLE
    small_domain[i] = rng.UniformInt(0, 4095);        // 12-bit FOR
    full_range[i] = static_cast<int64_t>(rng.Next());  // ~64-bit FOR
  }
  Row("distribution", "ratio", "rle_blocks", "blocks");
  ReportRatio("clustered", clustered);
  ReportRatio("small_domain", small_domain);
  ReportRatio("full_range", full_range);

  // -- Scan throughput: compressed vs raw, by selectivity ------------------
  Schema schema({{"ts", DataType::kInt64},
                 {"val", DataType::kInt64},
                 {"delay", DataType::kDouble}});
  Table t(schema);
  t.Reserve(rows);
  Random delay_rng(59);
  for (size_t i = 0; i < rows; ++i) {
    t.mutable_column(0)->AppendInt64(clustered[i]);
    t.mutable_column(1)->AppendInt64(small_domain[i]);
    t.mutable_column(2)->AppendDouble(delay_rng.NextDouble() * 100);
  }
  Database db;
  if (!db.CreateTable("data", std::move(t)).ok()) return;
  Executor exec(&db);

  // Mean ms per query over `reps` runs: ms[0] raw, ms[1] compressed. One
  // untimed run first warms zone maps and compressed representations.
  auto time_both = [&](const Query& q, int reps, double ms[2]) {
    for (int compressed = 0; compressed < 2; ++compressed) {
      ExecContext ctx;
      ctx.options().use_compression = compressed != 0;
      if (!exec.Execute(q, ctx).ok()) return false;
      Stopwatch sw;
      for (int r = 0; r < reps; ++r) {
        if (!exec.Execute(q, ctx).ok()) return false;
      }
      ms[compressed] = sw.ElapsedSeconds() * 1e3 / reps;
    }
    return true;
  };

  const int64_t ts_max = clustered.back() + 1;
  const double raw_gb = static_cast<double>(rows) * sizeof(int64_t) / 1e9;

  Row("query", "selectivity", "raw_ms", "compressed_ms", "raw_gbps",
      "compressed_gbps");
  for (double sel : {0.01, 0.1, 0.5, 1.0}) {
    // Selective windows finish in microseconds; repeat them enough to
    // measure above timer noise.
    const int reps = sel <= 0.01 ? 200 : sel <= 0.1 ? 50 : 10;
    // RLE column: the window predicate every exploration slider issues.
    const int64_t hi = static_cast<int64_t>(sel * static_cast<double>(ts_max));
    Query q = Query::On("data")
                  .Where(Predicate({{0, CompareOp::kGe, Value(int64_t{0})},
                                    {0, CompareOp::kLt, Value(hi)}}))
                  .Aggregate(AggKind::kCount);
    double ms[2] = {0, 0};  // [raw, compressed]
    if (!time_both(q, reps, ms)) return;
    Row("count_rle", sel, ms[0], ms[1], raw_gb / (ms[0] / 1e3),
        raw_gb / (ms[1] / 1e3));
    bench::ReportJson("scan_count_rle_sel" + std::to_string(sel), reps,
                      ms[1] * 1e6,
                      {{"selectivity", sel},
                       {"raw_ms", ms[0]},
                       {"compressed_ms", ms[1]},
                       {"raw_gbps", raw_gb / (ms[0] / 1e3)},
                       {"compressed_gbps", raw_gb / (ms[1] / 1e3)}});

    // The exploration aggregate: same window, sum over the FOR-compressed
    // measure. The compressed path RLE-filters ts from run headers, then
    // gathers only the surviving 128-row sub-blocks of val (two columns
    // touched -> 2x raw bytes).
    Query qs = Query::On("data")
                   .Where(Predicate({{0, CompareOp::kGe, Value(int64_t{0})},
                                     {0, CompareOp::kLt, Value(hi)}}))
                   .Aggregate(AggKind::kSum, "val");
    if (!time_both(qs, reps, ms)) return;
    Row("sum_window", sel, ms[0], ms[1], 2 * raw_gb / (ms[0] / 1e3),
        2 * raw_gb / (ms[1] / 1e3));
    bench::ReportJson("scan_sum_window_sel" + std::to_string(sel), reps,
                      ms[1] * 1e6,
                      {{"selectivity", sel},
                       {"raw_ms", ms[0]},
                       {"compressed_ms", ms[1]},
                       {"raw_gbps", 2 * raw_gb / (ms[0] / 1e3)},
                       {"compressed_gbps", 2 * raw_gb / (ms[1] / 1e3)}});
  }

  // -- Mixed conjunction: compressed ts bound AND a raw double range --------
  // The slider keeps the latest `sel` of ts; the delay brush keeps 80% of
  // the rows it sees. The compressed plan seeds from ts run headers and
  // refines the survivors on the raw delay column.
  Row("query", "selectivity", "raw_ms", "compressed_ms");
  for (double sel : {0.01, 0.1, 0.5, 1.0}) {
    const int reps = sel <= 0.01 ? 200 : sel <= 0.1 ? 50 : 10;
    const auto since =
        static_cast<int64_t>((1.0 - sel) * static_cast<double>(ts_max));
    const Predicate mixed({{0, CompareOp::kGe, Value(since)},
                           {2, CompareOp::kGe, Value(10.0)},
                           {2, CompareOp::kLt, Value(90.0)}});
    for (AggKind kind : {AggKind::kCount, AggKind::kSum}) {
      Query q = Query::On("data").Where(mixed);
      if (kind == AggKind::kCount) {
        q.Aggregate(AggKind::kCount);
      } else {
        q.Aggregate(AggKind::kSum, "val");
      }
      double ms[2] = {0, 0};  // [raw, compressed]
      if (!time_both(q, reps, ms)) return;
      const std::string name =
          kind == AggKind::kCount ? "count_mixed" : "sum_mixed";
      Row(name, sel, ms[0], ms[1]);
      bench::ReportJson("scan_" + name + "_sel" + std::to_string(sel), reps,
                        ms[1] * 1e6,
                        {{"selectivity", sel},
                         {"raw_ms", ms[0]},
                         {"compressed_ms", ms[1]}});
    }
  }
}

}  // namespace
}  // namespace exploredb

int main() {
  exploredb::Run();
  return 0;
}
