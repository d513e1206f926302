// E7 — Online aggregation CI shrinkage [tutorial refs 25, 24]. A running
// AVG over randomly-permuted rows: the estimate is close almost
// immediately, and the confidence interval narrows as ~1/sqrt(n) with a
// finite-population collapse at a complete scan — the figure the CONTROL
// project made famous. A last row runs a whole kOnline AVG through the
// executor: the input build (predicate mask and widened measure), then
// the refinement loop to exhaustion.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "sampling/online_agg.h"

namespace exploredb {
namespace {

void Run() {
  using bench::Row;
  const size_t rows = bench::ScaledRows(5'000'000);
  bench::Banner("E7", "online aggregation convergence (AVG, 5M rows)");

  Random rng(29);
  std::vector<double> values(rows);
  double total = 0;
  for (double& v : values) {
    v = 50 + rng.NextGaussian() * 20;
    total += v;
  }
  double truth = total / static_cast<double>(rows);

  OnlineAggregator agg(values, {}, AggKind::kAvg);
  Stopwatch timer;
  Row("pct_processed", "elapsed_ms", "estimate", "abs_error",
      "ci_half_width_95");
  for (double stop_pct : {0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0}) {
    size_t target = static_cast<size_t>(rows * stop_pct / 100.0);
    while (agg.rows_processed() < target) {
      agg.ProcessNext(target - agg.rows_processed());
    }
    Estimate e = agg.Current(0.95);
    const double elapsed_ms = timer.ElapsedSeconds() * 1e3;
    Row(stop_pct, elapsed_ms, e.value, std::abs(e.value - truth),
        e.ci_half_width);
    char name[48];
    std::snprintf(name, sizeof(name), "online_agg_pct%g", stop_pct);
    bench::ReportJson(name, target,
                      target ? elapsed_ms * 1e6 / static_cast<double>(target)
                             : 0.0,
                      {{"abs_error", std::abs(e.value - truth)},
                       {"ci_half_width_95", e.ci_half_width}});
  }
}

/// kOnline AVG(v) WHERE k < 500 over uniform k in [0, 1000): a one-conjunct
/// int64 predicate at 50% selectivity and an int64 measure, run to
/// exhaustion on the process-wide pool. Median of three runs.
void RunExecutor() {
  using bench::Row;
  const size_t rows = bench::ScaledRows(5'000'000);
  Table t(Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}}));
  t.Reserve(rows);
  Random rng(31);
  for (size_t i = 0; i < rows; ++i) {
    t.mutable_column(0)->AppendInt64(rng.UniformInt(0, 999));
    t.mutable_column(1)->AppendInt64(rng.UniformInt(0, 99));
  }
  Database db;
  if (!db.CreateTable("t", std::move(t)).ok()) return;
  Executor exec(&db);
  const Query q = Query::On("t")
                      .Where(Predicate({{0, CompareOp::kLt,
                                         Value(int64_t{500})}}))
                      .Aggregate(AggKind::kAvg, "v");
  ExecContext ctx;
  ctx.SetMode(ExecutionMode::kOnline);  // error_budget 0: to exhaustion
  std::vector<ExecStats> runs;
  for (int i = 0; i < 3; ++i) {
    auto r = exec.Execute(q, ctx);
    if (!r.ok()) return;
    runs.push_back(r.ValueOrDie().exec_stats);
  }
  std::sort(runs.begin(), runs.end(), [](const auto& a, const auto& b) {
    return a.total_nanos < b.total_nanos;
  });
  const ExecStats& median = runs[1];
  std::printf("\nexecutor kOnline AVG, %zu rows, 50%% selectivity:\n", rows);
  Row("total_ms", "select_ms", "threads");
  Row(median.total_nanos / 1e6, median.select_nanos / 1e6,
      median.threads_used);
  bench::ReportJson("online_agg_executor_avg", rows,
                    static_cast<double>(median.total_nanos) /
                        static_cast<double>(rows),
                    {{"total_ms", median.total_nanos / 1e6},
                     {"select_ms", median.select_nanos / 1e6}});
}

}  // namespace
}  // namespace exploredb

int main() {
  exploredb::Run();
  exploredb::RunExecutor();
  return 0;
}
