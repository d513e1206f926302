// E6 — BlinkDB-shaped error/latency trade-off [tutorial refs 7, 6].
// AVG with a predicate over 4M rows at sample fractions from 0.05% to 50%:
// latency falls roughly linearly with the fraction while the realized error
// and the reported CI shrink as ~1/sqrt(fraction). The same AVG grouped by
// an 8-value string column shows the grouped sample plan. Exact answers are
// timed warm (the median of five runs), after a first (cold) run has built
// the zone map and the compressed column the scan reads; the cold run is
// its own record.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "sampling/outlier_index.h"

namespace exploredb {
namespace {

constexpr size_t kRows = 4'000'000;
constexpr double kFractions[] = {0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5};

/// Runs `q` under `ctx`, in milliseconds.
Result<QueryResult> Timed(Executor* exec, const Query& q,
                          const ExecContext& ctx, double* ms) {
  Stopwatch timer;
  Result<QueryResult> r = exec->Execute(q, ctx);
  *ms = timer.ElapsedSeconds() * 1e3;
  return r;
}

/// Runs the exact `q` five times; *ms is the median time. One run would
/// also time the allocator's state, which the queries before it set.
Result<QueryResult> TimedWarm(Executor* exec, const Query& q, double* ms) {
  double runs[5] = {};
  Result<QueryResult> r = Timed(exec, q, {}, &runs[0]);
  for (int i = 1; i < 5 && r.ok(); ++i) r = Timed(exec, q, {}, &runs[i]);
  std::sort(runs, runs + 5);
  *ms = runs[2];
  return r;
}

void Run() {
  using bench::Row;
  bench::Banner("E6", "AQP error vs latency (AVG over 4M rows)");

  Schema schema({{"key", DataType::kInt64},
                 {"value", DataType::kDouble},
                 {"carrier", DataType::kString}});
  const char* const kCarriers[] = {"AA", "B6", "DL", "F9",
                                   "HA", "NK", "UA", "WN"};
  Table t(schema);
  t.Reserve(kRows);
  Random rng(23);
  for (size_t i = 0; i < kRows; ++i) {
    t.mutable_column(0)->AppendInt64(rng.UniformInt(0, 999));
    t.mutable_column(1)->AppendDouble(100 + rng.NextGaussian() * 25);
    t.mutable_column(2)->AppendString(kCarriers[i % 8]);
  }
  Database db;
  if (!db.CreateTable("data", std::move(t)).ok()) return;
  Executor exec(&db);

  Query q = Query::On("data")
                .Where(Predicate({{0, CompareOp::kLt, Value(int64_t{500})}}))
                .Aggregate(AggKind::kAvg, "value");

  // Exact reference: cold, then warm.
  double cold_ms = 0;
  double exact_ms = 0;
  if (!Timed(&exec, q, {}, &cold_ms).ok()) return;
  auto exact = TimedWarm(&exec, q, &exact_ms);
  if (!exact.ok()) return;
  const double truth = exact.ValueOrDie().scalar->value;

  Row("sample_fraction", "latency_ms", "abs_error", "ci_half_width",
      "rows_touched");
  ExecContext sampled;
  sampled.options().mode = ExecutionMode::kSampled;
  for (double fraction : kFractions) {
    sampled.options().sample_fraction = fraction;
    double ms = 0;
    auto r = Timed(&exec, q, sampled, &ms);
    if (!r.ok()) return;
    const Estimate& e = *r.ValueOrDie().scalar;
    const double abs_error = std::abs(e.value - truth);
    const uint64_t rows = r.ValueOrDie().stats().rows_scanned;
    Row(fraction, ms, abs_error, e.ci_half_width, rows);
    bench::ReportJson("aqp_sampled_avg", 1, ms * 1e6,
                      {{"sample_fraction", fraction},
                       {"abs_error", abs_error},
                       {"ci_half_width", e.ci_half_width},
                       {"rows_touched", static_cast<double>(rows)}});
  }
  Row(1.0, exact_ms, 0.0, 0.0, static_cast<uint64_t>(kRows));
  bench::ReportJson("aqp_exact_avg", 1, exact_ms * 1e6,
                    {{"rows_touched", static_cast<double>(kRows)}});
  bench::ReportJson("aqp_exact_avg_cold", 1, cold_ms * 1e6,
                    {{"rows_touched", static_cast<double>(kRows)}});
  std::printf("exact, first (cold) run: %.4f ms\n", cold_ms);

  // The same AVG per carrier: the largest error and interval over the 8
  // groups. The exact grouped answer is timed warm too.
  Query grouped = q;
  grouped.GroupBy("carrier");
  double grouped_ms = 0;
  auto want = TimedWarm(&exec, grouped, &grouped_ms);
  if (!want.ok()) return;
  const std::vector<GroupValue>& truths = want.ValueOrDie().groups;
  std::printf("\n");
  Row("grouped_fraction", "latency_ms", "max_abs_error", "max_ci_half_width",
      "rows_touched");
  for (double fraction : kFractions) {
    sampled.options().sample_fraction = fraction;
    double ms = 0;
    auto r = Timed(&exec, grouped, sampled, &ms);
    if (!r.ok()) return;
    double max_error = 0;
    double max_width = 0;
    for (const GroupValue& g : r.ValueOrDie().groups) {
      for (const GroupValue& w : truths) {
        if (w.key == g.key) {
          max_error = std::max(max_error, std::abs(g.value.value -
                                                   w.value.value));
        }
      }
      max_width = std::max(max_width, g.value.ci_half_width);
    }
    const uint64_t rows = r.ValueOrDie().stats().rows_scanned;
    Row(fraction, ms, max_error, max_width, rows);
    bench::ReportJson("aqp_sampled_grouped_avg", 1, ms * 1e6,
                      {{"sample_fraction", fraction},
                       {"max_abs_error", max_error},
                       {"max_ci_half_width", max_width},
                       {"rows_touched", static_cast<double>(rows)}});
  }
  Row(1.0, grouped_ms, 0.0, 0.0, static_cast<uint64_t>(kRows));
  bench::ReportJson("aqp_exact_grouped_avg", 1, grouped_ms * 1e6,
                    {{"rows_touched", static_cast<double>(kRows)}});
}

void RunOutlier() {
  using bench::Row;
  bench::Banner("E6b",
                "outlier-indexed vs uniform sampling (heavy-tailed SUM)");
  Random rng(31);
  std::vector<double> values(2'000'000);
  double true_sum = 0;
  for (double& v : values) {
    v = rng.NextDouble() * 10;
    if (rng.Uniform(2000) == 0) v += 50'000;  // rare massive transactions
    true_sum += v;
  }
  Row("total_budget_rows", "uniform_rel_err_pct", "outlier_rel_err_pct",
      "uniform_ci_pct", "outlier_ci_pct");
  for (size_t budget : {1000u, 5000u, 20000u}) {
    double uniform_err = 0, outlier_err = 0, uniform_ci = 0, outlier_ci = 0;
    const int reps = 10;
    for (int rep = 0; rep < reps; ++rep) {
      Estimate uni = OutlierIndexedSample::UniformSumEstimate(
          values, budget, 100 + rep);
      auto s = OutlierIndexedSample::Build(values, budget / 5,
                                           budget - budget / 5, 100 + rep);
      if (!s.ok()) return;
      Estimate idx = s.ValueOrDie().EstimateSum();
      uniform_err += std::abs(uni.value - true_sum) / true_sum;
      outlier_err += std::abs(idx.value - true_sum) / true_sum;
      uniform_ci += uni.ci_half_width / true_sum;
      outlier_ci += idx.ci_half_width / true_sum;
    }
    Row(budget, 100 * uniform_err / reps, 100 * outlier_err / reps,
        100 * uniform_ci / reps, 100 * outlier_ci / reps);
  }
}

}  // namespace
}  // namespace exploredb

int main() {
  exploredb::Run();
  exploredb::RunOutlier();
  return 0;
}
