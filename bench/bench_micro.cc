// Google-benchmark microbenchmarks of the core primitives that the
// experiment binaries build on: cracking a piece, sorted-index probes, full
// scans, reservoir sampling, Count-Min updates, HLL updates, online-agg
// steps. These quantify the per-operation costs the analytic arguments in
// DESIGN.md assume.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "cracking/baselines.h"
#include "cracking/cracker_column.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "engine/query.h"
#include "engine/session.h"
#include "obs/journal.h"
#include "sampling/online_agg.h"
#include "sampling/sampler.h"
#include "simd/simd.h"
#include "synopsis/count_min.h"
#include "synopsis/hyperloglog.h"

namespace exploredb {
namespace {

void BM_ScanRangeCount(benchmark::State& state) {
  auto data = bench::RandomInts(static_cast<size_t>(state.range(0)),
                                1'000'000, 1);
  ScanSelector scan(data);
  Random rng(2);
  for (auto _ : state) {
    int64_t lo = rng.UniformInt(0, 900'000);
    benchmark::DoNotOptimize(scan.RangeCount(lo, lo + 10'000));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScanRangeCount)->Arg(1 << 20)->Arg(1 << 22);

void BM_CrackingQuery(benchmark::State& state) {
  auto data = bench::RandomInts(static_cast<size_t>(state.range(0)),
                                1'000'000, 3);
  CrackerColumn col(data);
  Random rng(4);
  for (auto _ : state) {
    int64_t lo = rng.UniformInt(0, 900'000);
    benchmark::DoNotOptimize(col.RangeSelect(lo, lo + 10'000).count());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CrackingQuery)->Arg(1 << 20)->Arg(1 << 22);

void BM_SortedIndexProbe(benchmark::State& state) {
  auto data = bench::RandomInts(1 << 22, 1'000'000, 5);
  SortedIndex index(data);
  Random rng(6);
  for (auto _ : state) {
    int64_t lo = rng.UniformInt(0, 900'000);
    benchmark::DoNotOptimize(index.RangeCount(lo, lo + 10'000));
  }
}
BENCHMARK(BM_SortedIndexProbe);

void BM_ReservoirAdd(benchmark::State& state) {
  ReservoirSampler sampler(1024);
  uint32_t i = 0;
  for (auto _ : state) {
    sampler.Add(i++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReservoirAdd);

void BM_CountMinAdd(benchmark::State& state) {
  CountMinSketch cms(static_cast<size_t>(state.range(0)), 4);
  Random rng(7);
  for (auto _ : state) {
    cms.Add(static_cast<int64_t>(rng.Next() % 100000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountMinAdd)->Arg(256)->Arg(4096);

void BM_HllAdd(benchmark::State& state) {
  auto hll = HyperLogLog::Create(static_cast<int>(state.range(0)))
                 .ValueOrDie();
  Random rng(8);
  for (auto _ : state) {
    hll.Add(static_cast<int64_t>(rng.Next()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HllAdd)->Arg(10)->Arg(14);

/// Morsel-parallel full-column predicate scan through the executor, 10M-row
/// int64 column, selectivity ~10%. Arg = worker-thread count (0 = forced
/// serial path, no pool). Measures end-to-end Execute, so it includes the
/// position-merge and projection-free aggregate epilogue.
void BM_ParallelFullScan(benchmark::State& state) {
  static Database* db = [] {
    auto data = bench::RandomInts(bench::ScaledRows(10'000'000), 1'000'000, 11);
    Table t(Schema({{"v", DataType::kInt64}}));
    *t.mutable_column(0)->mutable_int64_data() = std::move(data);
    auto* d = new Database();
    if (!d->CreateTable("big", std::move(t)).ok()) std::abort();
    return d;
  }();
  Executor exec(db);
  const int threads = static_cast<int>(state.range(0));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  ExecContext ctx;
  ctx.SetThreadPool(pool.get());
  Query q = Query::On("big")
                .Where(Predicate({{0, CompareOp::kGe, Value(int64_t{100'000})},
                                  {0, CompareOp::kLt, Value(int64_t{200'000})}}))
                .Aggregate(AggKind::kCount);
  uint64_t rows = 0;
  for (auto _ : state) {
    auto r = exec.Execute(q, ctx);
    if (!r.ok()) std::abort();
    benchmark::DoNotOptimize(r.ValueOrDie().scalar->value);
    rows += r.ValueOrDie().stats().rows_scanned;
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows));
}
BENCHMARK(BM_ParallelFullScan)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Projection of a map-window selection through Executor::Project: two int64
/// columns and one double of a 5M-row table at 4.8K sorted random positions,
/// the shape of a panned window's rows. Iterations cycle through 256 such
/// selections, whose ~240 MB of touched cache lines exceed the last-level
/// cache, so loads miss cache and TLB as a live window's do. Arg =
/// worker-thread count (0 = no pool, the serial path).
void BM_ProjectGather(benchmark::State& state) {
  static Database* db = [] {
    const size_t n = bench::ScaledRows(5'000'000);
    Table t(Schema({{"lon", DataType::kInt64},
                    {"air_time", DataType::kInt64},
                    {"dep_delay", DataType::kDouble}}));
    *t.mutable_column(0)->mutable_int64_data() =
        bench::RandomInts(n, 1'000'000, 21);
    *t.mutable_column(1)->mutable_int64_data() = bench::RandomInts(n, 600, 22);
    Random rng(23);
    std::vector<double> delay(n);
    for (double& d : delay) d = rng.NextDouble() * 120 - 20;
    *t.mutable_column(2)->mutable_double_data() = std::move(delay);
    auto* d = new Database();
    if (!d->CreateTable("flights", std::move(t)).ok()) std::abort();
    return d;
  }();
  static const std::vector<std::vector<uint32_t>> windows = [] {
    const size_t n = bench::ScaledRows(5'000'000);
    Random rng(24);
    std::vector<std::vector<uint32_t>> w(256);
    for (std::vector<uint32_t>& p : w) {
      p.resize(std::min<size_t>(4'800, n));
      for (uint32_t& x : p) x = static_cast<uint32_t>(rng.Uniform(n));
      std::sort(p.begin(), p.end());
    }
    return w;
  }();
  TableEntry* entry = db->GetTable("flights").ValueOrDie();
  const std::vector<std::string> select = {"lon", "air_time", "dep_delay"};
  const int threads = static_cast<int>(state.range(0));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  ExecContext ctx;
  ctx.SetThreadPool(pool.get());
  size_t next = 0;
  for (auto _ : state) {
    const std::vector<uint32_t>& positions = windows[next++ % windows.size()];
    auto rows = Executor::Project(entry, select, positions, ctx);
    if (!rows.ok()) std::abort();
    benchmark::DoNotOptimize(rows.ValueOrDie().column(2).double_data().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(windows[0].size()) * 3);
}
BENCHMARK(BM_ProjectGather)->Arg(0)->Arg(1)->Arg(2)->Arg(4)
    ->UseRealTime()->Unit(benchmark::kMicrosecond);

/// Zone-map pruned selective scan: a clustered (sorted) int64 column where
/// the predicate window selects ~1% of rows, so nearly every morsel's
/// [min,max] misses the window. Arg = 1 with pruning, 0 without; the ratio
/// is the zone-map speedup on exploration-shaped (clustered) data.
size_t ClusteredRows() { return bench::ScaledRows(10'000'000); }

Database* ClusteredDb() {
  static Database* db = [] {
    const size_t n = ClusteredRows();
    Table t(Schema({{"v", DataType::kInt64}}));
    std::vector<int64_t> data(n);
    for (size_t i = 0; i < n; ++i) data[i] = static_cast<int64_t>(i);
    *t.mutable_column(0)->mutable_int64_data() = std::move(data);
    auto* d = new Database();
    if (!d->CreateTable("clustered", std::move(t)).ok()) std::abort();
    return d;
  }();
  return db;
}

void BM_ZoneMapSelectiveScan(benchmark::State& state) {
  const size_t n = ClusteredRows();
  Database* db = ClusteredDb();
  Executor exec(db);
  ExecContext ctx;
  ctx.SetThreadPool(nullptr);
  ctx.options().use_zone_maps = state.range(0) != 0;
  const int64_t lo = static_cast<int64_t>(n / 2);
  const int64_t hi = lo + static_cast<int64_t>(n / 100);
  Query q = Query::On("clustered")
                .Where(Predicate({{0, CompareOp::kGe, Value(lo)},
                                  {0, CompareOp::kLt, Value(hi)}}))
                .Aggregate(AggKind::kCount);
  uint64_t rows = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    auto r = exec.Execute(q, ctx);
    if (!r.ok()) std::abort();
    benchmark::DoNotOptimize(r.ValueOrDie().scalar->value);
    rows += r.ValueOrDie().stats().rows_scanned;
  }
  const auto t1 = std::chrono::steady_clock::now();
  state.SetItemsProcessed(static_cast<int64_t>(rows));
  state.counters["rows_scanned"] =
      benchmark::Counter(static_cast<double>(rows) / state.iterations());
  const double ns_per_op =
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count()) /
                static_cast<double>(state.iterations());
  bench::ReportJson(
      std::string("zone_map_scan_") +
          (state.range(0) != 0 ? "pruned" : "unpruned"),
      state.iterations(), ns_per_op,
      {{"rows_scanned_per_op",
        state.iterations() == 0
            ? 0.0
            : static_cast<double>(rows) /
                  static_cast<double>(state.iterations())}});
}
BENCHMARK(BM_ZoneMapSelectiveScan)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// E25 — always-on journal overhead: a 10M-row window count through a
/// Session (the journal's emission point), with the journal disabled (Arg 0)
/// vs journaling every query to a file (Arg 1). The column is unsorted
/// uniform data, so neither zone maps nor the sorted fast path can shortcut
/// the scan: every count pays the full 10M-row pass the experiment is named
/// for. The window slides each iteration so the result cache never serves
/// it; the on/off ns_per_op delta is the absolute per-query journal cost,
/// and the ratio is the headline overhead.
void BM_JournalOverheadWindowCount(benchmark::State& state) {
  const size_t n = ClusteredRows();
  static Database* db = [] {
    const size_t rows = ClusteredRows();
    Table t(Schema({{"v", DataType::kInt64}}));
    *t.mutable_column(0)->mutable_int64_data() =
        bench::RandomInts(rows, static_cast<int64_t>(rows), 23);
    auto* d = new Database();
    if (!d->CreateTable("uniform", std::move(t)).ok()) std::abort();
    return d;
  }();
  const bool journal_on = state.range(0) != 0;
  const std::string path = "/tmp/exploredb_bench_journal.jsonl";
  if (journal_on) {
    if (!WorkloadJournal::Global().EnableFile(path).ok()) {
      state.SkipWithError("journal EnableFile failed");
      return;
    }
  } else {
    WorkloadJournal::Global().Disable();
  }
  SessionOptions options;
  options.speculate = false;
  Session session(db, options);
  ExecContext ctx;
  ctx.SetThreadPool(nullptr);
  const int64_t width = static_cast<int64_t>(n / 100);
  uint64_t iter = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    // 64 distinct sliding windows: every execution misses the result cache.
    const int64_t lo =
        static_cast<int64_t>(n / 4) +
        static_cast<int64_t>(iter++ % 64) * static_cast<int64_t>(n / 512);
    Query q = Query::On("uniform")
                  .Where(Predicate({{0, CompareOp::kGe, Value(lo)},
                                    {0, CompareOp::kLt, Value(lo + width)}}))
                  .Aggregate(AggKind::kCount);
    auto r = session.Execute(q, ctx);
    if (!r.ok()) std::abort();
    benchmark::DoNotOptimize(r.ValueOrDie().scalar->value);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double ns_per_op =
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count()) /
                static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(n));
  if (journal_on) {
    state.counters["journal_appended"] = static_cast<double>(
        WorkloadJournal::Global().appended());
    state.counters["journal_dropped"] = static_cast<double>(
        WorkloadJournal::Global().dropped());
    WorkloadJournal::Global().Disable();
    std::remove(path.c_str());
  }
  bench::ReportJson(
      std::string("journal_overhead_") + (journal_on ? "on" : "off"),
      state.iterations(), ns_per_op,
      {{"rows_per_op", static_cast<double>(n)}});
}
BENCHMARK(BM_JournalOverheadWindowCount)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

Database* GroupByDb() {
  static Database* db = [] {
    const size_t n = bench::ScaledRows(1'000'000);
    Table t(Schema({{"g", DataType::kInt64}, {"v", DataType::kDouble}}));
    Random rng(13);
    auto* groups = t.mutable_column(0)->mutable_int64_data();
    auto* values = t.mutable_column(1)->mutable_double_data();
    groups->resize(n);
    values->resize(n);
    for (size_t i = 0; i < n; ++i) {
      (*groups)[i] = rng.UniformInt(0, 99);
      (*values)[i] = rng.NextDouble() * 100;
    }
    auto* d = new Database();
    if (!d->CreateTable("sales", std::move(t)).ok()) std::abort();
    return d;
  }();
  return db;
}

/// GROUP BY SUM through the executor's typed hash aggregation (dense int64
/// path here: 100 groups). Arg = worker threads (0 = serial).
void BM_GroupByHashSum(benchmark::State& state) {
  Database* db = GroupByDb();
  Executor exec(db);
  const int threads = static_cast<int>(state.range(0));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  ExecContext ctx;
  ctx.SetThreadPool(pool.get());
  Query q = Query::On("sales").Aggregate(AggKind::kSum, "v").GroupBy("g");
  for (auto _ : state) {
    auto r = exec.Execute(q, ctx);
    if (!r.ok() || r.ValueOrDie().groups.size() != 100) std::abort();
    benchmark::DoNotOptimize(r.ValueOrDie().groups.front().value.value);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(bench::ScaledRows(1'000'000)));
}
BENCHMARK(BM_GroupByHashSum)->Arg(0)->Arg(4)->Unit(benchmark::kMillisecond);

/// The accumulator this PR replaced: row-at-a-time std::map keyed by the
/// stringified group value. Kept as an inline replica so the speedup of the
/// typed hash path stays measurable.
void BM_GroupByLegacyMap(benchmark::State& state) {
  Database* db = GroupByDb();
  auto* entry = db->GetTable("sales").ValueOrDie();
  const Table* table = entry->Materialized().ValueOrDie();
  const ColumnVector& gcol = table->column(0);
  const ColumnVector& vcol = table->column(1);
  for (auto _ : state) {
    struct Acc {
      double sum = 0;
      uint64_t count = 0;
    };
    std::map<std::string, Acc> groups;
    for (size_t row = 0; row < table->num_rows(); ++row) {
      Acc& acc = groups[gcol.GetValue(row).ToString()];
      ++acc.count;
      acc.sum += vcol.GetDouble(row);
    }
    if (groups.size() != 100) std::abort();
    benchmark::DoNotOptimize(groups.begin()->second.sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(table->num_rows()));
}
BENCHMARK(BM_GroupByLegacyMap)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// SIMD kernel sweeps. Each benchmark drives one dispatched kernel table
// directly (simd::KernelsFor, bypassing the runtime CPU probe) over the same
// 4M-element column, with Arg = predicate selectivity in percent. The
// Scalar/SSE42/AVX2 triples expose the speedup of each ISA tier at 1/10/50/
// 90% selectivity; results also land in $EXPLOREDB_BENCH_JSON (BENCH_simd
// .json in CI) through the shared JsonReporter.
// ---------------------------------------------------------------------------

constexpr size_t kKernelRows = size_t{1} << 22;
constexpr int64_t kKernelDomain = 1'000'000;

/// Uniform int64 column in [0, kKernelDomain): a `< pct * domain/100`
/// threshold selects pct% of rows.
const std::vector<int64_t>& KernelInts() {
  static const std::vector<int64_t> data =
      bench::RandomInts(kKernelRows, kKernelDomain, 17);
  return data;
}

const std::vector<double>& KernelDoubles() {
  static const std::vector<double> data = [] {
    std::vector<double> v(kKernelRows);
    Random rng(19);
    for (double& x : v) x = rng.NextDouble() * 100.0;
    return v;
  }();
  return data;
}

/// Selection vector holding ~pct% of row ids, spread uniformly.
std::vector<uint32_t> SelectionAtDensity(int pct) {
  static const std::vector<int64_t> coins =
      bench::RandomInts(kKernelRows, 100, 23);
  std::vector<uint32_t> sel;
  sel.reserve(kKernelRows * static_cast<size_t>(pct) / 100 + 1);
  for (size_t i = 0; i < kKernelRows; ++i) {
    if (coins[i] < pct) sel.push_back(static_cast<uint32_t>(i));
  }
  return sel;
}

void FilterKernelBench(benchmark::State& state, simd::SimdPath path,
                       const char* label) {
  if (!simd::PathSupported(path)) {
    state.SkipWithError("SIMD path unsupported on this CPU");
    return;
  }
  const simd::KernelTable& kt = simd::KernelsFor(path);
  const std::vector<int64_t>& data = KernelInts();
  const auto n = static_cast<uint32_t>(data.size());
  const int64_t threshold =
      state.range(0) * (kKernelDomain / 100);  // Arg = selectivity %.
  std::vector<uint32_t> out(data.size());
  uint32_t matches = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    matches = kt.filter_i64_cmp(data.data(), 0, n, simd::Cmp::kLt, threshold,
                                out.data());
    benchmark::DoNotOptimize(matches);
    benchmark::ClobberMemory();
  }
  const auto t1 = std::chrono::steady_clock::now();
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["matches"] = static_cast<double>(matches);
  const double ns_per_op =
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count()) /
                static_cast<double>(state.iterations());
  bench::ReportJson(
      std::string("simd_filter_") + label + "_sel" +
          std::to_string(state.range(0)),
      state.iterations(), ns_per_op,
      {{"rows_per_op", static_cast<double>(n)},
       {"rows_per_s", ns_per_op > 0 ? n * 1e9 / ns_per_op : 0.0}});
}

void BM_FilterKernel_Scalar(benchmark::State& state) {
  FilterKernelBench(state, simd::SimdPath::kScalar, "scalar");
}
void BM_FilterKernel_SSE42(benchmark::State& state) {
  FilterKernelBench(state, simd::SimdPath::kSse42, "sse42");
}
void BM_FilterKernel_AVX2(benchmark::State& state) {
  FilterKernelBench(state, simd::SimdPath::kAvx2, "avx2");
}
BENCHMARK(BM_FilterKernel_Scalar)->Arg(1)->Arg(10)->Arg(50)->Arg(90);
BENCHMARK(BM_FilterKernel_SSE42)->Arg(1)->Arg(10)->Arg(50)->Arg(90);
BENCHMARK(BM_FilterKernel_AVX2)->Arg(1)->Arg(10)->Arg(50)->Arg(90);

void MaskedSumBench(benchmark::State& state, simd::SimdPath path,
                    const char* label) {
  if (!simd::PathSupported(path)) {
    state.SkipWithError("SIMD path unsupported on this CPU");
    return;
  }
  const simd::KernelTable& kt = simd::KernelsFor(path);
  const std::vector<double>& values = KernelDoubles();
  const std::vector<uint32_t> sel =
      SelectionAtDensity(static_cast<int>(state.range(0)));
  const auto count = static_cast<uint32_t>(sel.size());
  double sum = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    sum = kt.sum_f64_sel(values.data(), sel.data(), count);
    benchmark::DoNotOptimize(sum);
  }
  const auto t1 = std::chrono::steady_clock::now();
  state.SetItemsProcessed(state.iterations() * count);
  const double ns_per_op =
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count()) /
                static_cast<double>(state.iterations());
  bench::ReportJson(
      std::string("simd_masked_sum_") + label + "_sel" +
          std::to_string(state.range(0)),
      state.iterations(), ns_per_op,
      {{"selected_rows", static_cast<double>(count)},
       {"rows_per_s", ns_per_op > 0 ? count * 1e9 / ns_per_op : 0.0}});
}

void BM_MaskedSum_Scalar(benchmark::State& state) {
  MaskedSumBench(state, simd::SimdPath::kScalar, "scalar");
}
void BM_MaskedSum_SSE42(benchmark::State& state) {
  MaskedSumBench(state, simd::SimdPath::kSse42, "sse42");
}
void BM_MaskedSum_AVX2(benchmark::State& state) {
  MaskedSumBench(state, simd::SimdPath::kAvx2, "avx2");
}
BENCHMARK(BM_MaskedSum_Scalar)->Arg(1)->Arg(10)->Arg(50)->Arg(90);
BENCHMARK(BM_MaskedSum_SSE42)->Arg(1)->Arg(10)->Arg(50)->Arg(90);
BENCHMARK(BM_MaskedSum_AVX2)->Arg(1)->Arg(10)->Arg(50)->Arg(90);

void BM_OnlineAggBatch(benchmark::State& state) {
  Random rng(9);
  std::vector<double> values(1 << 20);
  for (double& v : values) v = rng.NextDouble();
  for (auto _ : state) {
    state.PauseTiming();
    OnlineAggregator agg(values, {}, AggKind::kAvg);
    state.ResumeTiming();
    agg.ProcessNext(1 << 16);
    benchmark::DoNotOptimize(agg.Current().value);
  }
  state.SetItemsProcessed(state.iterations() * (1 << 16));
}
BENCHMARK(BM_OnlineAggBatch);

}  // namespace
}  // namespace exploredb

BENCHMARK_MAIN();
