#include "engine/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <unordered_map>

#include "common/check.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "engine/group_by.h"
#include "engine/planner.h"
#include "sampling/sampler.h"
#include "simd/simd.h"
#include "storage/zone_map.h"

namespace exploredb {

namespace {

// Engine-level metrics, resolved once. Counters are thread-sharded relaxed
// adds; the histogram powers the p50/p95/p99 query-latency panels.
Counter* QueriesCounter() {
  static Counter* c = Metrics().GetCounter(
      "exploredb_queries_total", "Queries executed by the engine");
  return c;
}

Histogram* QueryLatencyHistogram() {
  static Histogram* h = [] {
    Histogram* hist = Metrics().GetHistogram(
        "exploredb_query_latency_seconds", {},
        "End-to-end query latency (recorded in ns, exposed in seconds)");
    Metrics().SetScale("exploredb_query_latency_seconds", 1e-9);
    return hist;
  }();
  return h;
}

Counter* RowsScannedCounter() {
  static Counter* c = Metrics().GetCounter(
      "exploredb_rows_scanned_total", "Row visits across all query phases");
  return c;
}

Counter* MorselsDispatchedCounter() {
  static Counter* c = Metrics().GetCounter(
      "exploredb_morsels_dispatched_total",
      "Parallel work units issued by the executor");
  return c;
}

Counter* ZoneMapCheckedCounter() {
  static Counter* c = Metrics().GetCounter(
      "exploredb_zonemap_morsels_checked_total",
      "Morsels tested against zone-map bounds");
  return c;
}

Counter* ZoneMapPrunedCounter() {
  static Counter* c = Metrics().GetCounter(
      "exploredb_zonemap_morsels_pruned_total",
      "Morsels skipped because no zone overlapping them can match");
  return c;
}

/// Per-path query counters: which kernel table (scalar/SSE4.2/AVX2) actually
/// served production queries. A deploy that silently loses its AVX2 path —
/// wrong container base image, EXPLOREDB_SIMD left over from a debug session
/// — shows up here as the scalar counter climbing.
Counter* SimdPathCounter(simd::SimdPath path) {
  static Counter* scalar = Metrics().GetCounter(
      "exploredb_simd_path_scalar_queries_total",
      "Queries served by the scalar kernel table");
  static Counter* sse42 = Metrics().GetCounter(
      "exploredb_simd_path_sse42_queries_total",
      "Queries served by the SSE4.2 kernel table");
  static Counter* avx2 = Metrics().GetCounter(
      "exploredb_simd_path_avx2_queries_total",
      "Queries served by the AVX2 kernel table");
  switch (path) {
    case simd::SimdPath::kSse42:
      return sse42;
    case simd::SimdPath::kAvx2:
      return avx2;
    case simd::SimdPath::kScalar:
      break;
  }
  return scalar;
}

/// Folds one finished query's ExecStats into the process-wide engine series
/// (query count, latency, rows scanned, morsels, SIMD path): the one
/// recorder, called once per successful query by Executor::Run.
void RecordQueryMetrics(const ExecStats& stats) {
  QueriesCounter()->Add();
  QueryLatencyHistogram()->Record(stats.total_nanos);
  RowsScannedCounter()->Add(stats.rows_scanned);
  MorselsDispatchedCounter()->Add(stats.morsels_dispatched);
  SimdPathCounter(stats.simd_path)->Add();
}

/// Fetches the column each condition references.
Result<std::vector<const ColumnVector*>> FetchConditionColumns(
    TableEntry* entry, const std::vector<Condition>& conditions) {
  std::vector<const ColumnVector*> cols;
  cols.reserve(conditions.size());
  for (const Condition& c : conditions) {
    EXPLOREDB_ASSIGN_OR_RETURN(const ColumnVector* col,
                               entry->GetColumn(c.column));
    cols.push_back(col);
  }
  return cols;
}

/// How many rows of a column a selection touches. A morsel scan is dense. A
/// sparse selection (index candidates, a sample) would decode a whole 128-row
/// sub-block of a compressed int64 column for each row it touches, which
/// costs more than the raw compare, so it uses dictionary codes only.
enum class Density { kDense, kSparse };

/// The compressed int64 column serving each condition, nullptr where none
/// does. A condition is served when compression is on, the selection is
/// dense, and an int64 column with a compressed representation is compared
/// with an int64 constant; anything else runs raw. Reads the schema and the
/// published representations, never a column.
Result<std::vector<const CompressedColumn*>> FetchCompressed(
    TableEntry* entry, const std::vector<Condition>& conds,
    const ExecContext& ctx, Density density) {
  std::vector<const CompressedColumn*> comp(conds.size(), nullptr);
  const Schema& schema = entry->schema();
  for (size_t i = 0; i < conds.size(); ++i) {
    const Condition& c = conds[i];
    if (c.column >= schema.num_fields()) {
      return Status::OutOfRange("column " + std::to_string(c.column));
    }
    if (!ctx.options().use_compression || density == Density::kSparse ||
        schema.field(c.column).type != DataType::kInt64 ||
        !c.constant.is_int64()) {
      continue;
    }
    EXPLOREDB_ASSIGN_OR_RETURN(comp[i], entry->GetCompressed(c.column));
  }
  return comp;
}

/// Per-condition scan inputs: the column (always), the compressed int64
/// column serving the condition (FetchCompressed; nullptr entries run on
/// the raw kernels), and whether string (in)equalities compare dictionary
/// codes (compression on) or values.
struct CondInputs {
  std::vector<const ColumnVector*> cols;
  std::vector<const CompressedColumn*> comp;
  bool codes = false;
  bool any_compressed = false;
};

Result<CondInputs> FetchCondInputs(TableEntry* entry,
                                   const std::vector<Condition>& conds,
                                   const ExecContext& ctx, Density density) {
  CondInputs in;
  EXPLOREDB_ASSIGN_OR_RETURN(in.cols, FetchConditionColumns(entry, conds));
  EXPLOREDB_ASSIGN_OR_RETURN(in.comp,
                             FetchCompressed(entry, conds, ctx, density));
  in.codes = ctx.options().use_compression &&
             CompressionPolicyFromEnv() != CompressionPolicy::kOff;
  for (size_t i = 0; i < conds.size(); ++i) {
    in.any_compressed |=
        in.comp[i] != nullptr ||
        (in.codes && ServedByCodes(conds[i], in.cols[i]->type()));
  }
  return in;
}

/// Reusable per-thread decode buffer for measure values gathered out of
/// compressed blocks.
std::vector<int64_t>& MorselValueScratch() {
  thread_local std::vector<int64_t> scratch;
  return scratch;
}

/// Thread-local identity selection vector 0..n-1, grown on demand. Reducing
/// gathered (densely packed) values through sum_*_sel with an iota selection
/// walks them in the same striped accumulation order as a raw-column
/// selection of equal length, which is what keeps compressed aggregates
/// bit-identical to raw ones.
const std::vector<uint32_t>& IotaScratch(uint32_t n) {
  thread_local std::vector<uint32_t> iota;
  while (iota.size() < n) {
    iota.push_back(static_cast<uint32_t>(iota.size()));
  }
  return iota;
}

/// The error a query stopped by its ExecContext reports.
Status InterruptedStatus(const ExecContext& ctx) {
  return ctx.cancelled() ? Status::Cancelled("query cancelled")
                         : Status::DeadlineExceeded("query deadline exceeded");
}

size_t MorselCount(size_t n, size_t morsel) { return (n + morsel - 1) / morsel; }

/// Reusable per-thread selection-vector buffer for morsel kernels. Cleared
/// (never shrunk) between morsels, so a steady-state scan allocates only on
/// its first morsel per worker.
std::vector<uint32_t>& MorselScratch() {
  thread_local std::vector<uint32_t> scratch;
  return scratch;
}

using MorselPlan = Executor::MorselPlan;

/// The one zone-map planner: the scans plan their morsels with it, and the
/// planner prices its exact rung with it (Executor::PlanScan). `comp` is
/// FetchCompressed's answer for `conds`.
Result<MorselPlan> PlanMorsels(TableEntry* entry,
                               const std::vector<Condition>& conds,
                               const std::vector<const CompressedColumn*>& comp,
                               size_t n, size_t morsel,
                               const ExecContext& ctx) {
  MorselPlan plan;
  plan.num_morsels = MorselCount(n, morsel);

  // Zone-map pruning: every numeric conjunct gets the column's min/max
  // synopsis (built lazily, cached on the entry), and a morsel is skipped
  // outright when some conjunct cannot match any zone it overlaps.
  struct Pruner {
    const ZoneMap* zm;
    const Condition* c;
    const CompressedInt64Column* comp;  // sharper selectivity when non-null
  };
  std::vector<Pruner> pruners;
  if (ctx.options().use_zone_maps) {
    const Schema& schema = entry->schema();
    for (size_t i = 0; i < conds.size(); ++i) {
      if (schema.field(conds[i].column).type == DataType::kString) continue;
      if (conds[i].constant.is_string()) continue;
      EXPLOREDB_ASSIGN_OR_RETURN(const ZoneMap* zm,
                                 entry->GetZoneMap(conds[i].column));
      pruners.push_back(
          {zm, &conds[i], comp[i] != nullptr ? comp[i]->i64() : nullptr});
    }
  }
  if (!pruners.empty()) plan.checked = plan.num_morsels;
  plan.live.reserve(plan.num_morsels);
  for (size_t m = 0; m < plan.num_morsels; ++m) {
    const uint32_t begin = static_cast<uint32_t>(m * morsel);
    const uint32_t end =
        static_cast<uint32_t>(std::min(n, m * morsel + morsel));
    if (std::all_of(pruners.begin(), pruners.end(), [&](const Pruner& p) {
          return p.zm->MayMatch(*p.c, begin, end);
        })) {
      plan.live.push_back(m);
    } else {
      ++plan.pruned;
      plan.rows_pruned += end - begin;
    }
  }
  // Independence across conjuncts is the standard (wrong but serviceable)
  // assumption for a capacity hint. Compressed columns sharpen the estimate:
  // exact match counts for RLE blocks, per-block uniform for FOR blocks.
  for (const Pruner& p : pruners) {
    plan.selectivity *= p.zm->EstimateSelectivity(*p.c, p.comp);
    plan.compressed |= p.comp != nullptr;
  }
  return plan;
}

/// Folds one scan's zone-map pruning into its stats and the process-wide
/// prune counters (planning alone never counts as pruning).
void CountPruning(const MorselPlan& plan, ExecStats* stats) {
  stats->morsels_pruned += plan.pruned;
  ZoneMapCheckedCounter()->Add(plan.checked);
  ZoneMapPrunedCounter()->Add(plan.pruned);
}

/// A focus seed resolved against one scan's morsel plan: the focus, the
/// residual conjuncts and their inputs, and per live morsel the slice
/// [first, last) of focus indexes that fall in the morsel's row range.
struct SeededScan {
  const std::vector<uint32_t>* focus = nullptr;  ///< nullptr: filter the table
  const std::vector<Condition>* residual = nullptr;
  CondInputs in;
  std::vector<std::pair<size_t, size_t>> slices;
  uint64_t rows = 0;  ///< focus rows the residual refines (0 without one)
};

/// Seeds the scan with `focus` when the focus holds no more rows than the
/// pruned scan touches; otherwise returns an unseeded SeededScan.
Result<SeededScan> SeedMorsels(TableEntry* entry,
                               const std::vector<uint32_t>* focus,
                               const std::vector<Condition>& residual,
                               const MorselPlan& plan, size_t n, size_t morsel,
                               const ExecContext& ctx) {
  SeededScan seeded;
  if (focus == nullptr || focus->size() > n - plan.rows_pruned) return seeded;
  seeded.focus = focus;
  seeded.residual = &residual;
  EXPLOREDB_ASSIGN_OR_RETURN(
      seeded.in, FetchCondInputs(entry, residual, ctx, Density::kSparse));
  seeded.slices.reserve(plan.live.size());
  auto next = focus->begin();
  for (size_t m : plan.live) {
    const auto lo = std::lower_bound(next, focus->end(), m * morsel);
    next = std::lower_bound(lo, focus->end(), std::min(n, m * morsel + morsel));
    seeded.slices.emplace_back(lo - focus->begin(), next - focus->begin());
    if (!residual.empty()) seeded.rows += next - lo;
  }
  return seeded;
}

/// The seeded stand-in for FilterRange: appends live morsel i's focus slice,
/// narrowed by the residual, to *out.
void AppendSeed(const SeededScan& seeded, size_t i, std::vector<uint32_t>* out,
                bool tracing, int64_t* decompress) {
  const auto [first, last] = seeded.slices[i];
  const size_t old = out->size();
  out->insert(out->end(), seeded.focus->begin() + first,
              seeded.focus->begin() + last);
  if (seeded.residual->empty()) return;
  out->resize(old + Predicate::Refine(
                        *seeded.residual, seeded.in.cols, out->data() + old,
                        static_cast<uint32_t>(last - first),
                        {&seeded.in.comp, seeded.in.codes, tracing,
                         decompress}));
}

/// EXPLOREDB_VALIDATE=1 deep-validates every adaptive structure of the
/// queried table after each query (integration/stress suites run under it in
/// CI). Read once: the flag is a process-level mode, not per query.
bool PerQueryValidationEnabled() {
  static const bool enabled = [] {
    const char* v = std::getenv("EXPLOREDB_VALIDATE");
    return v != nullptr && v[0] == '1' && v[1] == '\0';
  }();
  return enabled;
}

/// Whether conjunct `c` folds into a half-open int64 range [lo, hi) on its
/// column. `> v`, `<= v` and `== v` bound through v + 1, which does not
/// exist at INT64_MAX, so those stay in the residual; `!=` never folds.
bool FoldsIntoRange(const Condition& c, const Schema& schema) {
  if (schema.field(c.column).type != DataType::kInt64 ||
      !c.constant.is_int64()) {
    return false;
  }
  switch (c.op) {
    case CompareOp::kGt:
    case CompareOp::kLe:
    case CompareOp::kEq:
      return c.constant.int64() != std::numeric_limits<int64_t>::max();
    case CompareOp::kGe:
    case CompareOp::kLt:
      return true;
    case CompareOp::kNe:
      break;
  }
  return false;
}

/// Positions per projection task. A gather load into a large column misses
/// cache and TLB (~40 ns), so 1024 of them are ~40 us per column, well above
/// ParallelFor's dispatch cost. The 64K scan morsel would put a whole
/// interactive window of a few thousand rows in one task.
constexpr size_t kProjectGrain = 1024;

}  // namespace

Executor::Executor(Database* db)
    : db_(db), planner_(std::make_unique<Planner>(db, this)) {}

Executor::~Executor() = default;

std::optional<Executor::RangePlan> Executor::ExtractRange(
    const Predicate& pred, const Schema& schema) {
  // Find a column with both a lower and an upper int64 bound (Eq counts as
  // both). All other conjuncts become the residual.
  std::unordered_map<size_t, std::pair<std::optional<int64_t>,
                                       std::optional<int64_t>>>
      bounds;  // column -> (lo, hi) as half-open [lo, hi)
  for (const Condition& c : pred.conjuncts()) {
    if (c.column >= schema.num_fields()) return std::nullopt;
    if (!FoldsIntoRange(c, schema)) continue;
    int64_t v = c.constant.int64();
    auto& [lo, hi] = bounds[c.column];
    switch (c.op) {
      case CompareOp::kGe:
        lo = lo ? std::max(*lo, v) : v;
        break;
      case CompareOp::kGt:
        lo = lo ? std::max(*lo, v + 1) : v + 1;
        break;
      case CompareOp::kLt:
        hi = hi ? std::min(*hi, v) : v;
        break;
      case CompareOp::kLe:
        hi = hi ? std::min(*hi, v + 1) : v + 1;
        break;
      case CompareOp::kEq:
        lo = lo ? std::max(*lo, v) : v;
        hi = hi ? std::min(*hi, v + 1) : v + 1;
        break;
      case CompareOp::kNe:
        break;  // FoldsIntoRange rejects it
    }
  }
  // Pick the lowest-index fully bounded column: `bounds` is an
  // unordered_map, and "first qualifying entry" would make plan choice (and
  // ExecStats) vary run-to-run when several columns qualify.
  std::optional<size_t> best;
  for (const auto& [col, range] : bounds) {
    if (!range.first.has_value() || !range.second.has_value()) continue;
    if (!best.has_value() || col < *best) best = col;
  }
  if (best.has_value()) {
    RangePlan plan;
    plan.column = *best;
    plan.lo = *bounds[*best].first;
    plan.hi = *bounds[*best].second;
    for (const Condition& c : pred.conjuncts()) {
      if (c.column != *best || !FoldsIntoRange(c, schema)) {
        plan.residual.push_back(c);
      }
    }
    return plan;
  }
  return std::nullopt;
}

Result<std::vector<uint32_t>> Executor::SelectPositions(
    TableEntry* entry, const Predicate& pred, ExecutionMode mode,
    const ExecContext& ctx, ExecStats* stats, const FocusSeed& seed) {
  const bool tracing = ctx.tracing();
  TraceSpan select_span("select", tracing, &stats->select_nanos);
  EXPLOREDB_ASSIGN_OR_RETURN(size_t n, entry->NumRows());

  if (mode == ExecutionMode::kCracking || mode == ExecutionMode::kFullIndex) {
    std::optional<RangePlan> plan = ExtractRange(pred, entry->schema());
    if (plan.has_value()) {
      std::vector<uint32_t> candidates;
      if (mode == ExecutionMode::kCracking) {
        stats->path = AccessPath::kCracker;
        EXPLOREDB_ASSIGN_OR_RETURN(EpochCrackerColumn * cracker,
                                   entry->GetCracker(plan->column));
        // Converged bounds answer under the cracker's shared lock (readers
        // don't block each other); cracking serializes inside the cracker
        // and publishes a new epoch. Candidates are sorted below, so the
        // answer is independent of the physical crack state — concurrent
        // sessions over one database stay bit-identical to serial runs.
        EpochCrackerColumn::ReadStats crs =
            cracker->RangeSelectInto(plan->lo, plan->hi, &candidates);
        stats->rows_scanned += crs.rows_touched;
      } else {
        stats->path = AccessPath::kSorted;
        EXPLOREDB_ASSIGN_OR_RETURN(const SortedIndex* index,
                                   entry->GetSortedIndex(plan->column));
        candidates = index->RangeSelect(plan->lo, plan->hi);
        stats->rows_scanned += candidates.size();
      }
      std::sort(candidates.begin(), candidates.end());
      if (plan->residual.empty()) return candidates;
      EXPLOREDB_ASSIGN_OR_RETURN(
          CondInputs in,
          FetchCondInputs(entry, plan->residual, ctx, Density::kSparse));
      stats->rows_scanned += candidates.size();
      Predicate::Refine(plan->residual, in.cols, &candidates,
                        {&in.comp, in.codes});
      return candidates;
    }
    // No indexable range: fall through to a scan.
  }

  stats->path = AccessPath::kScan;
  const std::vector<Condition>& conds = pred.conjuncts();
  EXPLOREDB_ASSIGN_OR_RETURN(
      CondInputs in, FetchCondInputs(entry, conds, ctx, Density::kDense));
  const size_t morsel = std::max<size_t>(1, ctx.morsel_size());
  ThreadPool* pool = ctx.thread_pool();
  EXPLOREDB_ASSIGN_OR_RETURN(
      MorselPlan plan, PlanMorsels(entry, conds, in.comp, n, morsel, ctx));
  EXPLOREDB_ASSIGN_OR_RETURN(
      SeededScan seeded,
      SeedMorsels(entry, seed.positions, seed.residual, plan, n, morsel, ctx));
  CountPruning(plan, stats);
  const size_t live_rows = n - plan.rows_pruned;
  if (seeded.focus != nullptr) {
    stats->path = AccessPath::kFocus;
    stats->rows_scanned += seeded.rows;
    if (seeded.in.any_compressed) {
      stats->compressed_morsels += plan.live.size();
    }
  } else {
    stats->rows_scanned += live_rows;
    if (in.any_compressed) stats->compressed_morsels += plan.live.size();
  }

  auto filter_morsel = [&](size_t i, std::vector<uint32_t>* buf,
                           int64_t* decompress) {
    TraceSpan span("morsel", tracing);
    if (seeded.focus != nullptr) {
      AppendSeed(seeded, i, buf, tracing, decompress);
      return;
    }
    const size_t m = plan.live[i];
    const uint32_t begin = static_cast<uint32_t>(m * morsel);
    const uint32_t end =
        static_cast<uint32_t>(std::min(n, m * morsel + morsel));
    Predicate::FilterRange(conds, in.cols, begin, end, buf,
                           {&in.comp, in.codes, tracing, decompress});
  };

  // Serial kernel: one pass appending straight into the output, pre-sized
  // from the zone maps' selectivity estimate (+1 morsel of slack because
  // FilterRange transiently resizes to the worst case for the morsel in
  // flight).
  if (pool == nullptr || plan.live.size() <= 1) {
    std::vector<uint32_t> out;
    const auto estimated = static_cast<size_t>(
        plan.selectivity * static_cast<double>(live_rows));
    out.reserve(std::min(live_rows, estimated + morsel));
    for (size_t i = 0; i < plan.live.size(); ++i) {
      if (ctx.Interrupted()) return InterruptedStatus(ctx);
      filter_morsel(i, &out, &stats->decompress_nanos);
    }
    stats->morsels_dispatched += plan.live.size();
    return out;
  }

  // Morsel-parallel kernel: per-morsel position buffers, merged in morsel
  // order — byte-identical to the serial scan for any worker count. Each
  // worker filters into its reusable thread-local scratch and copies out
  // exactly the surviving positions, so per-morsel buffers are allocated at
  // their final size instead of growing geometrically. Decompress time is
  // accumulated per morsel and folded in morsel order below.
  std::vector<std::vector<uint32_t>> parts(plan.live.size());
  std::vector<int64_t> decompress(plan.live.size(), 0);
  ThreadPool::ForStats fs = pool->ParallelFor(plan.live.size(), [&](size_t i) {
    if (ctx.Interrupted()) return;
    std::vector<uint32_t>& scratch = MorselScratch();
    scratch.clear();
    filter_morsel(i, &scratch, &decompress[i]);
    parts[i].assign(scratch.begin(), scratch.end());
  });
  stats->morsels_dispatched += fs.chunks;
  stats->threads_used = std::max(stats->threads_used, fs.threads_used);
  if (ctx.Interrupted()) return InterruptedStatus(ctx);

  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  for (int64_t d : decompress) stats->decompress_nanos += d;
  std::vector<uint32_t> out;
  out.reserve(total);
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

Result<Estimate> Executor::AggregatePositions(
    const std::vector<uint32_t>& positions, const ColumnVector* measure,
    AggKind kind, const ExecContext& ctx, ExecStats* stats) {
  Estimate e;
  e.confidence = ctx.options().confidence;
  e.sample_size = positions.size();
  if (kind == AggKind::kCount) {
    e.value = static_cast<double>(positions.size());
    return e;
  }

  // SUM/AVG: per-morsel partial sums merged in morsel order. The serial path
  // is the same computation with one worker, and every kernel table follows
  // the same striped accumulation order, so every thread count and SIMD path
  // produces bit-identical doubles.
  const double* dbl = measure->type() == DataType::kDouble
                          ? measure->double_data().data()
                          : nullptr;
  const int64_t* i64 = measure->type() == DataType::kInt64
                           ? measure->int64_data().data()
                           : nullptr;
  const simd::KernelTable& kt = simd::ActiveKernels();
  auto sum_slice = [&](size_t begin, size_t end) {
    const uint32_t* sel = positions.data() + begin;
    const auto cnt = static_cast<uint32_t>(end - begin);
    return dbl != nullptr ? kt.sum_f64_sel(dbl, sel, cnt)
                          : kt.sum_i64_sel(i64, sel, cnt);
  };

  const size_t morsel = std::max<size_t>(1, ctx.morsel_size());
  const size_t num_morsels = MorselCount(positions.size(), morsel);
  ThreadPool* pool = ctx.thread_pool();
  std::vector<double> partials(num_morsels, 0.0);
  const bool tracing = ctx.tracing();
  auto body = [&](size_t m) {
    if (ctx.Interrupted()) return;
    TraceSpan span("agg_morsel", tracing);
    partials[m] = sum_slice(m * morsel,
                            std::min(positions.size(), m * morsel + morsel));
  };
  if (pool != nullptr && num_morsels > 1) {
    ThreadPool::ForStats fs = pool->ParallelFor(num_morsels, body);
    stats->morsels_dispatched += fs.chunks;
    stats->threads_used = std::max(stats->threads_used, fs.threads_used);
  } else {
    for (size_t m = 0; m < num_morsels; ++m) body(m);
    stats->morsels_dispatched += num_morsels;
  }
  if (ctx.Interrupted()) return InterruptedStatus(ctx);

  double sum = 0;
  for (double p : partials) sum += p;
  switch (kind) {
    case AggKind::kSum:
      e.value = sum;
      break;
    case AggKind::kAvg:
      e.value = positions.empty()
                    ? 0.0
                    : sum / static_cast<double>(positions.size());
      break;
    case AggKind::kCount:
      break;  // handled above
  }
  return e;
}

Result<Estimate> Executor::ScanAggregate(TableEntry* entry,
                                         const Predicate& pred,
                                         const ColumnVector* measure,
                                         const CompressedInt64Column* measure_comp,
                                         AggKind kind, const ExecContext& ctx,
                                         ExecStats* stats,
                                         const FocusSeed& seed) {
  const bool tracing = ctx.tracing();
  stats->path = AccessPath::kScan;

  // Select span: column fetch + zone-map pruning (the per-morsel filter runs
  // fused inside the aggregate loop below, so planning is what "select"
  // means here).
  TraceSpan select_span("select", tracing, &stats->select_nanos);
  EXPLOREDB_ASSIGN_OR_RETURN(size_t n, entry->NumRows());
  const std::vector<Condition>& conds = pred.conjuncts();
  EXPLOREDB_ASSIGN_OR_RETURN(
      CondInputs in, FetchCondInputs(entry, conds, ctx, Density::kDense));
  const size_t morsel = std::max<size_t>(1, ctx.morsel_size());
  EXPLOREDB_ASSIGN_OR_RETURN(
      MorselPlan plan, PlanMorsels(entry, conds, in.comp, n, morsel, ctx));
  EXPLOREDB_ASSIGN_OR_RETURN(
      SeededScan seeded,
      SeedMorsels(entry, seed.positions, seed.residual, plan, n, morsel, ctx));
  CountPruning(plan, stats);
  if (seeded.focus != nullptr) {
    // A focus is a sparse selection: like index candidates, it reads the
    // measure raw instead of decoding a compressed sub-block per row (the
    // same values, so the same sums).
    stats->path = AccessPath::kFocus;
    measure_comp = nullptr;
  }
  stats->rows_scanned +=
      seeded.focus != nullptr ? seeded.rows : n - plan.rows_pruned;
  if ((seeded.focus != nullptr ? seeded.in.any_compressed
                               : in.any_compressed) ||
      measure_comp != nullptr) {
    stats->compressed_morsels += plan.live.size();
  }
  select_span.Stop();

  TraceSpan agg_span("aggregate", tracing, &stats->aggregate_nanos);
  const simd::KernelTable& kt = simd::ActiveKernels();
  const double* dbl =
      measure != nullptr && measure->type() == DataType::kDouble
          ? measure->double_data().data()
          : nullptr;
  const int64_t* i64 =
      measure != nullptr && measure->type() == DataType::kInt64
          ? measure->int64_data().data()
          : nullptr;

  // One fused pass per morsel: filter into the worker's reusable selection
  // vector, reduce it with the dispatched masked-sum kernel, keep only the
  // (sum, count, decompress) partial. Partials merge in morsel order below,
  // so the result is bit-identical for any thread count (serial is the same
  // computation with one worker).
  struct Partial {
    double sum = 0;
    uint64_t count = 0;
    int64_t decompress_nanos = 0;
  };
  std::vector<Partial> partials(plan.live.size());
  auto agg_morsel = [&](size_t i) {
    TraceSpan span("morsel", tracing);
    const uint32_t* sel = nullptr;
    uint32_t cnt = 0;
    if (seeded.focus != nullptr && seeded.residual->empty()) {
      // The focus slice is the morsel's selection: reduce it in place.
      sel = seeded.focus->data() + seeded.slices[i].first;
      cnt = static_cast<uint32_t>(seeded.slices[i].second -
                                  seeded.slices[i].first);
    } else {
      std::vector<uint32_t>& scratch = MorselScratch();
      scratch.clear();
      if (seeded.focus != nullptr) {
        AppendSeed(seeded, i, &scratch, tracing,
                   &partials[i].decompress_nanos);
      } else {
        const size_t m = plan.live[i];
        const uint32_t begin = static_cast<uint32_t>(m * morsel);
        const uint32_t end =
            static_cast<uint32_t>(std::min(n, m * morsel + morsel));
        Predicate::FilterRange(
            conds, in.cols, begin, end, &scratch,
            {&in.comp, in.codes, tracing, &partials[i].decompress_nanos});
      }
      sel = scratch.data();
      cnt = static_cast<uint32_t>(scratch.size());
    }
    partials[i].count = cnt;
    if (kind != AggKind::kCount && cnt > 0) {
      if (measure_comp != nullptr) {
        // Decode only the surviving rows of the compressed measure, then
        // reduce the dense decode with an identity selection: the masked-sum
        // kernel sees the same value sequence (and stripe order) as the raw
        // path, so the double is bit-identical.
        std::vector<int64_t>& vals = MorselValueScratch();
        vals.resize(cnt);
        {
          TraceSpan dspan("decompress", tracing,
                          &partials[i].decompress_nanos);
          measure_comp->Gather(sel, cnt, vals.data());
        }
        partials[i].sum =
            kt.sum_i64_sel(vals.data(), IotaScratch(cnt).data(), cnt);
      } else {
        partials[i].sum = dbl != nullptr ? kt.sum_f64_sel(dbl, sel, cnt)
                                         : kt.sum_i64_sel(i64, sel, cnt);
      }
    }
  };
  ThreadPool* pool = ctx.thread_pool();
  if (pool != nullptr && plan.live.size() > 1) {
    ThreadPool::ForStats fs = pool->ParallelFor(plan.live.size(), [&](size_t i) {
      if (ctx.Interrupted()) return;
      agg_morsel(i);
    });
    stats->morsels_dispatched += fs.chunks;
    stats->threads_used = std::max(stats->threads_used, fs.threads_used);
  } else {
    for (size_t i = 0; i < plan.live.size(); ++i) {
      if (ctx.Interrupted()) return InterruptedStatus(ctx);
      agg_morsel(i);
    }
    stats->morsels_dispatched += plan.live.size();
  }
  if (ctx.Interrupted()) return InterruptedStatus(ctx);

  double sum = 0;
  uint64_t matches = 0;
  for (const Partial& p : partials) {
    sum += p.sum;
    matches += p.count;
    stats->decompress_nanos += p.decompress_nanos;
  }
  Estimate e;
  e.confidence = ctx.options().confidence;
  e.sample_size = matches;
  switch (kind) {
    case AggKind::kCount:
      e.value = static_cast<double>(matches);
      break;
    case AggKind::kSum:
      e.value = sum;
      break;
    case AggKind::kAvg:
      e.value = matches == 0 ? 0.0 : sum / static_cast<double>(matches);
      break;
  }
  return e;
}

Result<QueryResult> Executor::Execute(const Query& query,
                                      const ExecContext& ctx) {
  // Budgeted queries route through the planner, which resolves to a concrete
  // mode and re-enters through Run.
  if (ctx.options().mode == ExecutionMode::kBudgeted) {
    return planner_->Execute(query, ctx, nullptr);
  }
  return Run(query, ctx, {.absolute = ctx.options().error_budget});
}

Result<QueryResult> Executor::ExecuteSelection(const Query& query,
                                               const ExecContext& ctx) {
  if (query.aggregate().has_value() || query.group_by().has_value()) {
    return Status::InvalidArgument("ExecuteSelection takes a selection");
  }
  if (ctx.options().mode != ExecutionMode::kBudgeted) {
    return Run(query, ctx, {}, /*project=*/false);
  }
  // The planner's exact rung, the only one a selection has.
  ExecContext sub = ctx;
  sub.SetMode(ExecutionMode::kAuto);
  const auto deadline =
      std::chrono::steady_clock::now() + ctx.options().budget.latency;
  if (!ctx.has_deadline() || deadline < *ctx.deadline()) {
    sub.SetDeadline(deadline);
  }
  return Run(query, sub, {}, /*project=*/false);
}

Result<QueryResult> Executor::Run(const Query& query, const ExecContext& ctx,
                                  const OnlineRule& online, bool project) {
  const bool tracing = ctx.tracing();
  ExecStats stats;
  TraceSpan query_span("query", tracing, &stats.total_nanos);
  TableEntry* entry = nullptr;
  ExecutionMode mode = ctx.options().mode;
  stats.simd_path = simd::ActivePath();
  {
    TraceSpan plan_span("plan", tracing, &stats.plan_nanos);
    EXPLOREDB_ASSIGN_OR_RETURN(entry, db_->GetTable(query.table()));
    if (mode == ExecutionMode::kAuto) {
      // Self-organizing default: let adaptive indexing grow under predicates
      // it can serve (a two-sided int64 range); everything else scans.
      mode = ExtractRange(query.where(), entry->schema()).has_value()
                 ? ExecutionMode::kCracking
                 : ExecutionMode::kScan;
    }
    stats.resolved_mode = mode;
  }
  // Cancellation aborts every path, but an expired deadline still admits
  // online aggregation: its contract is to answer with the current estimate
  // (approximate) rather than fail.
  if (ctx.cancelled() ||
      (ctx.DeadlineExceeded() && mode != ExecutionMode::kOnline)) {
    return InterruptedStatus(ctx);
  }

  if (query.aggregate().has_value() || query.group_by().has_value()) {
    EXPLOREDB_ASSIGN_OR_RETURN(
        QueryResult result,
        ExecuteAggregate(entry, query, mode, ctx, online, &stats));
    query_span.Stop();  // finalize total_nanos before publishing stats
    result.exec_stats = stats;
    RecordQueryMetrics(stats);
    if (PerQueryValidationEnabled()) CHECK_OK(entry->ValidateAdaptiveState());
    return result;
  }

  // Selection / projection.
  QueryResult result;
  EXPLOREDB_ASSIGN_OR_RETURN(
      result.positions,
      SelectPositions(entry, query.where(), mode, ctx, &stats, {}));

  if (project) {
    TraceSpan project_span("project", tracing, &stats.project_nanos);
    EXPLOREDB_ASSIGN_OR_RETURN(
        result.rows, Project(entry, query.select(), result.positions, ctx));
  }
  query_span.Stop();
  result.exec_stats = stats;
  RecordQueryMetrics(stats);
  // Abort at the corruption site, with the violated invariant in the
  // message, rather than let a malformed index serve the next query.
  if (PerQueryValidationEnabled()) CHECK_OK(entry->ValidateAdaptiveState());
  return result;
}

Result<QueryResult> Executor::Execute(const QueryBuilder& builder,
                                      const ExecContext& ctx) {
  EXPLOREDB_ASSIGN_OR_RETURN(TableEntry * entry,
                             db_->GetTable(builder.table()));
  EXPLOREDB_ASSIGN_OR_RETURN(Query query, builder.Build(entry->schema()));
  return Execute(query, ctx);
}

Result<Table> Executor::Project(TableEntry* entry,
                                const std::vector<std::string>& select,
                                const std::vector<uint32_t>& positions,
                                const ExecContext& ctx) {
  const Schema& schema = entry->schema();
  std::vector<size_t> col_indexes;
  if (select.empty()) {
    for (size_t c = 0; c < schema.num_fields(); ++c) col_indexes.push_back(c);
  } else {
    for (const std::string& name : select) {
      EXPLOREDB_ASSIGN_OR_RETURN(size_t idx, schema.FieldIndex(name));
      col_indexes.push_back(idx);
    }
  }
  const size_t n = positions.size();
  Table projected(schema.Select(col_indexes));
  std::vector<const ColumnVector*> sources;
  std::vector<ColumnVector*> outputs;
  for (size_t i = 0; i < col_indexes.size(); ++i) {
    EXPLOREDB_ASSIGN_OR_RETURN(const ColumnVector* col,
                               entry->GetColumn(col_indexes[i]));
    sources.push_back(col);
    *projected.mutable_column(i) = col->GatherTarget(n);
    outputs.push_back(projected.mutable_column(i));
  }

  // One task per (column, grain).
  const size_t grains = (n + kProjectGrain - 1) / kProjectGrain;
  const size_t tasks = sources.size() * grains;
  auto gather = [&](size_t task) {
    const size_t col = task / grains;
    const size_t begin = (task % grains) * kProjectGrain;
    sources[col]->GatherRange(positions, begin,
                              std::min(n, begin + kProjectGrain),
                              outputs[col]);
  };
  ThreadPool* pool = ctx.thread_pool();
  if (pool == nullptr || grains <= 1) {
    for (size_t task = 0; task < tasks; ++task) gather(task);
  } else {
    // Not counted in ExecStats' morsels_dispatched or threads_used, which
    // describe scan and aggregate work.
    pool->ParallelFor(tasks, gather);
  }
  return projected;
}

Result<Executor::MorselPlan> Executor::PlanScan(TableEntry* entry,
                                               const Predicate& pred,
                                               size_t n,
                                               const ExecContext& ctx) {
  EXPLOREDB_ASSIGN_OR_RETURN(
      std::vector<const CompressedColumn*> comp,
      FetchCompressed(entry, pred.conjuncts(), ctx, Density::kDense));
  return PlanMorsels(entry, pred.conjuncts(), comp, n,
                     ZoneMap::kDefaultZoneRows, ctx);
}

Result<QueryResult> Executor::ExecuteProgressive(
    const Query& query, const ExecContext& ctx,
    const ProgressiveCallback& callback) {
  ExecContext budgeted = ctx;
  budgeted.options().mode = ExecutionMode::kBudgeted;
  return planner_->Execute(query, budgeted, &callback);
}

Result<QueryResult> Executor::ExecuteAggregate(TableEntry* entry,
                                               const Query& query,
                                               ExecutionMode mode,
                                               const ExecContext& ctx,
                                               const OnlineRule& online,
                                               ExecStats* stats) {
  if (!query.aggregate().has_value()) {
    return Status::InvalidArgument("GROUP BY requires an aggregate");
  }
  const AggregateExpr& agg = *query.aggregate();
  const QueryOptions& options = ctx.options();
  if (mode == ExecutionMode::kSampled &&
      !(std::isfinite(options.sample_fraction) &&
        options.sample_fraction > 0.0)) {
    return Status::InvalidArgument(
        "sample_fraction must be finite and positive");
  }
  EXPLOREDB_ASSIGN_OR_RETURN(size_t n, entry->NumRows());

  // Resolve the measure column (COUNT may omit it), plus its compressed
  // representation when scans may use one (feeds the fused scan-aggregate's
  // gather-from-compressed path).
  const ColumnVector* measure = nullptr;
  const CompressedInt64Column* measure_comp = nullptr;
  if (!agg.column.empty()) {
    EXPLOREDB_ASSIGN_OR_RETURN(size_t idx,
                               entry->schema().FieldIndex(agg.column));
    EXPLOREDB_ASSIGN_OR_RETURN(measure, entry->GetColumn(idx));
    if (measure->type() == DataType::kString) {
      return Status::InvalidArgument("aggregate over string column '" +
                                     agg.column + "'");
    }
    if (measure->type() == DataType::kInt64 && options.use_compression) {
      EXPLOREDB_ASSIGN_OR_RETURN(const CompressedColumn* cc,
                                 entry->GetCompressed(idx));
      if (cc != nullptr) measure_comp = cc->i64();
    }
  } else if (agg.kind != AggKind::kCount) {
    return Status::InvalidArgument("only COUNT may omit the column");
  }

  QueryResult result;
  const bool tracing = ctx.tracing();

  // Index-serviceable predicates keep the two-phase shape (index probe, then
  // aggregation over the probe's positions) and leave the focus alone: a
  // converged cracker answers in O(log n + result), which can beat a refine
  // of the focus. Exact scan plans take their seed from a covering focus.
  const bool exact = mode == ExecutionMode::kScan ||
                     mode == ExecutionMode::kCracking ||
                     mode == ExecutionMode::kFullIndex;
  const bool indexed =
      (mode == ExecutionMode::kCracking || mode == ExecutionMode::kFullIndex) &&
      ExtractRange(query.where(), entry->schema()).has_value();
  Focus* focus = exact && !indexed ? ctx.focus() : nullptr;
  FocusSeed seed;
  if (focus != nullptr) {
    if (auto residual = focus->Residual(entry, query.where())) {
      seed.positions = &focus->positions;
      seed.residual = std::move(*residual);
    }
  }

  // ---- Grouped aggregates -------------------------------------------------
  if (query.group_by().has_value()) {
    EXPLOREDB_ASSIGN_OR_RETURN(size_t gidx,
                               entry->schema().FieldIndex(*query.group_by()));
    EXPLOREDB_ASSIGN_OR_RETURN(const ColumnVector* gcol,
                               entry->GetColumn(gidx));
    // Which rows participate? A focus with no conjunct left to apply is the
    // selection itself (it holds no row outside the query's live morsels),
    // and aggregates in place.
    std::vector<uint32_t> selected;
    const std::vector<uint32_t>* positions = &selected;
    if (seed.positions != nullptr && seed.residual.empty()) {
      stats->path = AccessPath::kFocus;
      positions = seed.positions;
    } else if (mode == ExecutionMode::kSampled) {
      TraceSpan select_span("select", tracing, &stats->select_nanos);
      stats->path = AccessPath::kSample;
      Random rng(42);
      selected = BernoulliSample(n, options.sample_fraction, &rng);
      EXPLOREDB_ASSIGN_OR_RETURN(
          CondInputs in, FetchCondInputs(entry, query.where().conjuncts(), ctx,
                                         Density::kSparse));
      stats->rows_scanned += selected.size();
      Predicate::Refine(query.where().conjuncts(), in.cols, &selected,
                        {&in.comp, in.codes});
      result.approximate = true;
    } else {
      EXPLOREDB_ASSIGN_OR_RETURN(
          selected,
          SelectPositions(entry, query.where(), mode, ctx, stats, seed));
    }
    TraceSpan agg_span("aggregate", tracing, &stats->aggregate_nanos);
    if (result.approximate) {
      // Sampled mode keeps the value-list accumulator: the sample is small,
      // and per-group CIs (EstimateMean) need the raw values.
      struct Acc {
        std::vector<double> values;
        uint64_t count = 0;
      };
      std::map<std::string, Acc> groups;
      for (uint32_t row : selected) {
        Acc& acc = groups[gcol->GetValue(row).ToString()];
        ++acc.count;
        if (measure != nullptr) acc.values.push_back(measure->GetDouble(row));
      }
      // A fraction above 1 keeps every row once, so it scales like 1.
      const double fraction = std::min(1.0, options.sample_fraction);
      for (auto& [key, acc] : groups) {
        Estimate e;
        e.confidence = options.confidence;
        e.sample_size = acc.count;
        switch (agg.kind) {
          case AggKind::kCount:
            e.value = static_cast<double>(acc.count) / fraction;
            break;
          case AggKind::kSum: {
            double s = 0;
            for (double v : acc.values) s += v;
            e.value = s / fraction;
            break;
          }
          case AggKind::kAvg:
            e = EstimateMean(acc.values, options.confidence);
            break;
        }
        result.groups.push_back({key, e});
      }
    } else {
      // Exact modes: typed, morsel-parallel hash aggregation. The group
      // column's zone map supplies the key range that unlocks the dense
      // int64 fast path; string keys aggregate over the column's dictionary
      // codes.
      std::optional<std::pair<int64_t, int64_t>> key_range;
      if (gcol->type() == DataType::kInt64) {
        EXPLOREDB_ASSIGN_OR_RETURN(const ZoneMap* zm, entry->GetZoneMap(gidx));
        key_range = zm->Int64Range();
      }
      EXPLOREDB_ASSIGN_OR_RETURN(
          result.groups,
          HashGroupBy(*gcol, measure, agg.kind, options.confidence,
                      *positions, key_range, ctx, stats));
      // The scan's selection becomes the session's next focus.
      if (focus != nullptr && positions == &selected) {
        focus->entry = entry;
        focus->conjuncts = query.where().conjuncts();
        focus->positions = std::move(selected);
      }
    }
    return result;
  }

  // ---- Scalar aggregates --------------------------------------------------
  switch (mode) {
    case ExecutionMode::kSampled: {
      stats->path = AccessPath::kSample;
      Random rng(42);
      std::vector<uint32_t> sample;
      std::vector<uint32_t> hits;
      {
        TraceSpan select_span("select", tracing, &stats->select_nanos);
        sample = BernoulliSample(n, options.sample_fraction, &rng);
        EXPLOREDB_ASSIGN_OR_RETURN(
            CondInputs in, FetchCondInputs(entry, query.where().conjuncts(),
                                           ctx, Density::kSparse));
        stats->rows_scanned += sample.size();
        hits = sample;
        Predicate::Refine(query.where().conjuncts(), in.cols, &hits,
                          {&in.comp, in.codes});
        result.approximate = true;
      }
      TraceSpan agg_span("aggregate", tracing, &stats->aggregate_nanos);
      switch (agg.kind) {
        case AggKind::kCount:
          result.scalar = EstimateCount(hits.size(), sample.size(), n,
                                        options.confidence);
          break;
        case AggKind::kSum: {
          // Every sampled row contributes: its value if it matched, else 0.
          std::vector<double> contributions;
          contributions.reserve(sample.size());
          size_t h = 0;
          for (uint32_t row : sample) {
            const bool hit = h < hits.size() && hits[h] == row;
            contributions.push_back(hit ? measure->GetDouble(row) : 0.0);
            h += hit;
          }
          result.scalar = EstimateSum(contributions, n, options.confidence);
          break;
        }
        case AggKind::kAvg: {
          std::vector<double> matched;
          matched.reserve(hits.size());
          for (uint32_t row : hits) matched.push_back(measure->GetDouble(row));
          result.scalar = EstimateMean(matched, options.confidence);
          break;
        }
      }
      return result;
    }
    case ExecutionMode::kOnline: {
      // Materialize predicate mask + values (one worker per partition), then
      // consume batches in random order until the caller's rule is met, the
      // deadline passes or the input runs out. An estimate that narrows the
      // interval becomes the best so far, and the caller hears of it; the
      // answer is that best, or the exact estimate at exhaustion. A deadline
      // bounds refinement: the best comes back approximate rather than
      // failing the query.
      stats->path = AccessPath::kOnline;
      TraceSpan select_span("select", tracing, &stats->select_nanos);
      EXPLOREDB_ASSIGN_OR_RETURN(
          std::vector<const ColumnVector*> cols,
          FetchConditionColumns(entry, query.where().conjuncts()));
      OnlineInput input = BuildOnlineInput(
          query.where().conjuncts(), cols, measure, n, ctx.thread_pool(),
          std::max<size_t>(1, ctx.morsel_size()), &stats->morsels_dispatched,
          &stats->threads_used);
      select_span.Stop();
      TraceSpan agg_span("aggregate", tracing, &stats->aggregate_nanos);
      OnlineAggregator agg_runner(std::move(input.values),
                                  std::move(input.mask), agg.kind);
      const size_t batch = std::max<size_t>(n / 100, 64);
      Estimate best;
      uint64_t sequence = 0;
      for (bool first = true; !agg_runner.done(); first = false) {
        if (ctx.cancelled()) return Status::Cancelled("query cancelled");
        // Always consume at least one batch: an answer under deadline must
        // be a real (if coarse) estimate, never the zero-sample degenerate.
        if (!first && ctx.DeadlineExceeded()) break;
        TraceSpan round_span("online_round", tracing);
        // ProcessNext returns the rows actually consumed — the final batch
        // is usually short, and += batch would overcount it.
        stats->rows_scanned += agg_runner.ProcessNext(batch);
        const Estimate current = agg_runner.Current(options.confidence);
        if (!first && !(current.ci_half_width < best.ci_half_width)) continue;
        best = current;
        if (online.deliver != nullptr) {
          ProgressiveUpdate update;
          update.estimate = best;
          update.stats = *stats;  // snapshot mid-flight (phase nanos open)
          update.sequence = sequence++;
          (*online.deliver)(update);
        }
        if ((online.absolute > 0 && best.ci_half_width <= online.absolute) ||
            (online.relative > 0 && RelativeError(best) <= online.relative)) {
          break;
        }
      }
      result.approximate = !agg_runner.done();
      result.scalar =
          result.approximate ? best : agg_runner.Current(options.confidence);
      return result;
    }
    default: {
      // Scan plans run the fused scan-aggregate, which filters and reduces
      // each morsel in one pass without materializing the full position
      // list (so it leaves the focus as it is).
      if (!indexed) {
        EXPLOREDB_ASSIGN_OR_RETURN(
            Estimate e,
            ScanAggregate(entry, query.where(), measure, measure_comp,
                          agg.kind, ctx, stats, seed));
        result.scalar = e;
        return result;
      }
      std::vector<uint32_t> positions;
      EXPLOREDB_ASSIGN_OR_RETURN(
          positions,
          SelectPositions(entry, query.where(), mode, ctx, stats, {}));
      TraceSpan agg_span("aggregate", tracing, &stats->aggregate_nanos);
      EXPLOREDB_ASSIGN_OR_RETURN(
          Estimate e,
          AggregatePositions(positions, measure, agg.kind, ctx, stats));
      result.scalar = e;
      return result;
    }
  }
}

}  // namespace exploredb
