#include "engine/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
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

/// The compressed int64 column serving each condition of a dense morsel
/// scan, nullptr where none does. A condition is served when compression is
/// on and an int64 column with a compressed representation is compared
/// with an int64 constant; anything else runs raw. Sparse selections (index
/// candidates, a focus, a sample) would decode a whole 128-row sub-block
/// per row they touch, which costs more than the raw compare, so they use
/// dictionary codes only. Reads the schema and the published
/// representations, never a column.
Result<std::vector<const CompressedInt64Column*>> FetchCompressed(
    TableEntry* entry, const std::vector<Condition>& conds,
    const ExecContext& ctx) {
  std::vector<const CompressedInt64Column*> comp(conds.size(), nullptr);
  const Schema& schema = entry->schema();
  for (size_t i = 0; i < conds.size(); ++i) {
    const Condition& c = conds[i];
    if (c.column >= schema.num_fields()) {
      return Status::OutOfRange("column " + std::to_string(c.column));
    }
    if (!ctx.options().use_compression ||
        schema.field(c.column).type != DataType::kInt64 ||
        !c.constant.is_int64()) {
      continue;
    }
    EXPLOREDB_ASSIGN_OR_RETURN(comp[i], entry->GetCompressed(c.column));
  }
  return comp;
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

/// Reusable per-thread selection-vector buffer for morsel kernels. Cleared
/// (never shrunk) between morsels, so a steady-state scan allocates only on
/// its first morsel per worker.
std::vector<uint32_t>& MorselScratch() {
  thread_local std::vector<uint32_t> scratch;
  return scratch;
}

using MorselPlan = Executor::MorselPlan;
using AccessPlan = Executor::AccessPlan;

/// The sample plan's fixed seed. Live morsel m draws from kSampleSeed + m,
/// its index in the table, so a sample is the same at any thread count.
constexpr uint64_t kSampleSeed = 42;

/// The one zone-map planner: fills `plan`'s live morsels of its rows, cut
/// into its morsels. `comp` is FetchCompressed's answer for `conds`.
Status PlanMorsels(TableEntry* entry, const std::vector<Condition>& conds,
                   const std::vector<const CompressedInt64Column*>& comp,
                   const ExecContext& ctx, MorselPlan* plan) {
  plan->num_morsels = (plan->rows + plan->morsel - 1) / plan->morsel;

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
      pruners.push_back({zm, &conds[i], comp[i]});
    }
  }
  if (!pruners.empty()) plan->checked = plan->num_morsels;
  plan->live.reserve(plan->num_morsels);
  for (size_t m = 0; m < plan->num_morsels; ++m) {
    const auto [begin, end] = plan->Rows(m);
    if (std::all_of(pruners.begin(), pruners.end(), [&](const Pruner& p) {
          return p.zm->MayMatch(*p.c, begin, end);
        })) {
      plan->live.push_back(m);
    } else {
      ++plan->pruned;
      plan->rows_pruned += end - begin;
    }
  }
  // Independence across conjuncts is the standard (wrong but serviceable)
  // assumption for a capacity hint. Compressed columns sharpen the estimate:
  // exact match counts for RLE blocks, per-block uniform for FOR blocks.
  for (const Pruner& p : pruners) {
    plan->selectivity *= p.zm->EstimateSelectivity(*p.c, p.comp);
    plan->compressed |= p.comp != nullptr;
  }
  return Status::OK();
}

/// Folds the pruning and compressed morsels of a scan, focus or sample plan
/// into its stats and the process-wide prune counters (planning alone never
/// counts as pruning). AppendMorsel counts the rows each morsel reads.
void CountPruning(const AccessPlan& plan, ExecStats* stats) {
  stats->morsels_pruned += plan.morsels.pruned;
  ZoneMapCheckedCounter()->Add(plan.morsels.checked);
  ZoneMapPrunedCounter()->Add(plan.morsels.pruned);
  if (plan.on_compressed) stats->compressed_morsels += plan.morsels.live.size();
}

/// The conjuncts a scan, focus or sample plan's morsels apply: the query's,
/// or the residual the focus lacks.
const std::vector<Condition>& MorselConds(const AccessPlan& plan,
                                          const Predicate& where) {
  return plan.focus != nullptr ? plan.residual : where.conjuncts();
}

/// Appends the matches in live morsel i of a scan, focus or sample plan to
/// *out: FilterRange over the morsel's rows, or the morsel's focus slice or
/// Bernoulli draw narrowed by `conds` (MorselConds, whose columns `cols`
/// holds). Returns the rows it read: the morsel's rows, the slice or the
/// draw.
uint64_t AppendMorsel(const AccessPlan& plan,
                      const std::vector<Condition>& conds,
                      const std::vector<const ColumnVector*>& cols, size_t i,
                      std::vector<uint32_t>* out, bool tracing,
                      int64_t* decompress) {
  const size_t m = plan.morsels.live[i];
  const auto [begin, end] = plan.morsels.Rows(m);
  if (plan.path == AccessPath::kScan) {
    Predicate::FilterRange(conds, cols, begin, end, out,
                           {&plan.comp, plan.codes, tracing, decompress});
    return end - begin;
  }
  const size_t old = out->size();
  if (plan.path == AccessPath::kSample) {
    Random rng(kSampleSeed + m);
    BernoulliSample(begin, end, plan.fraction, &rng, out);
  } else {
    const auto [first, last] = plan.slices[i];
    out->insert(out->end(), plan.focus->begin() + first,
                plan.focus->begin() + last);
  }
  const auto read = static_cast<uint32_t>(out->size() - old);
  if (!conds.empty()) {
    out->resize(old + Predicate::Refine(conds, cols, out->data() + old, read,
                                        {nullptr, plan.codes, tracing,
                                         decompress}));
  }
  return read;
}

/// The positions an index plan selects, ascending: the cracker's or the
/// sorted index's candidates in [lo, hi), narrowed by the residual.
Result<std::vector<uint32_t>> ProbeIndex(TableEntry* entry,
                                         const AccessPlan& plan,
                                         ExecStats* stats) {
  std::vector<uint32_t> candidates;
  if (plan.path == AccessPath::kCracker) {
    EXPLOREDB_ASSIGN_OR_RETURN(EpochCrackerColumn * cracker,
                               entry->GetCracker(plan.column));
    // Converged bounds answer under the cracker's shared lock (readers
    // don't block each other); cracking serializes inside the cracker and
    // publishes a new epoch. Candidates are sorted below, so the answer is
    // independent of the physical crack state — concurrent sessions over
    // one database stay bit-identical to serial runs.
    stats->rows_scanned +=
        cracker->RangeSelectInto(plan.lo, plan.hi, &candidates).rows_touched;
  } else {
    EXPLOREDB_ASSIGN_OR_RETURN(const SortedIndex* index,
                               entry->GetSortedIndex(plan.column));
    candidates = index->RangeSelect(plan.lo, plan.hi);
    stats->rows_scanned += candidates.size();
  }
  std::sort(candidates.begin(), candidates.end());
  if (plan.residual.empty()) return candidates;
  EXPLOREDB_ASSIGN_OR_RETURN(std::vector<const ColumnVector*> cols,
                             FetchConditionColumns(entry, plan.residual));
  stats->rows_scanned += candidates.size();
  Predicate::Refine(plan.residual, cols, &candidates, {nullptr, plan.codes});
  return candidates;
}

/// Cuts the ascending `positions` into one slice [first, last) per table
/// morsel of `morsel` rows that holds any, in morsel order.
std::vector<std::pair<size_t, size_t>> SliceByMorsel(
    const std::vector<uint32_t>& positions, size_t morsel) {
  std::vector<std::pair<size_t, size_t>> slices;
  for (size_t first = 0; first < positions.size();) {
    const uint64_t end = (positions[first] / morsel + 1) * morsel;
    const size_t last = static_cast<size_t>(
        std::lower_bound(positions.begin() + first, positions.end(), end) -
        positions.begin());
    slices.emplace_back(first, last);
    first = last;
  }
  return slices;
}

/// Whether `mode` answers `query` from the online loop's own input instead
/// of an access plan. A grouped query has no online estimator, so kOnline
/// scans it exactly.
bool ReadsOwnInput(const Query& query, ExecutionMode mode) {
  return mode == ExecutionMode::kOnline && query.aggregate().has_value() &&
         !query.group_by().has_value();
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

bool Executor::ExtractRange(const Predicate& pred, const Schema& schema,
                            AccessPlan* plan) {
  // Find a column with both a lower and an upper int64 bound (Eq counts as
  // both). All other conjuncts become the residual.
  std::unordered_map<size_t, std::pair<std::optional<int64_t>,
                                       std::optional<int64_t>>>
      bounds;  // column -> (lo, hi) as half-open [lo, hi)
  for (const Condition& c : pred.conjuncts()) {
    if (c.column >= schema.num_fields()) return false;
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
  if (!best.has_value()) return false;
  plan->column = *best;
  plan->lo = *bounds[*best].first;
  plan->hi = *bounds[*best].second;
  for (const Condition& c : pred.conjuncts()) {
    if (c.column != *best || !FoldsIntoRange(c, schema)) {
      plan->residual.push_back(c);
    }
  }
  return true;
}

Result<Executor::AccessPlan> Executor::ChooseAccess(TableEntry* entry,
                                                    const Query& query,
                                                    const ExecContext& ctx,
                                                    bool priced) {
  AccessPlan plan;
  plan.mode = ctx.options().mode;
  // String (in)equalities compare dictionary codes when compression is on.
  plan.codes = ctx.options().use_compression &&
               CompressionPolicyFromEnv() != CompressionPolicy::kOff;
  EXPLOREDB_ASSIGN_OR_RETURN(plan.morsels.rows, entry->NumRows());
  plan.morsels.morsel = std::max<size_t>(1, ctx.morsel_size());
  const Schema& schema = entry->schema();
  const Predicate& where = query.where();
  const bool sampled =
      plan.mode == ExecutionMode::kSampled && query.aggregate().has_value();
  if (sampled) {
    plan.fraction = ctx.options().sample_fraction;
    if (!(std::isfinite(plan.fraction) && plan.fraction > 0.0)) {
      return Status::InvalidArgument(
          "sample_fraction must be finite and positive");
    }
  }

  // An index probe. It never takes the focus: a converged cracker answers
  // in O(log n + result), which can beat a refine of the focus.
  const bool probes = plan.mode == ExecutionMode::kCracking ||
                      plan.mode == ExecutionMode::kFullIndex ||
                      plan.mode == ExecutionMode::kAuto;
  if (probes && ExtractRange(where, schema, &plan)) {
    plan.path = plan.mode == ExecutionMode::kFullIndex ? AccessPath::kSorted
                                                       : AccessPath::kCracker;
    if (plan.mode == ExecutionMode::kAuto) plan.mode = ExecutionMode::kCracking;
    if (!priced) return plan;
  } else if (plan.mode == ExecutionMode::kAuto) {
    plan.mode = ExecutionMode::kScan;
  }

  // The zone-map-pruned scan (for an index plan, the one it replaces). A
  // sample's draws are sparse, so it reads no compressed column.
  if (sampled) {
    plan.comp.assign(where.conjuncts().size(), nullptr);
  } else {
    EXPLOREDB_ASSIGN_OR_RETURN(plan.comp,
                               FetchCompressed(entry, where.conjuncts(), ctx));
  }
  EXPLOREDB_RETURN_NOT_OK(
      PlanMorsels(entry, where.conjuncts(), plan.comp, ctx, &plan.morsels));
  if (plan.index()) return plan;
  auto on_codes = [&](const Condition& c) {
    return plan.codes && ServedByCodes(c, schema.field(c.column).type);
  };

  // A covering focus no larger than the pruned scan seeds each live morsel
  // with its slice of the focus, narrowed by the conjuncts the focus lacks.
  // A sample draws from the table's rows, never the focus's.
  const Focus* focus = sampled ? nullptr : ctx.focus();
  std::optional<std::vector<Condition>> residual;
  if (focus != nullptr &&
      focus->positions.size() <= plan.morsels.live_rows()) {
    residual = focus->Residual(entry, where);
  }
  if (residual.has_value()) {
    plan.path = AccessPath::kFocus;
    plan.focus = &focus->positions;
    plan.residual = std::move(*residual);
    plan.slices.reserve(plan.morsels.live.size());
    const auto first = focus->positions.begin();
    auto next = first;
    for (size_t m : plan.morsels.live) {
      const auto [begin, end] = plan.morsels.Rows(m);
      const auto lo = std::lower_bound(next, focus->positions.end(), begin);
      next = std::lower_bound(lo, focus->positions.end(), end);
      plan.slices.emplace_back(lo - first, next - first);
      if (!plan.residual.empty()) plan.focus_rows += next - lo;
    }
    plan.on_compressed =
        std::any_of(plan.residual.begin(), plan.residual.end(), on_codes);
    return plan;
  }

  // A scan, or a sample of its live morsels, whose selection keeps the
  // drawn share of the matches. A scalar aggregate scan gathers an int64
  // measure out of its compressed column.
  for (size_t i = 0; i < plan.comp.size(); ++i) {
    plan.on_compressed |=
        plan.comp[i] != nullptr || on_codes(where.conjuncts()[i]);
  }
  if (sampled) {
    plan.path = AccessPath::kSample;
    plan.morsels.selectivity *= std::min(1.0, plan.fraction);
    return plan;
  }
  const std::optional<AggregateExpr>& agg = query.aggregate();
  if (agg.has_value() && !agg->column.empty() &&
      !query.group_by().has_value() && ctx.options().use_compression) {
    EXPLOREDB_ASSIGN_OR_RETURN(size_t idx, schema.FieldIndex(agg->column));
    if (schema.field(idx).type == DataType::kInt64) {
      EXPLOREDB_ASSIGN_OR_RETURN(plan.measure_comp,
                                 entry->GetCompressed(idx));
      plan.on_compressed |= plan.measure_comp != nullptr;
    }
  }
  return plan;
}

Result<std::vector<uint32_t>> Executor::SelectPositions(
    TableEntry* entry, const AccessPlan& plan, const Predicate& where,
    const ExecContext& ctx, ExecStats* stats) {
  const bool tracing = ctx.tracing();
  TraceSpan select_span("select", tracing, &stats->select_nanos);
  if (plan.index()) return ProbeIndex(entry, plan, stats);

  const std::vector<Condition>& conds = MorselConds(plan, where);
  EXPLOREDB_ASSIGN_OR_RETURN(std::vector<const ColumnVector*> cols,
                             FetchConditionColumns(entry, conds));
  CountPruning(plan, stats);
  const MorselPlan& morsels = plan.morsels;
  auto filter_morsel = [&](size_t i, std::vector<uint32_t>* buf,
                           int64_t* decompress) {
    TraceSpan span("morsel", tracing);
    return AppendMorsel(plan, conds, cols, i, buf, tracing, decompress);
  };

  // Serial kernel: one pass appending straight into the output, pre-sized
  // from the zone maps' selectivity estimate (+1 morsel of slack because
  // FilterRange transiently resizes to the worst case for the morsel in
  // flight).
  ThreadPool* pool = ctx.thread_pool();
  if (pool == nullptr || morsels.live.size() <= 1) {
    std::vector<uint32_t> out;
    const auto estimated = static_cast<size_t>(
        morsels.selectivity * static_cast<double>(morsels.live_rows()));
    out.reserve(std::min(morsels.live_rows(), estimated + morsels.morsel));
    for (size_t i = 0; i < morsels.live.size(); ++i) {
      if (ctx.Interrupted()) return InterruptedStatus(ctx);
      stats->rows_scanned += filter_morsel(i, &out, &stats->decompress_nanos);
    }
    stats->morsels_dispatched += morsels.live.size();
    return out;
  }

  // Morsel-parallel kernel: per-morsel position buffers, merged in morsel
  // order — byte-identical to the serial scan for any worker count. Each
  // worker filters into its reusable thread-local scratch and copies out
  // exactly the surviving positions, so per-morsel buffers are allocated at
  // their final size instead of growing geometrically. Decompress time and
  // rows read are accumulated per morsel and folded in morsel order below.
  std::vector<std::vector<uint32_t>> parts(morsels.live.size());
  std::vector<int64_t> decompress(morsels.live.size(), 0);
  std::vector<uint64_t> read(morsels.live.size(), 0);
  ThreadPool::ForStats fs =
      pool->ParallelFor(morsels.live.size(), [&](size_t i) {
        if (ctx.Interrupted()) return;
        std::vector<uint32_t>& scratch = MorselScratch();
        scratch.clear();
        read[i] = filter_morsel(i, &scratch, &decompress[i]);
        parts[i].assign(scratch.begin(), scratch.end());
      });
  stats->morsels_dispatched += fs.chunks;
  stats->threads_used = std::max(stats->threads_used, fs.threads_used);
  if (ctx.Interrupted()) return InterruptedStatus(ctx);

  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  for (int64_t d : decompress) stats->decompress_nanos += d;
  for (uint64_t r : read) stats->rows_scanned += r;
  std::vector<uint32_t> out;
  out.reserve(total);
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

Result<Estimate> Executor::ScanAggregate(TableEntry* entry,
                                         const AccessPlan& plan,
                                         const Predicate& where,
                                         const ColumnVector* measure,
                                         AggKind kind, const ExecContext& ctx,
                                         ExecStats* stats) {
  const bool tracing = ctx.tracing();

  // Select span: the index probe, or the column fetch (the per-morsel
  // filter runs fused inside the aggregate loop below).
  TraceSpan select_span("select", tracing, &stats->select_nanos);
  const std::vector<Condition>& conds = MorselConds(plan, where);
  std::vector<const ColumnVector*> cols;
  // An index probe's positions, cut per table morsel, seed the reduce the
  // way a focus plan's slices do.
  const std::vector<uint32_t>* seed = plan.focus;
  const std::vector<std::pair<size_t, size_t>>* slices = &plan.slices;
  size_t units = plan.morsels.live.size();
  std::vector<uint32_t> probed;
  std::vector<std::pair<size_t, size_t>> probed_slices;
  if (plan.index()) {
    EXPLOREDB_ASSIGN_OR_RETURN(probed, ProbeIndex(entry, plan, stats));
    probed_slices = SliceByMorsel(probed, plan.morsels.morsel);
    seed = &probed;
    slices = &probed_slices;
    units = probed_slices.size();
  } else {
    EXPLOREDB_ASSIGN_OR_RETURN(cols, FetchConditionColumns(entry, conds));
    CountPruning(plan, stats);
  }
  // A probe's positions (its residual applied) and a focus with no
  // conjunct left to apply are each morsel's selection as they stand.
  const bool as_is = plan.index() || (seed != nullptr && conds.empty());
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

  // One fused pass per morsel: take the morsel's selection, reduce it with
  // the dispatched masked-sum kernel, keep only the (sum, count, rows read,
  // decompress) partial, and for a sample the selection's Moments. Partials
  // merge in morsel order below, so the result is bit-identical for any
  // thread count (serial is the same computation with one worker).
  const bool sampled = plan.path == AccessPath::kSample;
  struct Partial {
    double sum = 0;
    uint64_t count = 0;
    uint64_t read = 0;
    int64_t decompress_nanos = 0;
    Moments matched;
  };
  std::vector<Partial> partials(units);
  auto agg_morsel = [&](size_t i) {
    TraceSpan span("morsel", tracing);
    const uint32_t* sel = nullptr;
    uint32_t cnt = 0;
    if (as_is) {
      sel = seed->data() + (*slices)[i].first;
      cnt = static_cast<uint32_t>((*slices)[i].second - (*slices)[i].first);
    } else {
      std::vector<uint32_t>& scratch = MorselScratch();
      scratch.clear();
      partials[i].read = AppendMorsel(plan, conds, cols, i, &scratch, tracing,
                                      &partials[i].decompress_nanos);
      sel = scratch.data();
      cnt = static_cast<uint32_t>(scratch.size());
    }
    partials[i].count = cnt;
    if (kind != AggKind::kCount && cnt > 0) {
      if (plan.measure_comp != nullptr) {
        // Decode only the surviving rows of the compressed measure, then
        // reduce the dense decode with an identity selection: the masked-sum
        // kernel sees the same value sequence (and stripe order) as the raw
        // path, so the double is bit-identical.
        std::vector<int64_t>& vals = MorselValueScratch();
        vals.resize(cnt);
        {
          TraceSpan dspan("decompress", tracing,
                          &partials[i].decompress_nanos);
          plan.measure_comp->Gather(sel, cnt, vals.data());
        }
        partials[i].sum =
            kt.sum_i64_sel(vals.data(), IotaScratch(cnt).data(), cnt);
      } else {
        partials[i].sum = dbl != nullptr ? kt.sum_f64_sel(dbl, sel, cnt)
                                         : kt.sum_i64_sel(i64, sel, cnt);
      }
    }
    if (!sampled) return;
    Moments& matched = partials[i].matched;
    if (kind == AggKind::kCount) {
      matched.count = cnt;
      return;
    }
    for (uint32_t j = 0; j < cnt; ++j) {
      matched.Add(dbl != nullptr ? dbl[sel[j]]
                                 : static_cast<double>(i64[sel[j]]));
    }
  };
  ThreadPool* pool = ctx.thread_pool();
  if (pool != nullptr && units > 1) {
    ThreadPool::ForStats fs = pool->ParallelFor(units, [&](size_t i) {
      if (ctx.Interrupted()) return;
      agg_morsel(i);
    });
    stats->morsels_dispatched += fs.chunks;
    stats->threads_used = std::max(stats->threads_used, fs.threads_used);
  } else {
    for (size_t i = 0; i < units; ++i) {
      if (ctx.Interrupted()) return InterruptedStatus(ctx);
      agg_morsel(i);
    }
    stats->morsels_dispatched += units;
  }
  if (ctx.Interrupted()) return InterruptedStatus(ctx);

  double sum = 0;
  uint64_t matches = 0;
  uint64_t read = 0;
  Moments matched;
  for (const Partial& p : partials) {
    sum += p.sum;
    matches += p.count;
    read += p.read;
    matched.Merge(p.matched);
    stats->decompress_nanos += p.decompress_nanos;
  }
  stats->rows_scanned += read;
  // A sample that drew every live row is the scan, and answers exactly.
  if (sampled && read < plan.morsels.live_rows()) {
    return EstimateAggregate(kind, matched, read, plan.morsels.live_rows(),
                             ctx.options().confidence);
  }
  return ExactAggregate(kind, sum, matches, ctx.options().confidence);
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
                                  const OnlineRule& online, bool project,
                                  const AccessPlan* access) {
  const bool tracing = ctx.tracing();
  ExecStats stats;
  TraceSpan query_span("query", tracing, &stats.total_nanos);
  TableEntry* entry = nullptr;
  ExecutionMode mode = ctx.options().mode;
  stats.simd_path = simd::ActivePath();
  AccessPlan chosen;
  {
    TraceSpan plan_span("plan", tracing, &stats.plan_nanos);
    EXPLOREDB_ASSIGN_OR_RETURN(entry, db_->GetTable(query.table()));
    // Cancellation aborts every path, but an expired deadline still admits
    // online aggregation: its contract is to answer with the current
    // estimate (approximate) rather than fail.
    if (ctx.cancelled() ||
        (ctx.DeadlineExceeded() && mode != ExecutionMode::kOnline)) {
      return InterruptedStatus(ctx);
    }
    if (access == nullptr && !ReadsOwnInput(query, mode)) {
      EXPLOREDB_ASSIGN_OR_RETURN(chosen,
                                 ChooseAccess(entry, query, ctx, false));
      access = &chosen;
    }
    if (access != nullptr) {
      mode = access->mode;
      stats.path = access->path;
    }
    stats.resolved_mode = mode;
  }

  if (query.aggregate().has_value() || query.group_by().has_value()) {
    EXPLOREDB_ASSIGN_OR_RETURN(
        QueryResult result,
        ExecuteAggregate(entry, query, access, ctx, online, &stats));
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
      SelectPositions(entry, *access, query.where(), ctx, &stats));

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

Result<QueryResult> Executor::ExecuteProgressive(
    const Query& query, const ExecContext& ctx,
    const ProgressiveCallback& callback) {
  ExecContext budgeted = ctx;
  budgeted.options().mode = ExecutionMode::kBudgeted;
  return planner_->Execute(query, budgeted, &callback);
}

Result<QueryResult> Executor::ExecuteAggregate(TableEntry* entry,
                                               const Query& query,
                                               const AccessPlan* access,
                                               const ExecContext& ctx,
                                               const OnlineRule& online,
                                               ExecStats* stats) {
  if (!query.aggregate().has_value()) {
    return Status::InvalidArgument("GROUP BY requires an aggregate");
  }
  const AggregateExpr& agg = *query.aggregate();
  const QueryOptions& options = ctx.options();

  // Resolve the measure column (COUNT may omit it).
  const ColumnVector* measure = nullptr;
  if (!agg.column.empty()) {
    EXPLOREDB_ASSIGN_OR_RETURN(size_t idx,
                               entry->schema().FieldIndex(agg.column));
    EXPLOREDB_ASSIGN_OR_RETURN(measure, entry->GetColumn(idx));
    if (measure->type() == DataType::kString) {
      return Status::InvalidArgument("aggregate over string column '" +
                                     agg.column + "'");
    }
  } else if (agg.kind != AggKind::kCount) {
    return Status::InvalidArgument("only COUNT may omit the column");
  }

  QueryResult result;
  result.approximate =
      access != nullptr && access->path == AccessPath::kSample;
  const bool tracing = ctx.tracing();

  // ---- Grouped aggregates -------------------------------------------------
  if (query.group_by().has_value()) {
    EXPLOREDB_ASSIGN_OR_RETURN(size_t gidx,
                               entry->schema().FieldIndex(*query.group_by()));
    EXPLOREDB_ASSIGN_OR_RETURN(const ColumnVector* gcol,
                               entry->GetColumn(gidx));
    // Which rows participate? A focus plan with no conjunct left to apply
    // is the selection itself (it holds no row outside the query's live
    // morsels), and aggregates in place.
    std::vector<uint32_t> selected;
    const std::vector<uint32_t>* positions = &selected;
    std::optional<std::pair<uint64_t, uint64_t>> sample;
    if (access->focus != nullptr && access->residual.empty()) {
      positions = access->focus;
    } else {
      const uint64_t scanned = stats->rows_scanned;
      EXPLOREDB_ASSIGN_OR_RETURN(
          selected,
          SelectPositions(entry, *access, query.where(), ctx, stats));
      // A sample that drew every live row is the scan, and groups exactly.
      const uint64_t drawn = stats->rows_scanned - scanned;
      if (result.approximate && drawn < access->morsels.live_rows()) {
        sample.emplace(drawn, access->morsels.live_rows());
      }
    }
    TraceSpan agg_span("aggregate", tracing, &stats->aggregate_nanos);
    // Typed, morsel-parallel hash aggregation. The group column's zone map
    // supplies the key range that unlocks the dense int64 fast path; string
    // keys aggregate over the column's dictionary codes.
    std::optional<std::pair<int64_t, int64_t>> key_range;
    if (gcol->type() == DataType::kInt64) {
      EXPLOREDB_ASSIGN_OR_RETURN(const ZoneMap* zm, entry->GetZoneMap(gidx));
      key_range = zm->Int64Range();
    }
    EXPLOREDB_ASSIGN_OR_RETURN(
        result.groups,
        HashGroupBy(*gcol, measure, agg.kind, options.confidence, *positions,
                    key_range, sample, ctx, stats));
    // A scan or focus plan's selection becomes the session's next focus.
    if (Focus* focus = ctx.focus();
        focus != nullptr && positions == &selected &&
        (access->path == AccessPath::kScan ||
         access->path == AccessPath::kFocus)) {
      focus->entry = entry;
      focus->conjuncts = query.where().conjuncts();
      focus->positions = std::move(selected);
    }
    return result;
  }

  // ---- Scalar aggregates --------------------------------------------------
  // Every access plan runs the fused scan-aggregate, which reduces each
  // table morsel's selection in one pass without materializing the full
  // position list (so it leaves the focus as it is).
  if (access != nullptr) {
    EXPLOREDB_ASSIGN_OR_RETURN(
        result.scalar, ScanAggregate(entry, *access, query.where(), measure,
                                     agg.kind, ctx, stats));
    return result;
  }

  // The online loop, the one aggregate without an access plan: materialize
  // predicate mask + values (one worker per partition), then consume
  // batches in random order until the caller's rule is met, the deadline
  // passes or the input runs out. An estimate that narrows the interval
  // becomes the best so far, and the caller hears of it; the answer is that
  // best, or the exact estimate at exhaustion. A deadline bounds
  // refinement: the best comes back approximate rather than failing the
  // query.
  stats->path = AccessPath::kOnline;
  EXPLOREDB_ASSIGN_OR_RETURN(size_t n, entry->NumRows());
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
    // Always consume at least one batch: an answer under deadline must be a
    // real (if coarse) estimate, never the zero-sample degenerate.
    if (!first && ctx.DeadlineExceeded()) break;
    TraceSpan round_span("online_round", tracing);
    // ProcessNext returns the rows actually consumed — the final batch is
    // usually short, and += batch would overcount it.
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

}  // namespace exploredb
