#ifndef EXPLOREDB_ENGINE_EXECUTOR_H_
#define EXPLOREDB_ENGINE_EXECUTOR_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "engine/database.h"
#include "engine/query.h"

namespace exploredb {

class Planner;

/// Sorts row positions ascending by an LSD radix sort over 12-bit digits
/// that skips a digit every position shares (at most two passes below 2^24
/// rows, three above), with a scatter buffer allocated per call. Its three
/// 4096-bucket histograms cost the same few microseconds at any size.
void RadixSortPositions(std::vector<uint32_t>* positions);

/// Below this many positions std::sort is cheaper than the radix sort's
/// fixed cost: in BM_SortPositions std::sort wins at 128 positions and the
/// radix sort from 160 on.
inline constexpr size_t kRadixSortCutoff = 144;

/// Sorts row positions ascending, as an index probe orders its answer:
/// std::sort below kRadixSortCutoff, RadixSortPositions from there on.
void SortPositions(std::vector<uint32_t>* positions);

/// Executes declarative queries against a Database under a chosen execution
/// mode. The executor is where the tutorial's layers meet: selection paths
/// route through adaptive indexes (cracking), columns stream in through
/// adaptive loading, and approximate modes answer from samples or online
/// aggregation. All but the online loop run one AccessPlan, chosen once.
///
/// Full-column predicate scans and exact aggregation run morsel-parallel
/// over the ExecContext's thread pool: columns split into fixed-size morsels
/// evaluated into per-morsel buffers that are merged in morsel order, so the
/// result is identical to the serial path for any thread count. Projection
/// gathers in parallel grains into pre-sized columns. Every query returns an
/// ExecStats breakdown inside its QueryResult.
class Executor {
 public:
  explicit Executor(Database* db);
  ~Executor();

  /// Runs `query` under `ctx` (options, deadline, cancellation, pool).
  /// Selections yield positions + projected rows; aggregates yield an
  /// Estimate (exact modes have zero CI width). A cancelled query fails with
  /// kCancelled; an expired deadline fails with kDeadlineExceeded, except in
  /// online-aggregation mode, where the best estimate so far is returned as
  /// an approximate answer (the AQP contract: a deadline bounds refinement,
  /// not correctness). ExecutionMode::kBudgeted routes through the planner,
  /// which picks the cheapest plan expected to meet ctx.options().budget.
  Result<QueryResult> Execute(const Query& query, const ExecContext& ctx = {});

  /// The positions a selection query matches, without projecting its rows:
  /// Execute's plan and select phases, counted in the same executor metrics,
  /// with `rows` left empty. A kBudgeted selection runs as the planner runs
  /// one: kAuto, under the budget's deadline. Fails with InvalidArgument on
  /// an aggregate or GROUP BY query.
  Result<QueryResult> ExecuteSelection(const Query& query,
                                       const ExecContext& ctx);

  /// Resolves a name-based QueryBuilder against the catalog, then executes.
  Result<QueryResult> Execute(const QueryBuilder& builder,
                              const ExecContext& ctx = {});

  /// Budgeted execution with progressive refinement: the planner streams
  /// refining partial answers (monotonically shrinking CIs) through
  /// `callback` until the budget's deadline, then returns the best answer —
  /// whose final delivery it equals bit-identically. `ctx.options().budget`
  /// carries the contract (mode is forced to kBudgeted).
  Result<QueryResult> ExecuteProgressive(const Query& query,
                                         const ExecContext& ctx,
                                         const ProgressiveCallback& callback);

  /// Gathers the `select` columns of `entry` (every column when empty) at
  /// `positions` into a new table: the projection of a selection, whether
  /// it was just executed or served from a result cache. The gather runs in
  /// fixed grains of positions over ctx's thread pool (serially without one,
  /// or when the selection fits in one grain); each grain writes only its
  /// own output slots, so the rows are identical for any worker count.
  static Result<Table> Project(TableEntry* entry,
                               const std::vector<std::string>& select,
                               const std::vector<uint32_t>& positions,
                               const ExecContext& ctx);

  /// The budgeted planner (exposed for calibration inspection and tests).
  Planner& planner() { return *planner_; }

  /// Zone-map plan for one scan: the table's rows cut into morsels, the
  /// morsels that survive pruning (in morsel order — the merge contract
  /// depends on it), prune accounting, and the predicate's estimated
  /// selectivity under the zone maps' uniform-within-zone model (sharpened
  /// by compressed int64 columns). The estimate pre-sizes selection vectors
  /// and prices the planner's exact rung; it is never a correctness input.
  struct MorselPlan {
    size_t rows = 0;    ///< table rows
    size_t morsel = 1;  ///< rows per morsel
    std::vector<size_t> live;
    size_t num_morsels = 0;
    size_t checked = 0;  ///< morsels tested against zone maps
    size_t pruned = 0;
    size_t rows_pruned = 0;
    double selectivity = 1.0;
    /// Some zone-map pruner has a compressed int64 column (the planner then
    /// prices the scan at the compressed rate).
    bool compressed = false;

    size_t live_rows() const { return rows - rows_pruned; }
    /// Rows [begin, end) of morsel m.
    std::pair<uint32_t, uint32_t> Rows(size_t m) const {
      return {static_cast<uint32_t>(m * morsel),
              static_cast<uint32_t>(std::min(rows, m * morsel + morsel))};
    }
  };

  /// How one query reads its table, chosen once by ChooseAccess: an index
  /// probe, a refine of the session's focus, a zone-map-pruned scan, or a
  /// uniform sample of that scan's live morsels, with every input its path
  /// needs that is not a column. The executor runs it; the planner prices
  /// an exact plan and hands the same plan down.
  struct AccessPlan {
    /// kScan, kFocus, kCracker, kSorted or kSample.
    AccessPath path = AccessPath::kScan;
    /// The mode that ran: kAuto resolved, every other mode as requested.
    ExecutionMode mode = ExecutionMode::kScan;
    /// Every plan but an index probe, which fills it only when priced (as
    /// the pruned scan it replaces), and otherwise only `rows` and `morsel`.
    MorselPlan morsels;
    /// Scan plans: per conjunct, the compressed int64 column its morsel
    /// filter reads (nullptr: the raw column; always, for a sample).
    std::vector<const CompressedInt64Column*> comp;
    /// Scan plans of a scalar aggregate: the compressed int64 measure the
    /// reduce gathers from (nullptr: the raw column).
    const CompressedInt64Column* measure_comp = nullptr;
    /// String (in)equalities compare dictionary codes instead of values.
    bool codes = false;
    /// A filter or the measure reads compressed data, so every live morsel
    /// counts in ExecStats::compressed_morsels.
    bool on_compressed = false;
    /// Index plans: the int64 range [lo, hi) probed on `column`.
    size_t column = 0;
    int64_t lo = 0;
    int64_t hi = 0;
    /// Priced index plans whose index is published: the rows the probe
    /// reads, the cracker's pieces from the one holding lo to the one
    /// holding hi - 1, or the sorted index's range count.
    std::optional<uint64_t> probe_rows;
    /// Index and focus plans: the query's conjuncts the probe or the focus
    /// does not apply.
    std::vector<Condition> residual;
    /// Focus plans: the focus positions, per live morsel the slice
    /// [first, last) of them in the morsel's rows, and the slices' rows
    /// when the residual refines them (0 when it is empty).
    const std::vector<uint32_t>* focus = nullptr;
    std::vector<std::pair<size_t, size_t>> slices;
    uint64_t focus_rows = 0;
    /// Sample plans: each live morsel keeps each of its rows with this
    /// probability (Bernoulli), then applies the query's conjuncts.
    double fraction = 1.0;

    bool index() const {
      return path == AccessPath::kCracker || path == AccessPath::kSorted;
    }
  };

 private:
  friend class Planner;

  /// How the online-aggregation loop stops, and where it streams each
  /// estimate that narrows the interval. A direct kOnline query stops once
  /// the half-width is at most `absolute` (QueryOptions::error_budget); the
  /// planner's online rung stops once the relative error is at most
  /// `relative`, and streams through `deliver`. A zero bound never stops
  /// the loop; the context's deadline always does.
  struct OnlineRule {
    double absolute = 0.0;
    double relative = 0.0;
    const ProgressiveCallback* deliver = nullptr;
  };

  /// Execute without the planner: runs `query` under ctx's mode, with
  /// `online` as the online loop's rule. The planner's online rung enters
  /// here with its own rule, and its exact rung with the `access` plan it
  /// priced; without one, Run chooses it. Without `project`, a selection
  /// returns its positions only.
  Result<QueryResult> Run(const Query& query, const ExecContext& ctx,
                          const OnlineRule& online, bool project = true,
                          const AccessPlan* access = nullptr);

  /// The one access-path chooser. Under kCracking or kFullIndex, or kAuto,
  /// a predicate with a two-sided int64 range (ExtractRange) probes an
  /// index: the sorted index under kFullIndex, else the cracker. A kSampled
  /// aggregate samples the zone-map-pruned scan's live morsels. Otherwise a
  /// covering ctx.focus() no larger than the pruned scan seeds each live
  /// morsel, and failing that the pruned scan filters the table. Reads the
  /// schema, the zone maps and the published compressed columns, never a
  /// column. An index plan walks no zone map unless `priced`: the planner
  /// prices a probe at the rows it reads once its index is published, and
  /// until then at the pruned scan it replaces.
  static Result<AccessPlan> ChooseAccess(TableEntry* entry, const Query& query,
                                         const ExecContext& ctx, bool priced);

  /// Folds the predicate into an int64 range [lo, hi) on one column, the
  /// shape cracking and sorted indexes accelerate, and sets the plan's
  /// column, bounds and residual; false when no column is bounded on both
  /// sides.
  static bool ExtractRange(const Predicate& pred, const Schema& schema,
                           AccessPlan* plan);

  /// The positions `where` matches, in row order, by `plan`: its index
  /// probe, or its morsels, morsel-parallel. Records the path's work in
  /// `stats`: a sample plan's rows_scanned are the rows it drew.
  Result<std::vector<uint32_t>> SelectPositions(TableEntry* entry,
                                                const AccessPlan& plan,
                                                const Predicate& where,
                                                const ExecContext& ctx,
                                                ExecStats* stats);

  /// Fused select + scalar aggregate by `plan`, one reduce per table
  /// morsel: a scan filters each live morsel into a reusable selection
  /// vector and reduces it with the dispatched masked-sum kernels in one
  /// pass, never materializing the full position list; a focus plan does
  /// the same from its slice, and an index plan from its probe's positions
  /// in the morsel. Per-morsel partials merge in morsel order, so every
  /// plan returns the same bits, at any thread count and kernel path. A
  /// scan's compressed measure is gathered out of the compressed
  /// representation (only surviving sub-blocks are decoded) instead of the
  /// raw array — same values, same accumulation order. A sample plan also
  /// keeps each morsel's Moments for EstimateAggregate.
  Result<Estimate> ScanAggregate(TableEntry* entry, const AccessPlan& plan,
                                 const Predicate& where,
                                 const ColumnVector* measure, AggKind kind,
                                 const ExecContext& ctx, ExecStats* stats);

  /// `access` is null exactly for the online loop, which reads its own input.
  Result<QueryResult> ExecuteAggregate(TableEntry* entry, const Query& query,
                                       const AccessPlan* access,
                                       const ExecContext& ctx,
                                       const OnlineRule& online,
                                       ExecStats* stats);

  Database* db_;
  std::unique_ptr<Planner> planner_;  // owned; defined in planner.h
};

}  // namespace exploredb

#endif  // EXPLOREDB_ENGINE_EXECUTOR_H_
