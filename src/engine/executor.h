#ifndef EXPLOREDB_ENGINE_EXECUTOR_H_
#define EXPLOREDB_ENGINE_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/database.h"
#include "engine/query.h"

namespace exploredb {

class Planner;

/// Executes declarative queries against a Database under a chosen execution
/// mode. The executor is where the tutorial's layers meet: selection paths
/// route through adaptive indexes (cracking), columns stream in through
/// adaptive loading, and approximate modes answer from samples or online
/// aggregation.
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

  /// Zone-map plan for one scan: the morsels that survive pruning (in morsel
  /// order — the merge contract depends on it), prune accounting, and the
  /// predicate's estimated selectivity under the zone maps' uniform-within-
  /// zone model (sharpened by compressed int64 columns). The estimate
  /// pre-sizes selection vectors and prices the planner's exact rung; it is
  /// never a correctness input.
  struct MorselPlan {
    std::vector<size_t> live;
    size_t num_morsels = 0;
    size_t checked = 0;  ///< morsels tested against zone maps
    size_t pruned = 0;
    size_t rows_pruned = 0;
    double selectivity = 1.0;
    /// Some zone-map pruner has a compressed int64 column (the planner then
    /// prices the scan at the compressed rate).
    bool compressed = false;
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

  /// Execute without the planner: runs `query` under ctx's (resolved) mode,
  /// with `online` as the online loop's rule. The planner's online rung
  /// enters here with its own rule. Without `project`, a selection returns
  /// its positions only.
  Result<QueryResult> Run(const Query& query, const ExecContext& ctx,
                          const OnlineRule& online, bool project = true);

  /// The zone-map plan of a dense scan of `pred` over the first `n` rows of
  /// `entry`, one unit per zone (ZoneMap::kDefaultZoneRows rows). The
  /// planner costs its exact rung with it; it counts no pruning.
  static Result<MorselPlan> PlanScan(TableEntry* entry, const Predicate& pred,
                                     size_t n, const ExecContext& ctx);

  /// An int64 range [lo, hi) extracted from a predicate, plus the conjuncts
  /// the index cannot serve.
  struct RangePlan {
    size_t column;
    int64_t lo;
    int64_t hi;
    std::vector<Condition> residual;
  };

  /// A covering session focus, as one scan plan uses it: `positions` takes
  /// the table's place as the seed of each live morsel, narrowed by
  /// `residual`, the query's conjuncts the focus lacks. A null `positions`
  /// filters the table.
  struct FocusSeed {
    const std::vector<uint32_t>* positions = nullptr;
    std::vector<Condition> residual;
  };

  /// Tries to turn the predicate into a single-column int64 range (the shape
  /// cracking and sorted indexes accelerate).
  static std::optional<RangePlan> ExtractRange(const Predicate& pred,
                                               const Schema& schema);

  /// Positions matching `pred` under `mode` (kAuto already resolved).
  /// Full scans are morsel-parallel, seeded by `seed` when it is no larger
  /// than the zone-map-pruned scan; index paths record which index served
  /// the query in stats->path.
  Result<std::vector<uint32_t>> SelectPositions(TableEntry* entry,
                                                const Predicate& pred,
                                                ExecutionMode mode,
                                                const ExecContext& ctx,
                                                ExecStats* stats,
                                                const FocusSeed& seed);

  /// Exact scalar aggregate over `positions`, morsel-parallel with
  /// deterministic per-morsel partials (identical result for any thread
  /// count, including serial).
  Result<Estimate> AggregatePositions(const std::vector<uint32_t>& positions,
                                      const ColumnVector* measure,
                                      AggKind kind, const ExecContext& ctx,
                                      ExecStats* stats);

  /// Fused scan + scalar aggregate for predicates no index serves: each
  /// morsel filters into a reusable selection vector and reduces it with the
  /// dispatched masked-sum kernels in one pass, never materializing the
  /// full position list. Per-morsel partials merge in morsel order, so the
  /// answer is bit-identical for any thread count and kernel path. When
  /// `measure_comp` is non-null the measure values are gathered out of the
  /// compressed representation (only surviving sub-blocks are decoded)
  /// instead of the raw array — same values, same accumulation order.
  /// `seed` replaces the per-morsel filter as in SelectPositions.
  Result<Estimate> ScanAggregate(TableEntry* entry, const Predicate& pred,
                                 const ColumnVector* measure,
                                 const CompressedInt64Column* measure_comp,
                                 AggKind kind, const ExecContext& ctx,
                                 ExecStats* stats, const FocusSeed& seed);

  Result<QueryResult> ExecuteAggregate(TableEntry* entry, const Query& query,
                                       ExecutionMode mode,
                                       const ExecContext& ctx,
                                       const OnlineRule& online,
                                       ExecStats* stats);

  Database* db_;
  std::unique_ptr<Planner> planner_;  // owned; defined in planner.h
};

}  // namespace exploredb

#endif  // EXPLOREDB_ENGINE_EXECUTOR_H_
