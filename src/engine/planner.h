#ifndef EXPLOREDB_ENGINE_PLANNER_H_
#define EXPLOREDB_ENGINE_PLANNER_H_

#include <cstdint>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/result.h"
#include "engine/query.h"

namespace exploredb {

class Database;
class Executor;

/// Self-calibrating per-row cost model. Seeded with conservative constants,
/// then updated (EWMA) from every budgeted execution's observed ExecStats, so
/// the planner's estimates converge on this machine's — and this table's —
/// real throughput after a handful of queries. All rates are nanoseconds per
/// row; `cv` is the running coefficient-of-variation estimate that turns a
/// sample size into a predicted relative CI half-width.
class CostModel {
 public:
  /// Predicted wall cost of an exact (zone-map pruned, possibly indexed)
  /// scan-aggregate over `rows` live rows. `compressed` selects the
  /// per-representation rate: compressed scans filter on packed words / run
  /// headers and decode only survivors, so their ns/row calibrates
  /// separately from the raw-column rate.
  double ExactCostNs(uint64_t rows, bool compressed = false) const
      EXCLUDES(mu_);
  /// Predicted wall cost of a sample plan that draws `rows` rows (each live
  /// morsel draws its rows in O(rows drawn), so the plan is priced per
  /// drawn row).
  double SampleCostNs(uint64_t rows) const EXCLUDES(mu_);
  /// Predicted relative CI half-width from `sample_rows` matching rows at
  /// `confidence` (z * cv / sqrt(m), the CLT promise under the current cv).
  double PredictRelativeError(uint64_t sample_rows, double confidence) const
      EXCLUDES(mu_);

  /// Predicted wall cost of the online aggregator: its input build over
  /// `rows` rows, then consuming `consumed` of them.
  double OnlineCostNs(uint64_t rows, uint64_t consumed) const EXCLUDES(mu_);
  /// How many rows the online aggregator can consume in `ns` after paying
  /// its input-build cost over `rows` rows (0 when even the build does not
  /// fit).
  uint64_t OnlineRowsWithin(double ns, uint64_t rows) const EXCLUDES(mu_);

  // -- Calibration (called by the planner after each budgeted execution) ----
  /// `compressed` routes the observation to the representation that actually
  /// served the scan (ExecStats::compressed_morsels > 0).
  void ObserveExact(uint64_t rows, int64_t nanos, bool compressed = false)
      EXCLUDES(mu_);
  void ObserveSample(uint64_t rows, int64_t nanos) EXCLUDES(mu_);
  void ObserveOnline(uint64_t rows, uint64_t consumed, int64_t nanos)
      EXCLUDES(mu_);
  /// Feeds an approximate scalar answer's realized relative CI and sample
  /// size back into the cv estimate. A zero estimate is skipped: its
  /// relative error is a fixed 1, not a measurement of the cv. So is a
  /// non-finite relative error, which the EWMA would never forget.
  void ObserveRelativeError(const Estimate& estimate, double confidence)
      EXCLUDES(mu_);

  // -- Test hooks ----------------------------------------------------------
  /// Pins the exact-scan rates (raw and compressed), e.g. absurdly high to
  /// force the planner off the exact plan deterministically.
  void SetExactNsPerRowForTest(double ns_per_row) EXCLUDES(mu_);
  double exact_ns_per_row() const EXCLUDES(mu_);
  double exact_compressed_ns_per_row() const EXCLUDES(mu_);

 private:
  static constexpr double kAlpha = 0.3;  ///< EWMA weight of new observations

  mutable Mutex mu_;
  // Seeds are deliberately pessimistic for the approximate paths and
  // realistic for the vectorized exact path; calibration replaces them after
  // the first few queries either way.
  double exact_ns_per_row_ GUARDED_BY(mu_) = 1.0;
  // Compressed scans skip whole blocks/runs before touching row data; seeded
  // slightly under the raw rate, calibrated independently.
  double exact_compressed_ns_per_row_ GUARDED_BY(mu_) = 0.8;
  double sample_ns_per_row_ GUARDED_BY(mu_) = 25.0;
  double online_build_ns_per_row_ GUARDED_BY(mu_) = 6.0;
  double online_ns_per_row_ GUARDED_BY(mu_) = 12.0;
  double cv_ GUARDED_BY(mu_) = 1.0;
};

/// The budgeted planner: given a Query and a LatencyBudget, estimates
/// candidate-plan costs from what the engine already knows — zone-map
/// selectivity and prunable zones, the calibrated per-row rates above, sample
/// sizes, online-aggregation round cost — and picks the cheapest plan
/// expected to meet the budget, walking the lattice
///
///   cache hit -> focus refine or pruned exact scan -> uniform-sample
///   estimate -> online agg
///
/// (the cache rung lives in Session, which consults its result cache before
/// the planner runs; the exact rung is the executor's own access plan,
/// which ExecContext::focus() may make a focus refine, priced by the rows
/// it reads and then run as priced). When no
/// exact plan fits and a ProgressiveCallback is given, the online rung runs
/// the executor's online loop, which streams refining partials through it
/// until the target error or the deadline; the best answer so far is
/// returned with achieved vs promised error recorded in ExecStats. Budgeted
/// aggregate queries never fail with kDeadlineExceeded: an exact plan that
/// blows its deadline is rescued by a small-sample rerun.
///
/// Thread safety: stateless apart from the CostModel (internally locked); one
/// Planner instance serves all of an Executor's queries concurrently.
class Planner {
 public:
  Planner(Database* db, Executor* executor) : db_(db), executor_(executor) {}

  /// Plans and executes `query` under `ctx` (whose options().budget carries
  /// the contract). `callback`, when non-null, receives progressive
  /// deliveries; pass nullptr for a single-shot budgeted answer.
  Result<QueryResult> Execute(const Query& query, const ExecContext& ctx,
                              const ProgressiveCallback* callback);

  CostModel& cost_model() { return cost_model_; }

  /// Accounts a budgeted query the session's result cache answered, the
  /// lattice's cache rung, in the planner's series: a planner query, a
  /// cache choice, and a budget met.
  static void CountCacheHit();

 private:
  Database* db_;
  Executor* executor_;
  CostModel cost_model_;
};

}  // namespace exploredb

#endif  // EXPLOREDB_ENGINE_PLANNER_H_
