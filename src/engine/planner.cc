#include "engine/planner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>

#include "common/metrics.h"
#include "common/trace.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "sampling/estimators.h"

namespace exploredb {

namespace {

// Planner observability: one counter per lattice rung plus contract
// accounting, so a dashboard can answer "what fraction of budgeted queries
// met their contract, and which plans carried the load".
Counter* PlannerQueriesCounter() {
  static Counter* c = Metrics().GetCounter(
      "exploredb_planner_queries_total", "Queries routed through the planner");
  return c;
}

Counter* PlansConsideredCounter() {
  static Counter* c = Metrics().GetCounter(
      "exploredb_planner_plans_considered_total",
      "Candidate plans costed by the planner");
  return c;
}

Counter* PlannerChoiceCounter(PlannerChoice choice) {
  static Counter* cache = Metrics().GetCounter(
      "exploredb_planner_choice_cache_total",
      "Budgeted queries served from the result cache");
  static Counter* exact = Metrics().GetCounter(
      "exploredb_planner_choice_exact_total",
      "Budgeted queries answered by an exact plan");
  static Counter* sample = Metrics().GetCounter(
      "exploredb_planner_choice_sample_total",
      "Budgeted queries answered by a uniform-sample estimate");
  static Counter* online = Metrics().GetCounter(
      "exploredb_planner_choice_online_total",
      "Budgeted queries answered by progressive online aggregation");
  switch (choice) {
    case PlannerChoice::kCache:
      return cache;
    case PlannerChoice::kSample:
      return sample;
    case PlannerChoice::kOnline:
      return online;
    case PlannerChoice::kExact:
    case PlannerChoice::kNone:
      break;
  }
  return exact;
}

Counter* BudgetMetCounter() {
  static Counter* c = Metrics().GetCounter(
      "exploredb_planner_budget_met_total",
      "Budgeted queries whose wall time stayed within their latency budget");
  return c;
}

Counter* BudgetMissedCounter() {
  static Counter* c = Metrics().GetCounter(
      "exploredb_planner_budget_missed_total",
      "Budgeted queries whose wall time exceeded their latency budget");
  return c;
}

Counter* ExactRescueCounter() {
  static Counter* c = Metrics().GetCounter(
      "exploredb_planner_exact_rescues_total",
      "Exact plans that blew their deadline and were rescued by a sample");
  return c;
}

Counter* DeliveriesCounter() {
  static Counter* c = Metrics().GetCounter(
      "exploredb_planner_progressive_deliveries_total",
      "Progressive refinement deliveries streamed to callbacks");
  return c;
}

/// Smallest sample the approximate rescue paths will run: below this the CLT
/// machinery has nothing to work with.
constexpr uint64_t kMinSampleRows = 256;

/// Fraction of the remaining budget a plan's cost estimate may fill. The
/// slack absorbs cost-model error in the direction that matters: a plan that
/// "just fits" on paper should still land inside the contract.
constexpr double kBudgetHeadroom = 0.8;

double EwmaUpdate(double current, double observed, double alpha) {
  return current + alpha * (observed - current);
}

int64_t ElapsedNanos(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// CostModel
// ---------------------------------------------------------------------------

double CostModel::ExactCostNs(uint64_t rows, bool compressed) const {
  MutexLock lock(mu_);
  return static_cast<double>(rows) *
         (compressed ? exact_compressed_ns_per_row_ : exact_ns_per_row_);
}

double CostModel::SampleCostNs(uint64_t rows) const {
  MutexLock lock(mu_);
  return static_cast<double>(rows) * sample_ns_per_row_;
}

double CostModel::PredictRelativeError(uint64_t sample_rows,
                                       double confidence) const {
  MutexLock lock(mu_);
  if (sample_rows == 0) return 1.0;
  return ZScore(confidence) * cv_ /
         std::sqrt(static_cast<double>(sample_rows));
}

double CostModel::OnlineCostNs(uint64_t rows, uint64_t consumed) const {
  MutexLock lock(mu_);
  return static_cast<double>(rows) * online_build_ns_per_row_ +
         static_cast<double>(consumed) * online_ns_per_row_;
}

uint64_t CostModel::OnlineRowsWithin(double ns, uint64_t rows) const {
  MutexLock lock(mu_);
  double build = static_cast<double>(rows) * online_build_ns_per_row_;
  if (ns <= build || online_ns_per_row_ <= 0) return 0;
  double consumable = (ns - build) / online_ns_per_row_;
  return static_cast<uint64_t>(
      std::min(consumable, static_cast<double>(rows)));
}

void CostModel::ObserveExact(uint64_t rows, int64_t nanos, bool compressed) {
  if (rows == 0 || nanos <= 0) return;
  MutexLock lock(mu_);
  double& rate = compressed ? exact_compressed_ns_per_row_ : exact_ns_per_row_;
  rate = EwmaUpdate(
      rate, static_cast<double>(nanos) / static_cast<double>(rows), kAlpha);
}

void CostModel::ObserveSample(uint64_t rows, int64_t nanos) {
  if (rows == 0 || nanos <= 0) return;
  MutexLock lock(mu_);
  sample_ns_per_row_ = EwmaUpdate(
      sample_ns_per_row_,
      static_cast<double>(nanos) / static_cast<double>(rows), kAlpha);
}

void CostModel::ObserveOnline(uint64_t rows, uint64_t consumed,
                              int64_t nanos) {
  if (rows == 0 || nanos <= 0) return;
  MutexLock lock(mu_);
  // Attribute the wall time across build and consumption with the current
  // split, then nudge both rates toward the observation. Crude, but it only
  // has to keep the estimates within a small factor of reality.
  double build_share = static_cast<double>(rows) * online_build_ns_per_row_;
  double consume_share = static_cast<double>(consumed) * online_ns_per_row_;
  double total_share = build_share + consume_share;
  if (total_share <= 0) return;
  double scale = static_cast<double>(nanos) / total_share;
  online_build_ns_per_row_ =
      EwmaUpdate(online_build_ns_per_row_,
                 online_build_ns_per_row_ * scale, kAlpha);
  online_ns_per_row_ =
      EwmaUpdate(online_ns_per_row_, online_ns_per_row_ * scale, kAlpha);
}

void CostModel::ObserveRelativeError(const Estimate& estimate,
                                     double confidence) {
  // A zero estimate's relative error is the fixed 1 of RelativeError, not a
  // measurement of the cv.
  if (estimate.sample_size == 0 || estimate.value == 0.0) return;
  const double relative_error = RelativeError(estimate);
  // An infinite interval (an online AVG before two rows match) measures
  // nothing either, and the EWMA would carry it forever: inf, then NaN.
  if (!std::isfinite(relative_error) || relative_error <= 0) return;
  double z = ZScore(confidence);
  if (z <= 0) return;
  MutexLock lock(mu_);
  double observed_cv =
      relative_error * std::sqrt(static_cast<double>(estimate.sample_size)) /
      z;
  cv_ = EwmaUpdate(cv_, observed_cv, kAlpha);
}

void CostModel::SetExactNsPerRowForTest(double ns_per_row) {
  MutexLock lock(mu_);
  exact_ns_per_row_ = ns_per_row;
  exact_compressed_ns_per_row_ = ns_per_row;
}

double CostModel::exact_ns_per_row() const {
  MutexLock lock(mu_);
  return exact_ns_per_row_;
}

double CostModel::exact_compressed_ns_per_row() const {
  MutexLock lock(mu_);
  return exact_compressed_ns_per_row_;
}

// ---------------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------------

void Planner::CountCacheHit() {
  PlannerQueriesCounter()->Add();
  PlannerChoiceCounter(PlannerChoice::kCache)->Add();
  BudgetMetCounter()->Add();
}

Result<QueryResult> Planner::Execute(const Query& query, const ExecContext& ctx,
                                     const ProgressiveCallback* callback) {
  if (ctx.cancelled()) return Status::Cancelled("query cancelled");
  const bool tracing = ctx.tracing();
  const LatencyBudget& budget = ctx.options().budget;
  const auto start = std::chrono::steady_clock::now();
  // The budget anchors at plan time; an explicit earlier deadline still wins.
  auto deadline = start + budget.latency;
  if (ctx.has_deadline() && *ctx.deadline() < deadline) {
    deadline = *ctx.deadline();
  }
  const double budget_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(deadline - start)
          .count());

  PlannerQueriesCounter()->Add();

  // ---- Plan: cost the lattice with what the engine already knows ----------
  int64_t planner_nanos = 0;
  ExecStats planned;  // planner fields filled here, execution fills the rest
  {
    TraceSpan plan_span("planner", tracing, &planner_nanos);
    EXPLOREDB_ASSIGN_OR_RETURN(TableEntry * entry, db_->GetTable(query.table()));
    const bool scalar_agg =
        query.aggregate().has_value() && !query.group_by().has_value();
    const bool grouped = query.group_by().has_value();

    // Rung 2: exact plan. Always costed; cache (rung 1) is consulted by the
    // Session before the planner runs. The plan is the executor's own, the
    // one the rung runs, and is priced by the rows it reads: a focus plan
    // by the focus rows it refines (none when no conjunct is left to
    // apply), a scan by its live rows, and an index probe by the rows of
    // its published index it reads, at the raw scan rate. An unbuilt index
    // is priced as the zone-map-pruned scan it replaces.
    ExecContext exact_ctx = ctx;
    exact_ctx.SetMode(ExecutionMode::kAuto);
    exact_ctx.SetDeadline(deadline);
    EXPLOREDB_ASSIGN_OR_RETURN(
        Executor::AccessPlan access,
        Executor::ChooseAccess(entry, query, exact_ctx, /*priced=*/true));
    const Executor::MorselPlan& scan = access.morsels;
    const auto n = static_cast<uint64_t>(scan.rows);
    const uint64_t live_rows = scan.live_rows();
    uint32_t plans = 1;
    const double exact_cost =
        access.focus != nullptr
            ? cost_model_.ExactCostNs(access.focus_rows, scan.compressed)
        : access.probe_rows.has_value()
            ? cost_model_.ExactCostNs(*access.probe_rows)
            : cost_model_.ExactCostNs(live_rows, scan.compressed);
    const bool exact_fits = exact_cost <= budget_ns * kBudgetHeadroom;

    // Rung 3: uniform-sample estimate sized to the budget (a sample plan is
    // priced per drawn row, apart from the scan's per-live-row rate).
    uint64_t sample_rows = 0;
    double sample_fraction = 0.0;
    double sample_promise = 1.0;
    if ((scalar_agg || grouped) && n > 0) {
      ++plans;
      // An expired deadline makes this negative; clamp it so the query
      // takes the minimum-sample path below.
      const double affordable = std::max(
          0.0, budget_ns * kBudgetHeadroom / cost_model_.SampleCostNs(1));
      sample_rows = static_cast<uint64_t>(
          std::min(affordable, static_cast<double>(n) / 2.0));
      sample_fraction =
          static_cast<double>(sample_rows) / static_cast<double>(n);
      const auto matching = static_cast<uint64_t>(
          std::max(1.0, static_cast<double>(sample_rows) * scan.selectivity));
      sample_promise =
          cost_model_.PredictRelativeError(matching, budget.confidence);
    }
    const bool sample_feasible = sample_rows >= kMinSampleRows;

    // Rung 4: online aggregation — pay an O(n) input build, then refine until
    // the deadline. Only scalar aggregates have an anytime estimator.
    uint64_t online_rows = 0;
    double online_promise = 1.0;
    if (scalar_agg && n > 0) {
      ++plans;
      online_rows = cost_model_.OnlineRowsWithin(budget_ns * kBudgetHeadroom, n);
      if (online_rows > 0) {
        const auto matching = static_cast<uint64_t>(std::max(
            1.0, static_cast<double>(online_rows) * scan.selectivity));
        online_promise =
            cost_model_.PredictRelativeError(matching, budget.confidence);
      }
    }
    const bool online_feasible = scalar_agg && online_rows > 0;

    // ---- Choose ------------------------------------------------------------
    PlannerChoice choice = PlannerChoice::kExact;
    double promised = 0.0;
    if (!exact_fits && scalar_agg) {
      const bool sample_meets_target =
          sample_feasible && sample_promise <= budget.target_error;
      if (callback != nullptr && online_feasible) {
        // Progressive refinement was requested: stream online-agg partials.
        choice = PlannerChoice::kOnline;
        promised = online_promise;
      } else if (sample_meets_target) {
        choice = PlannerChoice::kSample;
        promised = sample_promise;
      } else if (online_feasible && online_promise < sample_promise) {
        choice = PlannerChoice::kOnline;
        promised = online_promise;
      } else if (sample_feasible) {
        choice = PlannerChoice::kSample;
        promised = sample_promise;
      } else if (online_feasible) {
        choice = PlannerChoice::kOnline;
        promised = online_promise;
      } else {
        // Nothing fits (hopeless budget): answer anyway from the smallest
        // meaningful sample — an approximate answer beats a failure.
        choice = PlannerChoice::kSample;
        sample_rows = std::min<uint64_t>(std::max(n / 2, uint64_t{1}),
                                         kMinSampleRows);
        sample_fraction =
            n == 0 ? 1.0
                   : static_cast<double>(sample_rows) / static_cast<double>(n);
        promised = cost_model_.PredictRelativeError(
            static_cast<uint64_t>(std::max(
                1.0, static_cast<double>(sample_rows) * scan.selectivity)),
            budget.confidence);
      }
    } else if (!exact_fits && grouped && sample_feasible) {
      choice = PlannerChoice::kSample;
      promised = sample_promise;
    }
    // Selections (and everything else without an approximate rung) run exact:
    // a position list has no anytime estimator, so the budget only informs
    // the deadline.

    // The cost the chosen rung was priced at, kept beside the actual one.
    double predicted = exact_cost;
    if (choice == PlannerChoice::kSample) {
      predicted = cost_model_.SampleCostNs(sample_rows);
    } else if (choice == PlannerChoice::kOnline) {
      predicted = cost_model_.OnlineCostNs(n, online_rows);
    }

    planned.planner_choice = choice;
    planned.plans_considered = plans;
    planned.promised_error = promised;
    planned.predicted_nanos = std::llround(predicted);
    PlansConsideredCounter()->Add(plans);
    plan_span.Stop();

    // ---- Run the chosen plan ----------------------------------------------
    Result<QueryResult> run = Status::Internal("planner: no plan executed");
    bool rescued = false;
    int64_t abandoned_nanos = 0;  // the exact attempt a rescue gave up on
    uint64_t streamed = 0;  // online deliveries before the final one
    switch (choice) {
      case PlannerChoice::kExact: {
        const auto attempt = std::chrono::steady_clock::now();
        run = executor_->Run(query, exact_ctx, {}, /*project=*/true, &access);
        if (!run.ok() && run.status().code() == StatusCode::kDeadlineExceeded &&
            (scalar_agg || grouped)) {
          // The cost model was wrong and the exact plan blew its deadline:
          // degrade to a small sample rather than fail the contract. Feed
          // the blown attempt back into the exact rate (elapsed wall over
          // estimated live rows underestimates the true rate, but each
          // rescue pushes the estimate up until exact stops being chosen).
          rescued = true;
          ExactRescueCounter()->Add();
          abandoned_nanos = ElapsedNanos(attempt);
          cost_model_.ObserveExact(live_rows, ElapsedNanos(start),
                                   scan.compressed);
          ExecContext rescue = ctx;
          rescue.SetMode(ExecutionMode::kSampled);
          rescue.options().sample_fraction =
              n == 0 ? 1.0
                     : std::min(1.0, static_cast<double>(kMinSampleRows) /
                                         static_cast<double>(n));
          rescue.options().confidence = budget.confidence;
          rescue.ClearDeadline();
          run = executor_->Execute(query, rescue);
        }
        break;
      }
      case PlannerChoice::kSample: {
        ExecContext sub = ctx;
        sub.SetMode(ExecutionMode::kSampled);
        sub.options().sample_fraction = sample_fraction;
        sub.options().confidence = budget.confidence;
        // The planner owns the deadline for approximate plans: the sampled
        // path was sized to the budget, and failing it at the line would
        // discard a usable answer.
        sub.ClearDeadline();
        run = executor_->Execute(query, sub);
        break;
      }
      case PlannerChoice::kOnline: {
        // The executor's online loop, stopped by the target error or the
        // deadline; each estimate it streams is one delivery.
        ExecContext sub = ctx;
        sub.SetMode(ExecutionMode::kOnline);
        sub.options().confidence = budget.confidence;
        sub.SetDeadline(deadline);
        const ProgressiveCallback stream = [&](const ProgressiveUpdate& u) {
          (*callback)(u);
          DeliveriesCounter()->Add();
          ++streamed;
        };
        run = executor_->Run(
            query, sub,
            {.relative = budget.target_error,
             .deliver = callback != nullptr ? &stream : nullptr});
        break;
      }
      case PlannerChoice::kCache:
      case PlannerChoice::kNone:
        return Status::Internal("planner: unreachable choice");
    }
    if (!run.ok()) return run.status();
    QueryResult result = std::move(run).ValueOrDie();

    // Overlay planner provenance on the sub-execution's stats. The total
    // runs from the planner's start, so it holds an abandoned exact attempt
    // too; the cost model learns from the plan that answered.
    ExecStats& stats = result.exec_stats;
    const int64_t run_nanos = stats.total_nanos;
    stats.planner_choice = rescued ? PlannerChoice::kSample : choice;
    stats.plans_considered = planned.plans_considered;
    stats.promised_error = planned.promised_error;
    stats.predicted_nanos = planned.predicted_nanos;
    stats.plan_nanos += planner_nanos;
    stats.abandoned_nanos = abandoned_nanos;
    stats.total_nanos = ElapsedNanos(start);
    if (result.scalar.has_value()) {
      stats.achieved_error = RelativeError(*result.scalar);
      if (result.approximate) {
        cost_model_.ObserveRelativeError(*result.scalar, budget.confidence);
      }
    } else if (!result.groups.empty()) {
      // Grouped answers promise their worst group.
      double worst = 0.0;
      for (const GroupValue& g : result.groups) {
        worst = std::max(worst, RelativeError(g.value));
      }
      stats.achieved_error = worst;
    }
    // Only a scan measures the scan rate. A focus run refined the focus
    // instead of scanning, and an index run's fixed cost (plan, sort,
    // per-slice reduce) spread over a narrow answer would inflate the rate
    // every budgeted scan is priced at.
    if (stats.planner_choice == PlannerChoice::kExact &&
        stats.path == AccessPath::kScan) {
      cost_model_.ObserveExact(stats.rows_scanned, run_nanos,
                               stats.compressed_morsels > 0);
    } else if (stats.planner_choice == PlannerChoice::kSample) {
      cost_model_.ObserveSample(stats.rows_scanned, run_nanos);
    } else if (stats.planner_choice == PlannerChoice::kOnline) {
      cost_model_.ObserveOnline(n, stats.rows_scanned, run_nanos);
    }
    PlannerChoiceCounter(stats.planner_choice)->Add();
    (std::chrono::nanoseconds(stats.total_nanos) <= budget.latency
         ? BudgetMetCounter()
         : BudgetMissedCounter())
        ->Add();

    // The final delivery repeats the returned answer bit-identically, with
    // the completed stats attached; for a plan that answers all at once it
    // is the only one.
    if (callback != nullptr) {
      ProgressiveUpdate update;
      if (result.scalar.has_value()) update.estimate = *result.scalar;
      update.stats = stats;
      update.sequence = streamed;
      update.final = true;
      (*callback)(update);
      DeliveriesCounter()->Add();
    }
    return result;
  }
}

}  // namespace exploredb
