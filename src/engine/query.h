#ifndef EXPLOREDB_ENGINE_QUERY_H_
#define EXPLOREDB_ENGINE_QUERY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "sampling/estimators.h"
#include "sampling/online_agg.h"
#include "storage/predicate.h"
#include "storage/table.h"

namespace exploredb {

/// How the engine should execute a query — the knob that trades freshness of
/// infrastructure (indexes, samples) against latency, mirroring the
/// tutorial's Database Layer options.
enum class ExecutionMode {
  kScan,       ///< full scan, no auxiliary structures
  kCracking,   ///< adaptive indexing: crack the touched column as we go
  kFullIndex,  ///< build/use a fully sorted index (pay upfront)
  kSampled,    ///< approximate answer from a uniform sample
  kOnline,     ///< online aggregation until the error budget is met
  kAuto,       ///< engine picks: cracking for index-serviceable predicates,
               ///< scan otherwise ("organic" self-organizing default)
  kBudgeted,   ///< planner picks the cheapest plan expected to meet the
               ///< query's LatencyBudget (cache -> focus refine or pruned
               ///< exact scan -> sample estimate -> online aggregation)
};

const char* ExecutionModeName(ExecutionMode mode);

/// A per-query latency contract: answer within `latency`, aiming for a
/// relative error no worse than `target_error`. The planner picks the
/// cheapest plan expected to satisfy both; when no exact plan fits, it
/// degrades to an approximate one (and, under ExecuteProgressive, streams
/// refining partials until the deadline). This is the per-interaction time
/// budget IDEBench makes the core requirement of exploration benchmarking.
struct LatencyBudget {
  /// Wall-clock budget, measured from the moment the planner sees the query.
  std::chrono::nanoseconds latency = std::chrono::milliseconds(100);
  /// Target relative error: CI half-width / |value| the answer should reach
  /// (0 means "exact or as good as the budget allows").
  double target_error = 0.01;
  double confidence = 0.95;
};

/// Which plan the budgeted planner chose — the lattice position, recorded in
/// ExecStats so triage can see why a query ran the way it did.
enum class PlannerChoice {
  kNone,    ///< query did not go through the planner
  kCache,   ///< served from the session result cache
  kExact,   ///< exact (zone-map pruned, possibly indexed) plan fit the budget
  kSample,  ///< uniform-sample estimate sized to the budget
  kOnline,  ///< online aggregation, progressively refined until the deadline
};

const char* PlannerChoiceName(PlannerChoice choice);

/// Per-query execution options.
struct QueryOptions {
  ExecutionMode mode = ExecutionMode::kScan;
  /// kBudgeted: the latency contract the planner must honor.
  LatencyBudget budget;
  /// kSampled: fraction of rows to sample.
  double sample_fraction = 0.01;
  /// kOnline: stop when the CI half-width drops below this (absolute).
  double error_budget = 0.0;
  double confidence = 0.95;
  /// Scans consult per-column zone maps and skip morsels the predicate
  /// cannot match. Off is only useful for pruning A/B tests and benches.
  bool use_zone_maps = true;
  /// Scans run on a column's compressed representation when it has one
  /// (packed frame-of-reference filters, RLE run skipping, dictionary-code
  /// equality for strings). Results are bit-identical either way; off forces
  /// the raw-column kernels, for A/B tests and benches.
  bool use_compression = true;
  /// Force trace-span recording for this query even when process-wide
  /// tracing (EXPLOREDB_TRACE=1 / Tracer::SetEnabled) is off. This is how
  /// Session::ExplainAnalyze captures one query's per-phase/per-morsel
  /// breakdown without tracing everything.
  bool trace = false;
};

/// Which access path actually answered the query — the first thing to look
/// at when a query was slower (or faster) than expected.
enum class AccessPath {
  kNone,     ///< not executed yet
  kScan,     ///< full column scan (serial or morsel-parallel)
  kCracker,  ///< adaptive cracker index
  kSorted,   ///< fully sorted index
  kSample,   ///< uniform-sample estimate
  kOnline,   ///< online aggregation
  kCache,    ///< served from the session result cache
  kFocus,    ///< refined from the session's focus (see Focus)
};

const char* AccessPathName(AccessPath path);

/// Structured per-query execution statistics, returned inside QueryResult.
/// Every phase the executor runs is timed with a Stopwatch; morsel dispatch
/// is counted so regressions in parallelism (e.g. a predicate silently
/// falling off the parallel path) show up in numbers, not vibes.
struct ExecStats {
  uint64_t rows_scanned = 0;       ///< row visits across all phases
  uint64_t morsels_dispatched = 0; ///< parallel work units issued
  uint64_t morsels_pruned = 0;     ///< morsels skipped via zone-map bounds
  /// Morsels whose predicate ran on compressed data (packed FOR words, RLE
  /// run headers, dictionary codes) instead of the raw column.
  uint64_t compressed_morsels = 0;
  uint32_t threads_used = 1;       ///< distinct threads that did work
  AccessPath path = AccessPath::kNone;
  /// What actually ran after mode resolution: kAuto and kBudgeted resolve to
  /// a concrete mode, everything else passes through. The journal record
  /// keeps this next to the requested mode so planner decisions can be
  /// audited.
  ExecutionMode resolved_mode = ExecutionMode::kScan;

  // -- Budgeted-planner provenance (kNone/zeros unless the query ran under
  // ExecutionMode::kBudgeted). `promised_error` is the relative CI half-width
  // the chosen plan was predicted to reach; `achieved_error` the relative CI
  // half-width it actually delivered (0 for exact answers, 1 for a zero
  // estimate with a positive width). Together with
  // `plans_considered` they answer "why was this plan picked, and did it keep
  // its promise" without a debugger.
  PlannerChoice planner_choice = PlannerChoice::kNone;
  uint32_t plans_considered = 0;  ///< candidate plans the planner costed
  double promised_error = 0.0;    ///< predicted relative error of the plan
  double achieved_error = 0.0;    ///< realized relative error of the answer
  /// Which kernel table served the query's scan/aggregate inner loops —
  /// the dispatched CPU path (scalar / sse42 / avx2), after any
  /// EXPLOREDB_SIMD override. Results are bit-identical across paths; this
  /// field exists so perf triage can tell which code actually ran.
  simd::SimdPath simd_path = simd::SimdPath::kScalar;

  // Per-phase wall times (nanoseconds; zero when the phase did not run).
  int64_t plan_nanos = 0;       ///< access-path choice (and the planner's)
  int64_t select_nanos = 0;     ///< predicate evaluation / index probe
  int64_t aggregate_nanos = 0;  ///< accumulator evaluation + merge
  int64_t project_nanos = 0;    ///< gathering output columns
  /// Time spent unpacking compressed blocks (gathering survivors out of FOR
  /// sub-blocks / RLE runs). A subset of select/aggregate time, not an extra
  /// phase; ExplainAnalyze surfaces it so "how much did decompression cost"
  /// has a number.
  int64_t decompress_nanos = 0;
  /// Wall time of an exact attempt the planner abandoned at its deadline
  /// before answering from a sample (0 when none was). A part of
  /// total_nanos, which for a budgeted query runs from the planner's start.
  int64_t abandoned_nanos = 0;
  int64_t total_nanos = 0;
  /// The cost the budgeted planner priced its chosen rung at, beside the
  /// actual total_nanos (0 outside the planner). An exact scan is priced at
  /// its calibrated rate times the rows it scans.
  int64_t predicted_nanos = 0;
  /// Time the query waited in the SessionScheduler's fair queue before
  /// execution started (0 when it ran without a scheduler). Not part of
  /// total_nanos: queueing is the serving layer's cost, execution the
  /// engine's; the SLO monitor observes their sum as user-visible latency.
  int64_t queue_nanos = 0;

  /// One human-readable summary line, e.g.
  /// "path=scan rows=1000000 morsels=16 threads=4 | plan=3us select=1.2ms
  ///  agg=0.4ms project=0us total=1.7ms".
  std::string Summary() const;
};

class Session;
class TableEntry;

/// A session's focus: the ascending positions of the latest exact selection
/// an aggregate materialized, with the table entry and WHERE conjuncts that
/// selected them. Exploration refines: a crossfilter gesture refreshes
/// linked views over one filter, and each view adds at most a few conjuncts
/// to it. Session::Run lends its focus to the executor for one aggregate
/// (ExecContext::focus()). An exact scan plan whose WHERE the focus covers
/// seeds each morsel with the focus's positions instead of filtering the
/// table, and a grouped scan plan leaves its selection here as the next
/// focus.
struct Focus {
  const TableEntry* entry = nullptr;  ///< nullptr while no focus is held
  std::vector<Condition> conjuncts;
  std::vector<uint32_t> positions;

  /// When the focus covers `where` over `table` — same entry, and every
  /// focus conjunct equals one of `where` (column, op and constant under
  /// Value::operator==, so NaN never matches and -0.0 matches 0.0) —
  /// returns the conjuncts of `where` the focus lacks; otherwise nullopt.
  std::optional<std::vector<Condition>> Residual(const TableEntry* table,
                                                 const Predicate& where) const;

  /// Drops the selection and frees its memory.
  void Release();
};

/// Everything the executor needs to know about *how* to run one query:
/// options, an optional deadline, a cooperative cancellation flag, and the
/// thread pool to spread morsels over. Copies are cheap and share the
/// cancellation flag, so a controller thread can hold a copy and cancel a
/// query running elsewhere.
///
///   ExecContext ctx;
///   ctx.options().mode = ExecutionMode::kCracking;
///   ctx.SetTimeout(std::chrono::milliseconds(50));
///   auto result = executor.Execute(query, ctx);
class ExecContext {
 public:
  ExecContext() : cancel_(std::make_shared<std::atomic<bool>>(false)) {}
  explicit ExecContext(QueryOptions options) : ExecContext() {
    options_ = options;
  }

  QueryOptions& options() { return options_; }
  const QueryOptions& options() const { return options_; }
  ExecContext& SetMode(ExecutionMode mode) {
    options_.mode = mode;
    return *this;
  }

  // -- Deadline ------------------------------------------------------------
  ExecContext& SetDeadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    return *this;
  }
  ExecContext& SetTimeout(std::chrono::nanoseconds budget) {
    deadline_ = std::chrono::steady_clock::now() + budget;
    return *this;
  }
  ExecContext& ClearDeadline() {
    deadline_.reset();
    return *this;
  }
  /// The budgeted-execution entry point: one call sets the latency contract
  /// (deadline + target error) and routes the query through the planner.
  /// Supersedes ad-hoc SetTimeout for this path — the planner anchors the
  /// deadline at plan time, so a context with a budget can be reused across
  /// queries and each one gets the full budget. An explicit earlier deadline
  /// (SetDeadline/SetTimeout) still wins if it expires first.
  ExecContext& SetBudget(LatencyBudget budget) {
    options_.mode = ExecutionMode::kBudgeted;
    options_.budget = budget;
    return *this;
  }
  bool has_deadline() const { return deadline_.has_value(); }
  std::optional<std::chrono::steady_clock::time_point> deadline() const {
    return deadline_;
  }
  bool DeadlineExceeded() const {
    return deadline_.has_value() &&
           std::chrono::steady_clock::now() >= *deadline_;
  }

  // -- Cancellation (shared across copies) ---------------------------------
  void RequestCancel() const { cancel_->store(true, std::memory_order_relaxed); }
  bool cancelled() const { return cancel_->load(std::memory_order_relaxed); }

  /// True when execution should stop between morsels/batches.
  bool Interrupted() const { return cancelled() || DeadlineExceeded(); }

  // -- Parallelism ---------------------------------------------------------
  /// Pool for morsel-parallel kernels; nullptr forces serial execution.
  /// Defaults to the process-wide pool.
  ExecContext& SetThreadPool(ThreadPool* pool) {
    pool_ = pool;
    return *this;
  }
  ThreadPool* thread_pool() const { return pool_; }

  ExecContext& SetMorselSize(size_t rows) {
    morsel_size_ = rows;
    return *this;
  }
  size_t morsel_size() const { return morsel_size_; }

  // -- Scheduling ----------------------------------------------------------
  /// Stamped by the SessionScheduler with the time this query spent in its
  /// fair queue; the Session copies it into the result's ExecStats and the
  /// SLO monitor adds it to the observed latency.
  ExecContext& SetQueueNanos(int64_t nanos) {
    queue_nanos_ = nanos;
    return *this;
  }
  int64_t queue_nanos() const { return queue_nanos_; }

  // -- Session focus -------------------------------------------------------
  /// The issuing session's focus, or nullptr. Only Session::Run sets it, on
  /// the context of one exact aggregate.
  Focus* focus() const { return focus_; }

  // -- Tracing -------------------------------------------------------------
  ExecContext& SetTrace(bool on) {
    options_.trace = on;
    return *this;
  }
  /// Should this query's executor spans be recorded? True when the query
  /// opted in (options().trace) or process-wide tracing is on.
  bool tracing() const { return options_.trace || Tracer::enabled(); }

  /// Default morsel: ~64K rows — small enough to balance, large enough to
  /// amortize dispatch (a few hundred KB of column data per unit).
  static constexpr size_t kDefaultMorselSize = 64 * 1024;

 private:
  QueryOptions options_;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  std::shared_ptr<std::atomic<bool>> cancel_;
  ThreadPool* pool_ = ThreadPool::Global();
  size_t morsel_size_ = kDefaultMorselSize;
  int64_t queue_nanos_ = 0;
  friend class Session;
  Focus* focus_ = nullptr;
};

/// An aggregate expression `agg(column)`.
struct AggregateExpr {
  AggKind kind = AggKind::kCount;
  std::string column;  ///< ignored for COUNT(*) — leave empty
};

class QueryBuilder;

/// A declarative exploration query over one table: selection + either a
/// projection or an (optionally grouped) aggregate. Built fluently:
///
///   Query q = Query::On("stars")
///                 .Where(Predicate::Range(0, 10.0, 20.0))
///                 .Aggregate(AggKind::kAvg, "brightness")
///                 .GroupBy("region");
///
/// Conditions reference columns by index; prefer Query::From (a name-based
/// QueryBuilder) when hand-writing queries.
class Query {
 public:
  static Query On(std::string table) {
    Query q;
    q.table_ = std::move(table);
    return q;
  }

  /// Name-based fluent builder (resolved against the schema at Build or
  /// Execute time):
  ///
  ///   Query::From("requests").WhereBetween("user_id", 10'000, 20'000)
  ///                          .Aggregate(AggKind::kAvg, "latency_ms")
  static QueryBuilder From(std::string table);

  Query& Where(Predicate pred) {
    where_ = std::move(pred);
    return *this;
  }
  Query& Select(std::vector<std::string> columns) {
    select_ = std::move(columns);
    return *this;
  }
  Query& Aggregate(AggKind kind, std::string column = "") {
    aggregate_ = AggregateExpr{kind, std::move(column)};
    return *this;
  }
  Query& GroupBy(std::string column) {
    group_by_ = std::move(column);
    return *this;
  }

  const std::string& table() const { return table_; }
  const Predicate& where() const { return where_; }
  const std::vector<std::string>& select() const { return select_; }
  const std::optional<AggregateExpr>& aggregate() const { return aggregate_; }
  const std::optional<std::string>& group_by() const { return group_by_; }

  /// Stable key for result caching and trajectory modeling.
  std::string CacheKey() const;

 private:
  std::string table_;
  Predicate where_;
  std::vector<std::string> select_;
  std::optional<AggregateExpr> aggregate_;
  std::optional<std::string> group_by_;
};

/// Fluent, name-based query construction: conditions are written against
/// column *names* and resolved (with numeric coercion and type checking)
/// against the table schema by Build(). Executor/Session accept a builder
/// directly and resolve it against the catalog.
class QueryBuilder {
 public:
  explicit QueryBuilder(std::string table) : table_(std::move(table)) {}

  QueryBuilder& Where(std::string column, CompareOp op, Value constant) {
    conditions_.push_back({std::move(column), op, std::move(constant)});
    return *this;
  }
  /// The exploration window idiom: lo <= column < hi.
  QueryBuilder& WhereBetween(std::string column, Value lo, Value hi) {
    conditions_.push_back({column, CompareOp::kGe, std::move(lo)});
    conditions_.push_back({std::move(column), CompareOp::kLt, std::move(hi)});
    return *this;
  }
  QueryBuilder& Select(std::vector<std::string> columns) {
    select_ = std::move(columns);
    return *this;
  }
  QueryBuilder& Aggregate(AggKind kind, std::string column = "") {
    aggregate_ = AggregateExpr{kind, std::move(column)};
    return *this;
  }
  QueryBuilder& GroupBy(std::string column) {
    group_by_ = std::move(column);
    return *this;
  }

  const std::string& table() const { return table_; }

  /// Resolves column names to indexes and coerces numeric constants to the
  /// column type. Fails on unknown columns and on constants whose type the
  /// column cannot compare against (e.g. a string against an int64 column).
  Result<Query> Build(const Schema& schema) const;

 private:
  struct NamedCondition {
    std::string column;
    CompareOp op;
    Value constant;
  };

  std::string table_;
  std::vector<NamedCondition> conditions_;
  std::vector<std::string> select_;
  std::optional<AggregateExpr> aggregate_;
  std::optional<std::string> group_by_;
};

inline QueryBuilder Query::From(std::string table) {
  return QueryBuilder(std::move(table));
}

/// One group of a grouped-aggregate result.
struct GroupValue {
  std::string key;
  Estimate value;
};

/// Result of a query: positions + projected rows for selections, an Estimate
/// for aggregates (exact answers have zero CI width), groups for group-bys.
struct QueryResult {
  std::vector<uint32_t> positions;       ///< matching rows (selections)
  std::optional<Table> rows;             ///< projected rows (selections)
  std::optional<Estimate> scalar;        ///< aggregate result
  std::vector<GroupValue> groups;        ///< grouped aggregate result

  // Provenance / cost accounting.
  ExecStats exec_stats;                  ///< structured per-query statistics
  bool from_cache = false;
  bool approximate = false;

  const ExecStats& stats() const { return exec_stats; }
};

/// One progressively refined partial answer streamed by the budgeted planner:
/// the running estimate (CI shrinking delivery to delivery — the planner only
/// delivers when the CI improved, so consecutive updates are monotone) plus a
/// snapshot of the execution statistics at delivery time. The delivery
/// flagged `final` repeats the returned answer bit-identically, so a consumer
/// that only renders updates never disagrees with the returned result.
struct ProgressiveUpdate {
  Estimate estimate;
  ExecStats stats;      ///< statistics snapshot at delivery time
  uint64_t sequence = 0;  ///< 0-based delivery index
  bool final = false;     ///< last delivery; equals the returned result
};

/// Invoked on the executing thread for each refinement delivery; must not
/// re-enter the session that issued the query.
using ProgressiveCallback = std::function<void(const ProgressiveUpdate&)>;

}  // namespace exploredb

#endif  // EXPLOREDB_ENGINE_QUERY_H_
