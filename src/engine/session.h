#ifndef EXPLOREDB_ENGINE_SESSION_H_
#define EXPLOREDB_ENGINE_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/result.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "engine/query.h"
#include "explore/seedb.h"
#include "prefetch/markov.h"
#include "prefetch/query_cache.h"
#include "prefetch/speculator.h"

namespace exploredb {

/// Session configuration.
struct SessionOptions {
  size_t cache_capacity = 256;
  /// Speculative tasks drained after each user query ("think time" budget).
  size_t idle_budget = 2;
  /// Enable momentum-based speculation of shifted range windows.
  bool speculate = true;
  /// Tenant this session belongs to: the label on its observability series
  /// (`exploredb_session_*{tenant=...}`), journal records, and the fair-queue
  /// key in the SessionScheduler. Empty means unlabeled (plain series).
  std::string tenant;
  /// Shared cross-session result cache (the serving layer's). When set, this
  /// session reads and writes it instead of owning a private cache —
  /// cache_capacity is ignored — so one session's window result serves every
  /// tenant's identical query. Must outlive the session.
  QueryResultCache* shared_cache = nullptr;
};

/// Aggregated statistics of a session.
struct SessionStats {
  uint64_t queries = 0;
  uint64_t cache_hits = 0;
  uint64_t speculative_queries = 0;
};

/// An interactive exploration session: the integration point of the
/// tutorial's three layers. Every query flows through
///   result cache or focus (middleware) -> executor (engine; cracking / AQP)
/// and feeds the trajectory model that drives speculative prefetching of the
/// user's likely next window. Selections go through the result cache. Exact
/// aggregates go through the session's focus (Focus): the latest selection
/// a grouped aggregate materialized, which the next covered aggregate
/// refines instead of filtering the table. Recommendation entry points
/// (SeeDB views) consume the latest query's predicate. Execute and
/// ExecuteProgressive share one query path, and every query leaves exactly
/// one record: the workload journal's JournalRecord (obs/journal.h), tagged
/// with id() and tenant().
///
/// Thread safety: the session's mutable state (last query, trajectory model,
/// focus, counters) is guarded by mu_; Execute holds it for the query's
/// duration, so a session processes one query at a time — matching the
/// one-user-one-session model — while the Database and cache stay shareable
/// across sessions.
class Session {
 public:
  Session(Database* db, SessionOptions options = {});
  ~Session();

  /// Executes a query with caching + speculation around it.
  Result<QueryResult> Execute(const Query& query, const ExecContext& ctx = {})
      EXCLUDES(mu_);

  /// Resolves a name-based QueryBuilder against the catalog, then executes.
  Result<QueryResult> Execute(const QueryBuilder& builder,
                              const ExecContext& ctx = {}) EXCLUDES(mu_);

  /// Budgeted execution with progressive refinement: every query gets a
  /// latency contract. The planner picks the cheapest plan expected to meet
  /// `budget` (cache hit -> focus refine or pruned exact scan -> sample ->
  /// online agg); when nothing exact fits, refining partials stream through
  /// `callback` (monotonically shrinking CIs; the final delivery equals the
  /// returned result bit-identically) until the deadline. The callback runs
  /// on the session's thread under its lock — it must not re-enter the
  /// session. `base` supplies pool/morsel/trace settings; its mode is
  /// overridden.
  Result<QueryResult> ExecuteProgressive(const Query& query,
                                         const LatencyBudget& budget,
                                         const ProgressiveCallback& callback,
                                         const ExecContext& base = {})
      EXCLUDES(mu_);

  /// QueryBuilder convenience overload of ExecuteProgressive.
  Result<QueryResult> ExecuteProgressive(const QueryBuilder& builder,
                                         const LatencyBudget& budget,
                                         const ProgressiveCallback& callback,
                                         const ExecContext& base = {})
      EXCLUDES(mu_);

  /// Executes `query` with trace-span recording forced on and returns an
  /// annotated per-phase / per-morsel breakdown (plus the result's ExecStats
  /// summary). Runs on the executor directly — no cache, no trajectory
  /// update, no speculation — so the report reflects one clean execution; it
  /// is still counted and journaled like any other query. Works whether or
  /// not process-wide tracing (EXPLOREDB_TRACE) is enabled.
  Result<std::string> ExplainAnalyze(const Query& query,
                                     const ExecContext& ctx = {})
      EXCLUDES(mu_);

  /// SeeDB view recommendations where the target subset is the latest
  /// query's predicate.
  Result<SeeDbReport> RecommendViews(const std::vector<ViewSpec>& views,
                                     size_t k,
                                     SeeDbMode mode = SeeDbMode::kSharedScan)
      EXCLUDES(mu_);

  /// Most likely next query keys given the trajectory so far.
  std::vector<std::string> PredictNextQueries(size_t k) const EXCLUDES(mu_);

  /// Counter snapshot (the session keeps mutating them).
  SessionStats stats() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return stats_;
  }
  CacheStats cache_stats() const { return cache_->stats(); }
  Database* db() const { return db_; }

  /// Process-unique session number — the `sid` of this session's workload
  /// journal records.
  uint64_t id() const { return id_; }

  /// The tenant label this session carries (SessionOptions::tenant).
  const std::string& tenant() const { return options_.tenant; }

 private:
  /// The one query path behind Execute and ExecuteProgressive: counting,
  /// trajectory update, cache probe (selections) or focus hand-off (exact
  /// aggregates), execution (progressive when `progress` is set),
  /// speculation and logging. `ctx` carries the requested mode.
  Result<QueryResult> Run(const Query& query, const ExecContext& ctx,
                          const ProgressiveCallback* progress) EXCLUDES(mu_);

  /// Moves the session-focus gauge by the change in focus_'s bytes since
  /// the last call.
  void TrackFocusBytes() REQUIRES(mu_);

  /// Counts one query on stats_ and the plain and tenant session series.
  void CountQuery() REQUIRES(mu_);

  /// Serves a cached position list: re-projects rows and stamps cache
  /// provenance (and planner provenance when the query ran budgeted). Its
  /// total_nanos covers only this, like an executor run's.
  Result<QueryResult> ServeFromCache(const Query& query, const ExecContext& ctx,
                                     std::vector<uint32_t> positions)
      REQUIRES(mu_);

  /// Enqueues shifted copies of a single-column range query (pan left/right)
  /// into the speculator.
  void SpeculateAround(const Query& query, const ExecContext& ctx)
      REQUIRES(mu_);

  /// The single emission point for everything that observes finished
  /// queries: the SLO monitor and the workload journal. `arrival_ns` is the
  /// Tracer::NowNs() timestamp captured when the user's call entered the
  /// session (think-time accounting).
  void LogQuery(const Query& query, const ExecContext& ctx,
                const QueryResult& result, int64_t arrival_ns) REQUIRES(mu_);

  Database* const db_;
  const uint64_t id_;  ///< process-unique session number
  const SessionOptions options_;
  // NOLINT-exploredb(guarded-by): internally synchronized (owns its pool).
  Executor executor_;
  // NOLINT-exploredb(guarded-by): set in the constructor, never reassigned.
  std::unique_ptr<QueryResultCache> owned_cache_;
  /// The cache queries go through: options_.shared_cache when set (the
  /// serving layer's cross-session cache), else owned_cache_. Internally
  /// synchronized (sharded mutexes).
  QueryResultCache* const cache_;
  /// Per-tenant observability series, resolved once against the registry
  /// (LabeledMetricName) so the hot path is a relaxed shard add. Const
  /// pointers; the counters live for the process lifetime.
  Counter* const tenant_queries_;
  Counter* const tenant_cache_hits_;
  /// Per-tenant SLO series: queries whose user-visible latency (execution +
  /// queue wait) stayed within / breached the effective budget.
  Counter* const tenant_slo_ok_;
  Counter* const tenant_slo_breaches_;
  mutable Mutex mu_;
  Speculator speculator_ GUARDED_BY(mu_);
  MarkovPredictor trajectory_ GUARDED_BY(mu_);
  /// Query::CacheKey of the latest query; empty before the first.
  std::string last_key_ GUARDED_BY(mu_);
  std::string last_table_ GUARDED_BY(mu_);
  Predicate last_predicate_ GUARDED_BY(mu_);
  /// The latest exact selection a grouped aggregate materialized: lent to
  /// the executor for each exact aggregate, released before one it does not
  /// cover. At most one position list, 4 bytes per table row.
  Focus focus_ GUARDED_BY(mu_);
  /// focus_'s bytes as last added to the exploredb_session_focus_bytes gauge.
  int64_t focus_bytes_ GUARDED_BY(mu_) = 0;
  SessionStats stats_ GUARDED_BY(mu_);
  /// Tracer::NowNs() when the previous query finished: the gap to the next
  /// arrival is the journaled think time. -1 before the first query.
  int64_t last_finish_ns_ GUARDED_BY(mu_) = -1;
  uint64_t journal_seq_ GUARDED_BY(mu_) = 0;  ///< next session_seq to emit
};

}  // namespace exploredb

#endif  // EXPLOREDB_ENGINE_SESSION_H_
