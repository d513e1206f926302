#include "engine/session.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <utility>

#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"
#include "engine/planner.h"
#include "obs/journal.h"
#include "obs/slo.h"

namespace exploredb {

namespace {

uint64_t NextSessionId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// Session-level counters, aggregated across every Session in the process:
// queries issued, middleware cache hits, and speculative executions drained
// during think time. Per-session counts stay available via stats().
Counter* QueriesCounter() {
  static Counter* c = Metrics().GetCounter(
      "exploredb_session_queries_total", "Queries issued through sessions");
  return c;
}

Counter* CacheHitsCounter() {
  static Counter* c = Metrics().GetCounter(
      "exploredb_session_cache_hits_total",
      "Session queries answered from the result cache");
  return c;
}

Counter* SpeculativeCounter() {
  static Counter* c = Metrics().GetCounter(
      "exploredb_session_speculative_total",
      "Speculative prefetch queries executed during idle time");
  return c;
}

Gauge* FocusBytesGauge() {
  static Gauge* g = Metrics().GetGauge(
      "exploredb_session_focus_bytes",
      "Bytes of every session's focus position list");
  return g;
}

// Per-tenant session series: the unlabeled aggregate counters above stay the
// headline; a tenant-labeled twin is resolved per session so multi-tenant
// traffic can be broken down. nullptr for unlabeled sessions (no tenant) —
// the hot path checks once.
Counter* TenantCounter(const std::string& base, const std::string& tenant,
                       const std::string& help) {
  if (tenant.empty()) return nullptr;
  return Metrics().GetCounter(LabeledMetricName(base, "tenant", tenant),
                              help);
}

}  // namespace

Session::Session(Database* db, SessionOptions options)
    : db_(db),
      id_(NextSessionId()),
      options_(std::move(options)),
      executor_(db),
      owned_cache_(options_.shared_cache == nullptr
                       ? std::make_unique<QueryResultCache>(
                             options_.cache_capacity)
                       : nullptr),
      cache_(options_.shared_cache != nullptr ? options_.shared_cache
                                              : owned_cache_.get()),
      tenant_queries_(TenantCounter(
          "exploredb_session_queries_total", options_.tenant,
          "Queries issued through sessions")),
      tenant_cache_hits_(TenantCounter(
          "exploredb_session_cache_hits_total", options_.tenant,
          "Session queries answered from the result cache")),
      tenant_slo_ok_(TenantCounter(
          "exploredb_slo_tenant_within_budget_total", options_.tenant,
          "Queries within their effective latency budget, by tenant")),
      tenant_slo_breaches_(TenantCounter(
          "exploredb_slo_tenant_breaches_total", options_.tenant,
          "Queries over their effective latency budget, by tenant")) {}

Session::~Session() {
  MutexLock lock(mu_);
  FocusBytesGauge()->Sub(focus_bytes_);
}

Result<QueryResult> Session::Execute(const Query& query,
                                     const ExecContext& ctx) {
  return Run(query, ctx, nullptr);
}

Result<QueryResult> Session::Execute(const QueryBuilder& builder,
                                     const ExecContext& ctx) {
  EXPLOREDB_ASSIGN_OR_RETURN(TableEntry * entry,
                             db_->GetTable(builder.table()));
  EXPLOREDB_ASSIGN_OR_RETURN(Query query, builder.Build(entry->schema()));
  return Execute(query, ctx);
}

Result<QueryResult> Session::ExecuteProgressive(
    const Query& query, const LatencyBudget& budget,
    const ProgressiveCallback& callback, const ExecContext& base) {
  ExecContext ctx = base;
  ctx.SetBudget(budget);
  return Run(query, ctx, &callback);
}

Result<QueryResult> Session::ExecuteProgressive(
    const QueryBuilder& builder, const LatencyBudget& budget,
    const ProgressiveCallback& callback, const ExecContext& base) {
  EXPLOREDB_ASSIGN_OR_RETURN(TableEntry * entry,
                             db_->GetTable(builder.table()));
  EXPLOREDB_ASSIGN_OR_RETURN(Query query, builder.Build(entry->schema()));
  return ExecuteProgressive(query, budget, callback, base);
}

Result<QueryResult> Session::Run(const Query& query, const ExecContext& ctx,
                                 const ProgressiveCallback* progress) {
  const int64_t arrival_ns = Tracer::NowNs();
  MutexLock lock(mu_);
  CountQuery();
  const std::string key = query.CacheKey();

  // Trajectory model learns every issued query (cached or not).
  if (!last_key_.empty()) trajectory_.Observe(last_key_, key);
  last_key_ = key;

  // Only position results of exact selections are cacheable (kBudgeted may
  // degrade aggregates to approximate answers, but selections stay exact).
  const ExecutionMode mode = ctx.options().mode;
  const bool cacheable =
      !query.aggregate().has_value() && !query.group_by().has_value() &&
      mode != ExecutionMode::kSampled && mode != ExecutionMode::kOnline;
  std::optional<std::vector<uint32_t>> cached;
  if (cacheable) cached = cache_->Get(key);

  // Exact aggregates (explicit exact modes, kAuto and the planner's exact
  // rung) may refine the focus, and a grouped scan replaces it. A focus
  // that does not cover the query is released first, so the session never
  // holds two selections.
  ExecContext run_ctx = ctx;
  const bool analytic =
      query.aggregate().has_value() || query.group_by().has_value();
  if (analytic && mode != ExecutionMode::kSampled &&
      mode != ExecutionMode::kOnline) {
    Result<TableEntry*> entry = db_->GetTable(query.table());
    if (!entry.ok() ||
        !focus_.Residual(entry.ValueOrDie(), query.where()).has_value()) {
      focus_.Release();
    }
    run_ctx.focus_ = &focus_;
  }

  Result<QueryResult> served =
      cached.has_value()
          ? ServeFromCache(query, ctx, std::move(*cached))
          : (progress != nullptr
                 ? executor_.ExecuteProgressive(query, run_ctx, *progress)
                 : executor_.Execute(query, run_ctx));
  TrackFocusBytes();
  EXPLOREDB_ASSIGN_OR_RETURN(QueryResult result, std::move(served));
  result.exec_stats.queue_nanos = ctx.queue_nanos();
  if (result.from_cache) {
    if (progress != nullptr && *progress) {
      // A cache hit is exact and final: one single-shot delivery, like the
      // executor's exact plans.
      ProgressiveUpdate update;
      update.stats = result.exec_stats;
      update.final = true;
      (*progress)(update);
    }
  } else if (cacheable) {
    cache_->Put(key, result.positions);
  }
  last_table_ = query.table();
  last_predicate_ = query.where();

  if (options_.speculate) {
    SpeculateAround(query, ctx);
    size_t ran = speculator_.RunIdle(options_.idle_budget);
    stats_.speculative_queries += ran;
    SpeculativeCounter()->Add(ran);
  }
  LogQuery(query, ctx, result, arrival_ns);
  return result;
}

void Session::TrackFocusBytes() {
  const auto bytes =
      static_cast<int64_t>(focus_.positions.size() * sizeof(uint32_t));
  if (bytes == focus_bytes_) return;
  FocusBytesGauge()->Add(bytes - focus_bytes_);
  focus_bytes_ = bytes;
}

void Session::CountQuery() {
  ++stats_.queries;
  QueriesCounter()->Add();
  if (tenant_queries_ != nullptr) tenant_queries_->Add();
}

Result<QueryResult> Session::ServeFromCache(const Query& query,
                                            const ExecContext& ctx,
                                            std::vector<uint32_t> positions) {
  ++stats_.cache_hits;
  CacheHitsCounter()->Add();
  if (tenant_cache_hits_ != nullptr) tenant_cache_hits_->Add();
  const bool tracing = ctx.tracing();
  QueryResult result;
  result.positions = std::move(positions);
  result.from_cache = true;
  result.exec_stats.path = AccessPath::kCache;
  result.exec_stats.resolved_mode = ctx.options().mode;
  if (ctx.options().mode == ExecutionMode::kBudgeted) {
    // The cache is the cheapest rung of the plan lattice: a fresh hit always
    // wins, always meets the budget, and answers exactly.
    result.exec_stats.planner_choice = PlannerChoice::kCache;
    result.exec_stats.plans_considered = 1;
    Planner::CountCacheHit();
  }
  // The cache hit is still a (cheap) execution: the span doubles as the
  // total-time stopwatch and shows up in traces next to real queries. It
  // stops here, so — as for an executor run — the speculation the hit
  // triggers afterwards is not part of total_nanos.
  TraceSpan hit_span("cache_hit", tracing, &result.exec_stats.total_nanos);
  {
    // Re-project rows from the cached positions.
    TraceSpan project_span("project", tracing,
                           &result.exec_stats.project_nanos);
    EXPLOREDB_ASSIGN_OR_RETURN(TableEntry * entry,
                               db_->GetTable(query.table()));
    EXPLOREDB_ASSIGN_OR_RETURN(
        result.rows,
        Executor::Project(entry, query.select(), result.positions, ctx));
  }
  hit_span.Stop();
  return result;
}

void Session::LogQuery(const Query& query, const ExecContext& ctx,
                       const QueryResult& result, int64_t arrival_ns) {
  const ExecutionMode requested = ctx.options().mode;
  const bool analytic =
      query.aggregate().has_value() || query.group_by().has_value();
  const int64_t budget_ns = requested == ExecutionMode::kBudgeted
                                ? ctx.options().budget.latency.count()
                                : 0;
  // The SLO monitor sees every query (alloc-free, independent of journal
  // state). Queue wait is part of the user-visible latency: a query that
  // executed fast but sat in the scheduler's fair queue still missed its
  // interaction budget.
  const QueryClass slo_class = SloMonitor::Classify(requested, analytic);
  const int64_t user_latency_ns =
      result.exec_stats.total_nanos + result.exec_stats.queue_nanos;
  SloMonitor::Global().Observe(slo_class, user_latency_ns, budget_ns,
                               result.approximate,
                               result.exec_stats.achieved_error);
  if (tenant_slo_ok_ != nullptr) {
    // Tenant-labeled twin of the class series: same effective-budget rule
    // the monitor applies (explicit per-query budget, else class default).
    const int64_t effective_ns =
        budget_ns > 0 ? budget_ns : SloMonitor::Global().ClassBudget(slo_class);
    if (effective_ns > 0 && user_latency_ns > effective_ns) {
      tenant_slo_breaches_->Add();
    } else {
      tenant_slo_ok_->Add();
    }
  }

  // arrival_ns is captured before mu_ is acquired, so under concurrent use
  // of one Session it can predate the previous query's finish; clamp to 0 so
  // -1 stays an unambiguous "first query" sentinel.
  const int64_t think_ns =
      last_finish_ns_ < 0 ? -1
                          : std::max<int64_t>(0, arrival_ns - last_finish_ns_);
  if (WorkloadJournal::enabled()) {
    const std::string text = query.CacheKey();
    JournalQueryInfo info;
    info.session_id = id_;
    info.session_seq = journal_seq_;
    info.think_ns = think_ns;
    info.query = &query;
    info.query_text = &text;
    info.requested_mode = requested;
    info.budget_ns = budget_ns;
    info.target_error = ctx.options().budget.target_error;
    info.sample_fraction = ctx.options().sample_fraction;
    info.error_budget = ctx.options().error_budget;
    info.confidence = ctx.options().confidence;
    info.result = &result;
    info.tenant = &options_.tenant;
    JournalQueryExecution(info);
  }
  ++journal_seq_;
  last_finish_ns_ = Tracer::NowNs();
}

Result<std::string> Session::ExplainAnalyze(const Query& query,
                                            const ExecContext& ctx) {
  const int64_t arrival_ns = Tracer::NowNs();
  MutexLock lock(mu_);
  ExecContext traced = ctx;
  traced.SetTrace(true);

  // Scope the snapshot to this execution: everything recorded at or after t0
  // belongs to the traced query (the session lock serializes our own
  // queries; other sessions' spans land on other rings but could interleave,
  // which is why the report groups by the executing thread).
  const int64_t t0 = Tracer::NowNs();
  EXPLOREDB_ASSIGN_OR_RETURN(QueryResult result,
                             executor_.Execute(query, traced));
  std::vector<TraceEvent> events = Tracer::SnapshotSince(t0);

  CountQuery();
  LogQuery(query, traced, result, arrival_ns);

  std::string out;
  out += "ExplainAnalyze: " + query.CacheKey() + "\n";
  out += "  " + result.exec_stats.Summary() + "\n";
  if (result.exec_stats.compressed_morsels > 0) {
    // The compression story in one line: how much of the scan ran on
    // compressed data and what unpacking the survivors cost (the decompress
    // worker spans below break the same time down per morsel).
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "  compression: compressed=%llu/%llu morsels decompress=",
                  static_cast<unsigned long long>(
                      result.exec_stats.compressed_morsels),
                  static_cast<unsigned long long>(
                      result.exec_stats.morsels_dispatched));
    out += buf;
    out += FormatDurationNanos(result.exec_stats.decompress_nanos) + "\n";
  }

  if (events.empty()) {
    out += "  (no trace spans recorded)\n";
    return out;
  }

  // The coordinating thread is the one that recorded the "query" span; its
  // spans form the phase tree. Worker-thread spans (per-morsel work) are
  // summarized as count/avg/max per name.
  uint32_t query_tid = events.front().tid;
  for (const TraceEvent& e : events) {
    if (std::strncmp(e.name, "query", sizeof(e.name)) == 0) {
      query_tid = e.tid;
      break;
    }
  }

  struct NameAgg {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t max_ns = 0;
  };
  // Phase lines keyed by (depth, name) in first-seen order, so repeated
  // same-level spans (online_round per refinement round) collapse into one
  // "xN" line instead of flooding the report.
  std::vector<std::pair<std::pair<uint16_t, std::string>, NameAgg>> phases;
  std::map<std::string, NameAgg> workers;
  for (const TraceEvent& e : events) {
    if (e.tid == query_tid) {
      std::pair<uint16_t, std::string> key{e.depth, e.name};
      NameAgg* agg = nullptr;
      for (auto& p : phases) {
        if (p.first == key) {
          agg = &p.second;
          break;
        }
      }
      if (agg == nullptr) {
        phases.emplace_back(key, NameAgg{});
        agg = &phases.back().second;
      }
      ++agg->count;
      agg->total_ns += e.dur_ns;
      agg->max_ns = std::max(agg->max_ns, e.dur_ns);
    } else {
      NameAgg& agg = workers[e.name];
      ++agg.count;
      agg.total_ns += e.dur_ns;
      agg.max_ns = std::max(agg.max_ns, e.dur_ns);
    }
  }

  out += "  phases:\n";
  for (const auto& [key, agg] : phases) {
    out += "    ";
    out.append(static_cast<size_t>(key.first) * 2, ' ');
    out += key.second;
    if (agg.count > 1) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), " x%llu",
                    static_cast<unsigned long long>(agg.count));
      out += buf;
    }
    out += " " + FormatDurationNanos(agg.total_ns);
    if (agg.count > 1) {
      out += " (avg=" +
             FormatDurationNanos(agg.total_ns /
                                 static_cast<int64_t>(agg.count)) +
             " max=" + FormatDurationNanos(agg.max_ns) + ")";
    }
    out += "\n";
  }
  if (!workers.empty()) {
    out += "  worker spans:\n";
    for (const auto& [name, agg] : workers) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), " x%llu",
                    static_cast<unsigned long long>(agg.count));
      out += "    " + name + buf + " total=" +
             FormatDurationNanos(agg.total_ns) + " avg=" +
             FormatDurationNanos(agg.total_ns /
                                 static_cast<int64_t>(agg.count)) +
             " max=" + FormatDurationNanos(agg.max_ns) + "\n";
    }
  }
  return out;
}

void Session::SpeculateAround(const Query& query, const ExecContext& ctx) {
  // Momentum speculation on single-column int64 windows: the exploratory
  // idiom "slide the window" makes the adjacent windows the best candidates.
  const auto& conjuncts = query.where().conjuncts();
  if (conjuncts.size() != 2) return;
  const Condition& a = conjuncts[0];
  const Condition& b = conjuncts[1];
  if (a.column != b.column) return;
  if (!(a.op == CompareOp::kGe && b.op == CompareOp::kLt)) return;
  if (!a.constant.is_int64() || !b.constant.is_int64()) return;
  int64_t lo = a.constant.int64();
  int64_t hi = b.constant.int64();
  int64_t width = hi - lo;
  if (width <= 0) return;

  for (int dir : {+1, -1}) {
    Query shifted = Query::On(query.table())
                        .Where(Predicate(
                            {{a.column, CompareOp::kGe,
                              Value(lo + dir * width)},
                             {a.column, CompareOp::kLt,
                              Value(hi + dir * width)}}))
                        .Select(query.select());
    std::string key = shifted.CacheKey();
    if (cache_->Contains(key)) continue;
    // Prefer the direction the trajectory model has seen before.
    double utility = 0.5 + static_cast<double>(dir) * 0.01;
    if (!last_key_.empty()) {
      utility = trajectory_.TransitionProbability(last_key_, key);
    }
    ExecContext spec_ctx = ctx;
    // Only the positions are cached, so the run projects no rows.
    speculator_.Enqueue(key, utility, [this, shifted, spec_ctx, key]() {
      auto result = executor_.ExecuteSelection(shifted, spec_ctx);
      if (result.ok()) {
        cache_->Put(key, std::move(result).ValueOrDie().positions);
      }
    });
  }
}

Result<SeeDbReport> Session::RecommendViews(const std::vector<ViewSpec>& views,
                                            size_t k, SeeDbMode mode) {
  MutexLock lock(mu_);
  if (last_table_.empty()) {
    return Status::FailedPrecondition("no query executed yet");
  }
  EXPLOREDB_ASSIGN_OR_RETURN(TableEntry * entry, db_->GetTable(last_table_));
  EXPLOREDB_ASSIGN_OR_RETURN(const Table* table, entry->Materialized());
  SeeDbRecommender recommender(table, last_predicate_);
  return recommender.Recommend(views, k, mode);
}

std::vector<std::string> Session::PredictNextQueries(size_t k) const {
  MutexLock lock(mu_);
  if (last_key_.empty()) return {};
  return trajectory_.PredictNext(last_key_, k);
}

}  // namespace exploredb
