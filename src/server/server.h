#ifndef EXPLOREDB_SERVER_SERVER_H_
#define EXPLOREDB_SERVER_SERVER_H_

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/result.h"
#include "engine/database.h"
#include "engine/query.h"
#include "engine/session.h"
#include "prefetch/query_cache.h"
#include "server/scheduler.h"

namespace exploredb {

class ExplorationServer;

/// A tenant's handle into the serving layer: a Session (private trajectory
/// model, speculation, journal records under its id()) wired to the server's
/// *shared* result cache and admitted through the server's fair-queue
/// scheduler. Submit enqueues;
/// Execute blocks. Concurrent submissions against one ServerSession are safe
/// — the underlying Session serializes them — but sessions model one user, so
/// the natural shape is many sessions, each fed by its own client.
class ServerSession {
 public:
  ServerSession(const ServerSession&) = delete;
  ServerSession& operator=(const ServerSession&) = delete;

  /// Enqueues the query under this session's tenant queue. The returned
  /// future delivers the result once a concurrency slot frees up and the
  /// query runs; its ExecStats carry the fair-queue wait in queue_nanos.
  std::future<Result<QueryResult>> Submit(Query query, ExecContext ctx = {});
  std::future<Result<QueryResult>> Submit(const QueryBuilder& builder,
                                          ExecContext ctx = {});

  /// Submit + wait: the blocking convenience used by replay and tests.
  Result<QueryResult> Execute(const Query& query, const ExecContext& ctx = {});
  Result<QueryResult> Execute(const QueryBuilder& builder,
                              const ExecContext& ctx = {});

  /// The wrapped Session, for its stats and id() (the `sid` of its journal
  /// records). Direct Session::Execute calls bypass admission control — fine
  /// for inspection, wrong for serving.
  Session& session() { return session_; }
  const std::string& tenant() const { return session_.tenant(); }

 private:
  friend class ExplorationServer;
  ServerSession(ExplorationServer* server, Database* db,
                SessionOptions options);

  ExplorationServer* const server_;
  Session session_;
};

/// ExplorationServer configuration.
struct ServerOptions {
  /// Capacity of the shared cross-session result cache. The cache is sharded
  /// (QueryResultCache) so concurrent sessions hit different locks.
  size_t shared_cache_capacity = 4096;
  /// Queries executing at once across all sessions (0: size to the pool).
  size_t max_concurrent = 0;
  /// Pool queries run on (defaults to the process-wide pool).
  ThreadPool* pool = nullptr;
};

/// The multi-tenant serving layer: one process-wide Database multiplexed
/// across concurrent exploration sessions (DESIGN.md §2i). Three pieces:
///
///  - concurrent adaptive reads: Database table entries publish adaptive
///    structures build-once (EpochCrackerColumn epochs for crackers), so
///    readers proceed without blocking behind one session's cracking;
///  - shared synopses: one QueryResultCache serves every session, so tenant
///    B's repeat of tenant A's window is a cache hit, not a re-scan;
///  - admission + fairness: a SessionScheduler caps concurrent queries and
///    interleaves tenants by start-time fair queuing, surfacing queue wait
///    in ExecStats::queue_nanos and the SLO monitor.
class ExplorationServer {
 public:
  /// `db` must outlive the server. Sessions opened on this server share its
  /// cache and scheduler and are owned by it (closed when it dies).
  explicit ExplorationServer(Database* db, ServerOptions options = {});
  /// Drains in-flight queries before tearing down sessions.
  ~ExplorationServer();

  ExplorationServer(const ExplorationServer&) = delete;
  ExplorationServer& operator=(const ExplorationServer&) = delete;

  /// Opens a session for `tenant`. `options.tenant` and
  /// `options.shared_cache` are overwritten with the server's wiring; the
  /// rest (speculation, idle budget) pass through. The returned
  /// pointer stays valid for the server's lifetime.
  ServerSession* OpenSession(const std::string& tenant,
                             SessionOptions options = {}) EXCLUDES(mu_);

  /// Fair-queue weight of `tenant` (default 1; higher = larger share).
  void SetTenantWeight(const std::string& tenant, uint64_t weight) {
    scheduler_.SetTenantWeight(tenant, weight);
  }

  /// Blocks until every submitted query has completed.
  void Drain() { scheduler_.Drain(); }

  Database* db() const { return db_; }
  QueryResultCache& shared_cache() { return cache_; }
  SessionScheduler& scheduler() { return scheduler_; }
  size_t session_count() const EXCLUDES(mu_);

 private:
  friend class ServerSession;

  Database* const db_;
  // NOLINT-exploredb(guarded-by): internally synchronized (sharded mutexes).
  QueryResultCache cache_;
  // NOLINT-exploredb(guarded-by): internally synchronized.
  SessionScheduler scheduler_;
  mutable Mutex mu_;
  std::vector<std::unique_ptr<ServerSession>> sessions_ GUARDED_BY(mu_);
};

}  // namespace exploredb

#endif  // EXPLOREDB_SERVER_SERVER_H_
