// E26 — multi-tenant serving layer: concurrent-session scaling and latency
// isolation [DESIGN.md §2i]. Two scenarios over one shared events table:
//
//  1. Throughput sweep: 1/2/4/8/16 concurrent sessions, each driving a mixed
//     point-lookup + window-count + budgeted-aggregate workload through one
//     ExplorationServer (scheduler cap = session count). Reports qps and
//     speedup vs a single session. Scaling comes from epoch-published
//     crackers (converged reads share the lock), the sharded cross-session
//     result cache, and fair-queued admission.
//
//  2. Latency isolation: p95 point-lookup latency alone on an idle server
//     vs during a concurrent long online aggregation plus active cracking
//     by other tenants. The acceptance bar is contended p95 within 2x idle
//     p95 (latencies include fair-queue wait — what a user would see).
//
// Numbers depend on available cores; the shape (monotone scaling, bounded
// p95 inflation) is the experiment.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "engine/database.h"
#include "server/server.h"

namespace exploredb {
namespace {

Schema EventsSchema() {
  return Schema({{"ts", DataType::kInt64},
                 {"user_id", DataType::kInt64},
                 {"latency_ms", DataType::kDouble}});
}

Table EventsTable(size_t rows, uint64_t seed) {
  Table t(EventsSchema());
  Random rng(seed);
  t.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    t.mutable_column(0)->AppendInt64(static_cast<int64_t>(i));
    t.mutable_column(1)->AppendInt64(rng.UniformInt(0, 99'999));
    t.mutable_column(2)->AppendDouble(5.0 + rng.NextDouble() * 95.0);
  }
  return t;
}

/// One session's slice of the mixed workload: point lookups on the clustered
/// column, window counts on the scattered column (half shared across
/// sessions — shared-cache traffic — half session-private), and a budgeted
/// aggregate every 8th step.
void DriveSession(ServerSession* session, const Schema& schema, size_t rows,
                  size_t session_index, int steps) {
  Random rng(7'000 + session_index);
  ExecContext cracking;
  cracking.options().mode = ExecutionMode::kCracking;
  for (int i = 0; i < steps; ++i) {
    if (i % 8 == 7) {
      ExecContext budgeted;
      budgeted.SetBudget({std::chrono::milliseconds(10), 0.05, 0.95});
      auto q = Query::From("events")
                   .WhereBetween("user_id", int64_t{0}, int64_t{50'000})
                   .Aggregate(AggKind::kAvg, "latency_ms")
                   .Build(schema)
                   .ValueOrDie();
      if (!session->Execute(q, budgeted).ok()) return;
    } else if (i % 2 == 0) {
      const int64_t ts = rng.UniformInt(0, static_cast<int64_t>(rows) - 1);
      auto q = Query::From("events")
                   .WhereBetween("ts", ts, ts + 1)
                   .Build(schema)
                   .ValueOrDie();
      if (!session->Execute(q, cracking).ok()) return;
    } else {
      // Even sessions share window starts (cache hits); odd ones roam.
      const int64_t lo = (i % 4 == 1)
                             ? (i % 16) * 5'000
                             : rng.UniformInt(0, 90'000);
      auto q = Query::From("events")
                   .WhereBetween("user_id", lo, lo + 2'000)
                   .Aggregate(AggKind::kCount)
                   .Build(schema)
                   .ValueOrDie();
      if (!session->Execute(q, cracking).ok()) return;
    }
  }
}

void ThroughputSweep(size_t rows) {
  using bench::Row;
  bench::Banner("E26a", "serving layer: concurrent-session throughput");
  const int steps = bench::ScaledRows(400) >= 400 ? 400 : 64;
  Row("sessions", "queries", "wall_ms", "qps", "speedup", "cache_hits");
  double qps1 = 0;
  for (size_t sessions : {1u, 2u, 4u, 8u, 16u}) {
    Database db;
    if (!db.CreateTable("events", EventsTable(rows, 17)).ok()) return;
    const Schema schema = EventsSchema();
    ThreadPool pool(sessions);
    ServerOptions options;
    options.pool = &pool;
    options.max_concurrent = sessions;
    ExplorationServer server(&db, options);
    std::vector<ServerSession*> handles;
    for (size_t s = 0; s < sessions; ++s) {
      handles.push_back(server.OpenSession("t" + std::to_string(s)));
    }

    Stopwatch timer;
    std::vector<std::thread> drivers;
    for (size_t s = 0; s < sessions; ++s) {
      drivers.emplace_back([&, s] {
        DriveSession(handles[s], schema, rows, s, steps);
      });
    }
    for (std::thread& d : drivers) d.join();
    server.Drain();
    const double wall_s = timer.ElapsedSeconds();

    const uint64_t queries = static_cast<uint64_t>(sessions) * steps;
    const double qps = static_cast<double>(queries) / wall_s;
    if (sessions == 1) qps1 = qps;
    const double speedup = qps1 > 0 ? qps / qps1 : 1.0;
    const CacheStats cache = server.shared_cache().stats();
    Row(sessions, queries, wall_s * 1e3, qps, speedup,
        static_cast<uint64_t>(cache.hits));
    bench::ReportJson(
        "server_throughput", queries, wall_s * 1e9 / queries,
        {{"sessions", static_cast<double>(sessions)},
         {"qps", qps},
         {"speedup", speedup},
         {"cache_hits", static_cast<double>(cache.hits)}});
  }
}

double PercentileMs(std::vector<double>& ms, double q) {
  if (ms.empty()) return 0.0;
  std::sort(ms.begin(), ms.end());
  const size_t idx = std::min(
      ms.size() - 1, static_cast<size_t>(q * static_cast<double>(ms.size())));
  return ms[idx];
}

/// Measures per-query wall latency (including queue wait) of `n` point
/// lookups issued through `session`.
std::vector<double> LookupLatencies(ServerSession* session,
                                    const Schema& schema, size_t rows, int n,
                                    uint64_t seed) {
  Random rng(seed);
  ExecContext cracking;
  cracking.options().mode = ExecutionMode::kCracking;
  std::vector<double> ms;
  ms.reserve(n);
  Stopwatch timer;
  for (int i = 0; i < n; ++i) {
    const int64_t ts = rng.UniformInt(0, static_cast<int64_t>(rows) - 1);
    auto q = Query::From("events")
                 .WhereBetween("ts", ts, ts + 1)
                 .Build(schema)
                 .ValueOrDie();
    timer.Restart();
    if (!session->Execute(q, cracking).ok()) break;
    ms.push_back(timer.ElapsedSeconds() * 1e3);
  }
  return ms;
}

void LatencyIsolation(size_t rows) {
  using bench::Row;
  bench::Banner("E26b",
                "serving layer: point-lookup p95, idle vs contended");
  const int lookups = bench::ScaledRows(300) >= 300 ? 300 : 50;

  Database db;
  if (!db.CreateTable("events", EventsTable(rows, 17)).ok()) return;
  const Schema schema = EventsSchema();
  // Interactive tenant weighted above the analytic bulk tenants: the fair
  // queue is what keeps its lookups flowing between their long queries.
  ThreadPool pool(4);
  ServerOptions options;
  options.pool = &pool;
  options.max_concurrent = 3;
  ExplorationServer server(&db, options);
  ServerSession* interactive = server.OpenSession("interactive");
  ServerSession* analyst = server.OpenSession("analyst");
  ServerSession* cracker = server.OpenSession("cracker");
  server.SetTenantWeight("interactive", 4);

  // Warm-up: as many untimed lookups at other points, so the ts cracker's
  // convergence is not billed to the idle baseline.
  (void)LookupLatencies(interactive, schema, rows, lookups, 20);
  // Idle baseline.
  std::vector<double> idle =
      LookupLatencies(interactive, schema, rows, lookups, 21);
  const double idle_p95 = PercentileMs(idle, 0.95);

  // Contended: a long online aggregation plus continuous fresh cracking.
  std::atomic<bool> stop{false};
  std::thread analyst_thread([&] {
    ExecContext online;
    online.options().mode = ExecutionMode::kOnline;
    online.options().error_budget = 0.0001;  // keep refining for a while
    while (!stop.load()) {
      auto q = Query::From("events")
                   .WhereBetween("user_id", int64_t{0}, int64_t{99'999})
                   .Aggregate(AggKind::kAvg, "latency_ms")
                   .Build(schema)
                   .ValueOrDie();
      if (!analyst->Execute(q, online).ok()) return;
    }
  });
  std::thread cracker_thread([&] {
    Random rng(33);
    ExecContext cracking;
    cracking.options().mode = ExecutionMode::kCracking;
    while (!stop.load()) {
      const int64_t lo = rng.UniformInt(0, 95'000);
      auto q = Query::From("events")
                   .WhereBetween("user_id", lo, lo + 1'000)
                   .Build(schema)
                   .ValueOrDie();
      if (!cracker->Execute(q, cracking).ok()) return;
    }
  });

  std::vector<double> contended =
      LookupLatencies(interactive, schema, rows, lookups, 22);
  stop.store(true);
  analyst_thread.join();
  cracker_thread.join();
  server.Drain();
  const double contended_p95 = PercentileMs(contended, 0.95);
  const double ratio = idle_p95 > 0 ? contended_p95 / idle_p95 : 0.0;

  Row("scenario", "n", "p50_ms", "p95_ms");
  Row("idle", idle.size(), PercentileMs(idle, 0.50), idle_p95);
  Row("contended", contended.size(), PercentileMs(contended, 0.50),
      contended_p95);
  std::printf("p95 inflation under contention: %.2fx\n", ratio);
  bench::ReportJson("server_lookup_p95", static_cast<uint64_t>(lookups),
                    contended_p95 * 1e6,
                    {{"idle_p95_ms", idle_p95},
                     {"contended_p95_ms", contended_p95},
                     {"inflation", ratio}});
}

void Run() {
  const size_t rows = bench::ScaledRows(2'000'000);
  ThroughputSweep(rows);
  LatencyIsolation(rows);
}

}  // namespace
}  // namespace exploredb

int main() {
  exploredb::Run();
  return 0;
}
