// Observability tour: metrics, trace spans, the query log (the workload
// journal's per-query records), and ExplainAnalyze.
//
// Runs an exploration session that exercises every instrumented subsystem —
// cracking (split/convergence counters), the result cache (hit/miss
// counters), zone-map pruning, online aggregation — then exports what the
// engine saw:
//
//   metrics.prom   Prometheus text exposition (always written)
//   trace.json     Chrome trace_event JSON (written when tracing is on:
//                  EXPLOREDB_TRACE=1 ./build/examples/observability)
//
// Load trace.json in about://tracing or https://ui.perfetto.dev to see
// executor phases nesting over per-morsel worker spans.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "engine/database.h"
#include "engine/query.h"
#include "engine/session.h"
#include "obs/http_exporter.h"
#include "obs/journal.h"

using namespace exploredb;

int main() {
  // ---- 0. Live endpoint (opt-in) ------------------------------------------
  // EXPLOREDB_HTTP_PORT=<port> serves /metrics, /slo, /querylog, /trace.json
  // on 127.0.0.1 while this process runs (port 0 picks a free one; the bound
  // port is echoed and written to http_port.txt for scripts).
  const uint16_t http_port = HttpExporter::Global().StartFromEnv();
  if (http_port != 0) {
    std::printf("live endpoint: http://127.0.0.1:%u/\n", http_port);
    std::ofstream("http_port.txt") << http_port << "\n";
  }
  // Every query leaves one journal record; keep them in memory (a no-op when
  // EXPLOREDB_JOURNAL or the endpoint already enabled the journal).
  WorkloadJournal::Global().EnableMemory();
  // ---- A table with exploration-friendly structure ------------------------
  // "ts" is clustered (sorted), so zone maps prune window queries on it;
  // "user_id" is scattered, so cracking pays off across repeated windows.
  Schema schema({{"ts", DataType::kInt64},
                 {"user_id", DataType::kInt64},
                 {"latency_ms", DataType::kDouble}});
  Table events(schema);
  Random rng(17);
  constexpr int64_t kRows = 400'000;
  events.Reserve(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    events.mutable_column(0)->AppendInt64(i);  // clustered
    events.mutable_column(1)->AppendInt64(rng.UniformInt(0, 99'999));
    events.mutable_column(2)->AppendDouble(5.0 + rng.NextDouble() * 95.0);
  }
  Database db;
  if (auto st = db.CreateTable("events", std::move(events)); !st.ok()) {
    std::printf("%s\n", st.ToString().c_str());
    return 1;
  }
  Session session(&db);

  // ---- 1. Sliding cracking windows: splits, then convergence --------------
  ExecContext cracking;
  cracking.options().mode = ExecutionMode::kCracking;
  for (int64_t lo = 10'000; lo <= 30'000; lo += 5'000) {
    auto r = session.Execute(
        Query::From("events").WhereBetween("user_id", lo, lo + 5'000),
        cracking);
    if (!r.ok()) return 1;
  }

  // ---- 2. Revisit a window: served by the result cache --------------------
  auto revisit = session.Execute(
      Query::From("events").WhereBetween("user_id", int64_t{10'000},
                                         int64_t{15'000}),
      cracking);
  if (!revisit.ok()) return 1;
  std::printf("revisited window from_cache=%s\n",
              revisit.ValueOrDie().from_cache ? "yes" : "no");

  // ---- 3. Zone-map pruned scan on the clustered column --------------------
  auto pruned = session.Execute(Query::From("events")
                                    .WhereBetween("ts", int64_t{200'000},
                                                  int64_t{204'000})
                                    .Aggregate(AggKind::kCount));
  if (!pruned.ok()) return 1;
  std::printf("clustered scan: %s\n",
              pruned.ValueOrDie().stats().Summary().c_str());

  // ---- 4. Online aggregation: refinement rounds ---------------------------
  ExecContext online;
  online.options().mode = ExecutionMode::kOnline;
  online.options().error_budget = 0.5;
  auto approx = session.Execute(
      Query::From("events")
          .WhereBetween("user_id", int64_t{0}, int64_t{50'000})
          .Aggregate(AggKind::kAvg, "latency_ms"),
      online);
  if (!approx.ok()) return 1;

  // ---- 5. ExplainAnalyze: per-phase / per-morsel breakdown ----------------
  // Forces span recording for this one query, whether or not EXPLOREDB_TRACE
  // is set.
  auto explained = session.ExplainAnalyze(
      Query::From("events")
          .WhereBetween("ts", int64_t{100'000}, int64_t{300'000})
          .Aggregate(AggKind::kAvg, "latency_ms")
          .Build(db.GetTable("events").ValueOrDie()->schema())
          .ValueOrDie());
  if (!explained.ok()) return 1;
  std::printf("\n%s\n", explained.ValueOrDie().c_str());

  // ---- 6. The query log: this session's journal records -----------------
  // The journal's in-memory tail, which /querylog also serves.
  WorkloadJournal::Global().Flush();
  std::vector<JournalRecord> log;
  for (const std::string& line : WorkloadJournal::Global().Tail()) {
    auto record = WorkloadJournal::FromJsonLine(line);
    if (record.ok() && record.ValueOrDie().session_id == session.id()) {
      log.push_back(std::move(record).ValueOrDie());
    }
  }
  std::printf("query log (%zu entries):\n", log.size());
  for (const JournalRecord& e : log) {
    std::printf("  [%s]%s %s\n", ExecutionModeName(e.resolved_mode),
                e.from_cache ? " cache" : "", e.stats.Summary().c_str());
  }

  // ---- 7. Exporters --------------------------------------------------------
  {
    std::ofstream out("metrics.prom");
    out << Metrics().PrometheusText();
  }
  std::printf("\nwrote metrics.prom (%zu bytes)\n",
              Metrics().PrometheusText().size());

  if (Tracer::enabled()) {
    if (auto st = Tracer::WriteChromeTrace("trace.json"); !st.ok()) {
      std::printf("trace export failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote trace.json (%zu events) — open in about://tracing\n",
                Tracer::Snapshot().size());
  } else {
    std::printf("tracing off — rerun with EXPLOREDB_TRACE=1 for trace.json\n");
  }

  // ---- 8. Keep the endpoint up for scrapers -------------------------------
  if (http_port != 0) {
    const char* serve = std::getenv("EXPLOREDB_HTTP_SERVE_SECONDS");
    const int secs = serve != nullptr ? std::atoi(serve) : 0;
    if (secs > 0) {
      std::printf("serving http://127.0.0.1:%u/ for %ds...\n", http_port,
                  secs);
      std::this_thread::sleep_for(std::chrono::seconds(secs));
    }
    HttpExporter::Global().Stop();
  }
  return 0;
}
