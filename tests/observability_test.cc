// End-to-end observability: real queries populate the metrics registry
// (cracker splits, zone-map pruning, cache hits, latency histogram), the
// query log (the journal's in-memory tail) behaves as a ring buffer,
// ExplainAnalyze has the documented shape, ExecStats::Summary stays
// consistent across access paths, and a traced query's Chrome-trace spans
// nest phases over morsel tasks.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "engine/query.h"
#include "engine/session.h"
#include "journal_records.h"
#include "obs/http_exporter.h"
#include "obs/journal.h"
#include "storage/compression/compressed_column.h"

namespace exploredb {
namespace {

/// 256K-row table: "ts" clustered (zone-map friendly), "user_id" scattered
/// (cracking target), "latency_ms" a double measure.
Database* TestDb() {
  static Database* db = [] {
    Schema schema({{"ts", DataType::kInt64},
                   {"user_id", DataType::kInt64},
                   {"latency_ms", DataType::kDouble}});
    Table t(schema);
    Random rng(99);
    constexpr int64_t kRows = 256 * 1024;
    t.Reserve(kRows);
    for (int64_t i = 0; i < kRows; ++i) {
      t.mutable_column(0)->AppendInt64(i);
      t.mutable_column(1)->AppendInt64(rng.UniformInt(0, 49'999));
      t.mutable_column(2)->AppendDouble(rng.NextDouble() * 100);
    }
    auto* db = new Database();
    if (!db->CreateTable("events", std::move(t)).ok()) std::abort();
    return db;
  }();
  return db;
}

Query Window(int64_t col_lo, int64_t col_hi, size_t col = 1) {
  return Query::On("events").Where(
      Predicate({{col, CompareOp::kGe, Value(col_lo)},
                 {col, CompareOp::kLt, Value(col_hi)}}));
}

TEST(ObservabilityTest, RealQueriesPopulatePrometheusSeries) {
  Metrics().ResetAllForTest();
  Database* db = TestDb();
  Session session(db);

  // Cracking queries: splits.
  ExecContext cracking;
  cracking.options().mode = ExecutionMode::kCracking;
  for (int64_t lo = 0; lo < 20'000; lo += 5'000) {
    ASSERT_TRUE(session.Execute(Window(lo, lo + 5'000), cracking).ok());
  }
  // Repeat one: a cache hit.
  ASSERT_TRUE(session.Execute(Window(0, 5'000), cracking).ok());
  // Clustered narrow window: zone-map pruning (4 morsels, ~1 overlaps).
  auto pruned = session.Execute(
      Window(100'000, 110'000, /*col=*/0).Aggregate(AggKind::kCount));
  ASSERT_TRUE(pruned.ok());
  EXPECT_GT(pruned.ValueOrDie().stats().morsels_pruned, 0u);

  EXPECT_GT(
      Metrics().GetCounter("exploredb_cracker_splits_total")->Value(), 0u);
  EXPECT_GT(
      Metrics().GetCounter("exploredb_zonemap_morsels_pruned_total")->Value(),
      0u);
  EXPECT_GT(Metrics().GetCounter("exploredb_cache_hits_total")->Value(), 0u);
  EXPECT_GT(
      Metrics().GetHistogram("exploredb_query_latency_seconds")->Count(), 0u);

  // The exposition carries all four acceptance series.
  std::string text = Metrics().PrometheusText();
  EXPECT_NE(text.find("exploredb_cracker_splits_total"), std::string::npos);
  EXPECT_NE(text.find("exploredb_zonemap_morsels_pruned_total"),
            std::string::npos);
  EXPECT_NE(text.find("exploredb_cache_hits_total"), std::string::npos);
  EXPECT_NE(text.find("exploredb_query_latency_seconds_bucket{le=\""),
            std::string::npos);
  EXPECT_NE(text.find("exploredb_query_latency_seconds_count"),
            std::string::npos);
}

TEST(ObservabilityTest, QueryLogIsARingBuffer) {
  // The query log is the journal's in-memory tail (what /querylog serves):
  // bounded at kTailCapacity lines, oldest dropped, newest last.
  ScopedMemoryJournal journal;
  SessionOptions options;
  options.speculate = false;
  Session session(TestDb(), options);

  const size_t queries = WorkloadJournal::kTailCapacity + 2;
  for (size_t i = 0; i + 1 < queries; ++i) {
    ASSERT_TRUE(session.Execute(Window(0, 1'000)).ok());  // hits after the 1st
    // Drain as we go so the per-thread ring never fills and drops records.
    if (i % 256 == 255) WorkloadJournal::Global().Flush();
  }
  ASSERT_TRUE(session.Execute(Window(4'000, 5'000)).ok());
  std::vector<JournalRecord> log = SessionJournal(session.id());
  ASSERT_FALSE(log.empty());
  EXPECT_LE(log.size(), WorkloadJournal::kTailCapacity);  // capacity enforced
  EXPECT_GE(log.front().session_seq, 2u);                  // oldest dropped
  EXPECT_EQ(log.back().session_seq - log.front().session_seq + 1, log.size());
  // Newest-last: the final entry is the lo=4000 window.
  EXPECT_EQ(log.back().session_seq, queries - 1);
  EXPECT_NE(log.back().query_text.find("4000"), std::string::npos);
  EXPECT_EQ(log.back().resolved_mode, ExecutionMode::kScan);
  EXPECT_FALSE(log.back().from_cache);
  EXPECT_GT(log.back().stats.total_nanos, 0);
}

TEST(ObservabilityTest, QueryLogRecordsCacheHitsAndModes) {
  ScopedMemoryJournal journal;
  SessionOptions options;
  options.speculate = false;
  Session session(TestDb(), options);
  ExecContext cracking;
  cracking.options().mode = ExecutionMode::kCracking;

  ASSERT_TRUE(session.Execute(Window(7'000, 8'000), cracking).ok());
  auto hit = session.Execute(Window(7'000, 8'000), cracking);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.ValueOrDie().from_cache);

  std::vector<JournalRecord> log = SessionJournal(session.id());
  ASSERT_EQ(log.size(), 2u);
  EXPECT_FALSE(log[0].from_cache);
  EXPECT_TRUE(log[1].from_cache);
  EXPECT_EQ(log[1].resolved_mode, ExecutionMode::kCracking);
  EXPECT_EQ(log[1].stats.path, AccessPath::kCache);
}

TEST(ObservabilityTest, QueryLogRecordsResolvedVsRequestedMode) {
  ScopedMemoryJournal journal;
  SessionOptions options;
  options.speculate = false;
  Session session(TestDb(), options);
  ExecContext aut;
  aut.options().mode = ExecutionMode::kAuto;

  // kAuto resolves to cracking for a two-sided int64 range, and to a scan
  // for a predicate no cracker serves; the log keeps both what was asked
  // for and what actually ran.
  ASSERT_TRUE(session.Execute(Window(9'000, 10'000), aut).ok());
  ASSERT_TRUE(session
                  .Execute(Query::On("events").Where(Predicate(
                               {{1, CompareOp::kGe, Value(int64_t{9'000})}})),
                           aut)
                  .ok());
  std::vector<JournalRecord> log = SessionJournal(session.id());
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].requested_mode, ExecutionMode::kAuto);
  EXPECT_EQ(log[0].resolved_mode, ExecutionMode::kCracking);
  EXPECT_EQ(log[1].requested_mode, ExecutionMode::kAuto);
  EXPECT_EQ(log[1].resolved_mode, ExecutionMode::kScan);
  EXPECT_EQ(log[1].stats.path, AccessPath::kScan);
}

TEST(ObservabilityTest, SummaryConsistentAcrossAccessPaths) {
  SessionOptions options;
  options.speculate = false;
  Session session(TestDb(), options);

  // Scan path.
  auto scan = session.Execute(Window(1'000, 2'000));
  ASSERT_TRUE(scan.ok());
  std::string scan_summary = scan.ValueOrDie().stats().Summary();
  EXPECT_NE(scan_summary.find("path=scan"), std::string::npos);
  EXPECT_NE(scan_summary.find("pruned="), std::string::npos);

  // Cache path: threads=1 (no worker did any work), pruned/morsels present.
  ASSERT_TRUE(session.Execute(Window(1'000, 2'000)).ok());
  auto hit = session.Execute(Window(1'000, 2'000));
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(hit.ValueOrDie().from_cache);
  const ExecStats& stats = hit.ValueOrDie().stats();
  EXPECT_EQ(stats.threads_used, 1u);
  std::string hit_summary = stats.Summary();
  EXPECT_NE(hit_summary.find("path=cache"), std::string::npos);
  EXPECT_NE(hit_summary.find("pruned=0"), std::string::npos);
  EXPECT_NE(hit_summary.find("threads=1"), std::string::npos);

  // Sampled path.
  ExecContext sampled;
  sampled.options().mode = ExecutionMode::kSampled;
  auto approx = session.Execute(
      Query::On("events")
          .Where(Predicate({{1, CompareOp::kLt, Value(int64_t{25'000})}}))
          .Aggregate(AggKind::kAvg, "latency_ms"),
      sampled);
  ASSERT_TRUE(approx.ok());
  std::string sample_summary = approx.ValueOrDie().stats().Summary();
  EXPECT_NE(sample_summary.find("path=sample"), std::string::npos);
  EXPECT_NE(sample_summary.find("pruned="), std::string::npos);

  // Online path.
  ExecContext online;
  online.options().mode = ExecutionMode::kOnline;
  online.options().error_budget = 5.0;
  auto refined = session.Execute(
      Query::On("events")
          .Where(Predicate({{1, CompareOp::kLt, Value(int64_t{25'000})}}))
          .Aggregate(AggKind::kAvg, "latency_ms"),
      online);
  ASSERT_TRUE(refined.ok());
  std::string online_summary = refined.ValueOrDie().stats().Summary();
  EXPECT_NE(online_summary.find("path=online"), std::string::npos);
  EXPECT_NE(online_summary.find("path="), std::string::npos);
}

TEST(ObservabilityTest, ExplainAnalyzeGoldenShape) {
  ScopedMemoryJournal journal;
  const bool was_enabled = Tracer::enabled();
  Tracer::SetEnabled(false);  // the per-query switch must suffice
  SessionOptions options;
  options.speculate = false;
  Session session(TestDb(), options);

  auto report = session.ExplainAnalyze(
      Window(3'000, 4'000).Select({"latency_ms"}));
  Tracer::SetEnabled(was_enabled);
  ASSERT_TRUE(report.ok());
  const std::string& text = report.ValueOrDie();

  // Header: query key + ExecStats summary.
  EXPECT_EQ(text.find("ExplainAnalyze:"), 0u);
  EXPECT_NE(text.find("path="), std::string::npos);
  EXPECT_NE(text.find("total="), std::string::npos);
  // Phase tree with the executor's phase spans.
  EXPECT_NE(text.find("phases:"), std::string::npos);
  EXPECT_NE(text.find("query"), std::string::npos);
  EXPECT_NE(text.find("select"), std::string::npos);
  EXPECT_NE(text.find("project"), std::string::npos);

  // ExplainAnalyze runs land in the query log too.
  std::vector<JournalRecord> log = SessionJournal(session.id());
  ASSERT_EQ(log.size(), 1u);
  EXPECT_GT(log[0].stats.total_nanos, 0);
}

TEST(ObservabilityTest, TracedQueryNestsPhaseSpansOverMorsels) {
  const bool was_enabled = Tracer::enabled();
  Tracer::SetEnabled(true);
  Tracer::Clear();

  Executor exec(TestDb());
  ExecContext ctx;  // default thread pool: morsel spans on worker threads
  const int64_t t0 = Tracer::NowNs();
  auto result =
      exec.Execute(Window(0, 25'000).Aggregate(AggKind::kCount), ctx);
  std::vector<TraceEvent> events = Tracer::SnapshotSince(t0);
  Tracer::Clear();
  Tracer::SetEnabled(was_enabled);
  ASSERT_TRUE(result.ok());

  const TraceEvent* query = nullptr;
  const TraceEvent* select = nullptr;
  size_t morsels = 0;
  for (const TraceEvent& e : events) {
    if (std::strcmp(e.name, "query") == 0) query = &e;
    if (std::strcmp(e.name, "select") == 0) select = &e;
    if (std::strcmp(e.name, "morsel") == 0) ++morsels;
  }
  ASSERT_NE(query, nullptr);
  ASSERT_NE(select, nullptr);
  EXPECT_GT(morsels, 0u);  // 256K rows / 64K morsels = 4 work units

  // The select phase nests inside the query span: same thread, deeper,
  // contained in time.
  EXPECT_EQ(select->tid, query->tid);
  EXPECT_GT(select->depth, query->depth);
  EXPECT_GE(select->start_ns, query->start_ns);
  EXPECT_LE(select->start_ns + select->dur_ns,
            query->start_ns + query->dur_ns);

  // Morsel spans fall within the query's wall-time window.
  for (const TraceEvent& e : events) {
    if (std::strcmp(e.name, "morsel") != 0) continue;
    EXPECT_GE(e.start_ns, query->start_ns);
    EXPECT_LE(e.start_ns + e.dur_ns, query->start_ns + query->dur_ns);
  }
}

TEST(ObservabilityTest, SessionCountersTrackActivity) {
  Metrics().ResetAllForTest();
  SessionOptions options;
  options.speculate = false;
  Session session(TestDb(), options);
  ASSERT_TRUE(session.Execute(Window(11'000, 12'000)).ok());
  ASSERT_TRUE(session.Execute(Window(11'000, 12'000)).ok());
  EXPECT_EQ(
      Metrics().GetCounter("exploredb_session_queries_total")->Value(), 2u);
  EXPECT_EQ(
      Metrics().GetCounter("exploredb_session_cache_hits_total")->Value(),
      1u);
  EXPECT_EQ(session.stats().queries, 2u);
  EXPECT_EQ(session.stats().cache_hits, 1u);
}

TEST(ObservabilityTest, ExplainAnalyzeReportsCompressionBreakdown) {
  // Clustered low-cardinality int64: RLE/FOR-compressible, so the default
  // scan path serves morsels from the compressed rep and ExplainAnalyze must
  // say so.
  Table t(Schema({{"ts", DataType::kInt64}, {"val", DataType::kInt64}}));
  Random rng(31);
  for (size_t i = 0; i < 60'000; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(static_cast<int64_t>(i / 300)),
                             Value(rng.UniformInt(-1000, 1000))})
                    .ok());
  }
  Database db;
  ASSERT_TRUE(db.CreateTable("events", std::move(t)).ok());

  Query query = Query::On("events")
                    .Where(Predicate({{0, CompareOp::kGe, Value(int64_t{40})},
                                      {0, CompareOp::kLt, Value(int64_t{160})}}))
                    .Aggregate(AggKind::kSum, "val");
  Executor exec(&db);
  auto direct = exec.Execute(query, ExecContext{});
  ASSERT_TRUE(direct.ok());
  Session session(&db);
  auto report = session.ExplainAnalyze(query);
  ASSERT_TRUE(report.ok());
  const std::string& text = report.ValueOrDie();
  if (CompressionPolicyFromEnv() == CompressionPolicy::kOff) {
    // Compression off: the scan is raw, and the report has no compression
    // line.
    EXPECT_EQ(direct.ValueOrDie().stats().compressed_morsels, 0u);
    EXPECT_EQ(text.find("compression:"), std::string::npos);
  } else {
    ASSERT_GT(direct.ValueOrDie().stats().compressed_morsels, 0u);
    EXPECT_NE(text.find("compression: compressed="), std::string::npos);
    EXPECT_NE(text.find("decompress="), std::string::npos);
  }

  // And a query that never touches compressed data omits the line.
  SessionOptions no_spec;
  no_spec.speculate = false;
  Session raw_session(TestDb(), no_spec);
  ExecContext cracking;
  cracking.options().mode = ExecutionMode::kCracking;
  auto uncompressed =
      raw_session.ExplainAnalyze(Window(21'000, 22'000), cracking);
  ASSERT_TRUE(uncompressed.ok());
  EXPECT_EQ(uncompressed.ValueOrDie().find("compression:"),
            std::string::npos);
}

// ---- live HTTP endpoint ----------------------------------------------------

/// One blocking HTTP/1.0 GET against 127.0.0.1:`port`; returns the full
/// response (status line + headers + body).
std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::write(fd, request.data() + sent, request.size() - sent);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) response.append(buf, n);
  ::close(fd);
  return response;
}

TEST(ObservabilityHttpTest, EndpointServesMetricsSloAndQuerylog) {
  ASSERT_TRUE(HttpExporter::Global().Start(0).ok());
  const uint16_t port = HttpExporter::Global().port();
  ASSERT_NE(port, 0);

  // Journal some traffic so /querylog has content (Start enabled the
  // in-memory tail if nothing else had).
  Session session(TestDb());
  ASSERT_TRUE(session.Execute(Window(15'000, 16'000)).ok());
  WorkloadJournal::Global().Flush();

  const std::string metrics = HttpGet(port, "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain"), std::string::npos);
  EXPECT_NE(metrics.find("exploredb_"), std::string::npos);
  EXPECT_NE(metrics.find("exploredb_slo_interactive_queries_total"),
            std::string::npos);

  const std::string slo = HttpGet(port, "/slo");
  EXPECT_NE(slo.find("200 OK"), std::string::npos);
  EXPECT_NE(slo.find("application/json"), std::string::npos);
  EXPECT_NE(slo.find("\"classes\""), std::string::npos);
  EXPECT_NE(slo.find("\"interactive\""), std::string::npos);

  const std::string querylog = HttpGet(port, "/querylog");
  EXPECT_NE(querylog.find("200 OK"), std::string::npos);
  EXPECT_NE(querylog.find("\"type\":\"q\""), std::string::npos);

  const std::string index = HttpGet(port, "/");
  EXPECT_NE(index.find("200 OK"), std::string::npos);

  const std::string missing = HttpGet(port, "/no-such-route");
  EXPECT_NE(missing.find("404"), std::string::npos);

  HttpExporter::Global().Stop();
  EXPECT_FALSE(HttpExporter::Global().running());
}

TEST(ObservabilityHttpTest, RespondRoutesWithoutSockets) {
  std::string body;
  std::string content_type;
  EXPECT_EQ(HttpExporter::Respond("/metrics", &body, &content_type), 200);
  EXPECT_NE(body.find("exploredb_"), std::string::npos);
  EXPECT_EQ(HttpExporter::Respond("/slo", &body, &content_type), 200);
  EXPECT_NE(body.find("\"slo_target\":0.99"), std::string::npos);
  EXPECT_EQ(HttpExporter::Respond("/trace.json", &body, &content_type), 200);
  EXPECT_NE(body.find("traceEvents"), std::string::npos);
  EXPECT_EQ(HttpExporter::Respond("/nope", &body, &content_type), 404);
}

}  // namespace
}  // namespace exploredb
