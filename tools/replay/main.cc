// exploredb-replay: workload capture & replay driver.
//
//   exploredb-replay record <journal> [--rows N] [--seed S]
//       Generates the "events" dataset, runs a scripted three-session
//       exploration workload with journaling to <journal> (header line
//       included), and reports what was captured. The third session's
//       linked views are answered from the session focus.
//
//   exploredb-replay replay <journal> [--threads N] [--afap] [--json <out>]
//       [--concurrent]
//       Re-executes every journaled query. Each replay thread regenerates
//       its own Database from the journal header (cracking mutates shared
//       table state, so thread-private databases keep replays deterministic
//       at any --threads), recreates one Session per recorded session, and
//       replays that session's queries in session_seq order — sleeping the
//       recorded think times unless --afap. Every exact (non-approximate)
//       result must match the recorded fingerprint bit-identically; any
//       mismatch fails the run. Prints an IDEBench-style report: per-class
//       query counts, fraction within latency budget, and p50/p95 latency.
//
//       --concurrent replays through the serving layer instead: ONE shared
//       Database behind an ExplorationServer (--threads = the scheduler's
//       concurrency cap), one ServerSession per recorded session, one driver
//       thread per session preserving issue order and think time. Sessions
//       contend on the same epoch-published crackers and shared result cache
//       — and the fingerprint contract is unchanged, because exact answers
//       are independent of physical crack state (the executor sorts
//       candidate positions) and cache hits return the bit-identical
//       position list. This is the serving-layer determinism check.
//
// Exit status: 0 on success, 1 on usage/IO errors or fingerprint mismatch.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/json.h"
#include "common/random.h"
#include "engine/database.h"
#include "engine/query.h"
#include "engine/session.h"
#include "obs/journal.h"
#include "obs/slo.h"
#include "server/server.h"

using namespace exploredb;

namespace {

// ---------------------------------------------------------------------------
// Dataset: regenerable from (rows, seed) alone — the journal header is the
// full provenance. Mirrors the examples/observability.cpp events table:
// "ts" clustered, "user_id" scattered, "latency_ms" double.
// ---------------------------------------------------------------------------

void BuildEventsDatabase(int64_t rows, uint64_t seed, Database* db) {
  Schema schema({{"ts", DataType::kInt64},
                 {"user_id", DataType::kInt64},
                 {"latency_ms", DataType::kDouble}});
  Table events(schema);
  Random rng(seed);
  events.Reserve(rows);
  for (int64_t i = 0; i < rows; ++i) {
    events.mutable_column(0)->AppendInt64(i);
    events.mutable_column(1)->AppendInt64(rng.UniformInt(0, 99'999));
    events.mutable_column(2)->AppendDouble(5.0 + rng.NextDouble() * 95.0);
  }
  CHECK_OK(db->CreateTable("events", std::move(events)));
}

void ThinkFor(std::chrono::nanoseconds d) { std::this_thread::sleep_for(d); }

// ---------------------------------------------------------------------------
// record: a scripted exploration workload with think-time pauses.
// ---------------------------------------------------------------------------

int RunRecord(const std::string& path, int64_t rows, uint64_t seed) {
  Database db;
  BuildEventsDatabase(rows, seed, &db);

  JournalHeader header;
  header.dataset = "events";
  header.rows = rows;
  header.seed = seed;
  if (Status s = WorkloadJournal::Global().EnableFile(path, header);
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  const Schema& schema = db.GetTable("events").ValueOrDie()->schema();
  auto build = [&schema](QueryBuilder b) {
    return b.Build(schema).ValueOrDie();
  };
  const auto think = std::chrono::milliseconds(2);

  {
    // Session A: interactive exploration — sliding cracking windows, a cache
    // revisit, then exact analytic aggregates (batch class).
    Session session(&db);
    ExecContext cracking;
    cracking.options().mode = ExecutionMode::kCracking;
    for (int64_t lo = 10'000; lo <= 30'000; lo += 5'000) {
      CHECK_OK(session.Execute(
          build(Query::From("events").WhereBetween("user_id", lo, lo + 5'000)),
          cracking));
      ThinkFor(think);
    }
    CHECK_OK(session.Execute(
        build(Query::From("events")
                  .WhereBetween("user_id", int64_t{10'000}, int64_t{15'000})),
        cracking));
    ThinkFor(think);
    CHECK_OK(session.Execute(build(
        Query::From("events")
            .WhereBetween("ts", int64_t{rows / 2}, int64_t{rows / 2 + 4'000})
            .Aggregate(AggKind::kCount))));
    ThinkFor(think);
    CHECK_OK(session.Execute(
        build(Query::From("events")
                  .WhereBetween("user_id", int64_t{20'000}, int64_t{40'000})
                  .Aggregate(AggKind::kSum, "latency_ms"))));
  }

  {
    // Session B: approximate and budgeted answers.
    Session session(&db);
    ExecContext sampled;
    sampled.options().mode = ExecutionMode::kSampled;
    sampled.options().sample_fraction = 0.05;
    CHECK_OK(session.Execute(
        build(Query::From("events")
                  .WhereBetween("user_id", int64_t{0}, int64_t{50'000})
                  .Aggregate(AggKind::kAvg, "latency_ms")),
        sampled));
    ThinkFor(think);

    ExecContext online;
    online.options().mode = ExecutionMode::kOnline;
    online.options().error_budget = 0.5;
    CHECK_OK(session.Execute(
        build(Query::From("events")
                  .WhereBetween("user_id", int64_t{0}, int64_t{50'000})
                  .Aggregate(AggKind::kAvg, "latency_ms")),
        online));
    ThinkFor(think);

    ExecContext budgeted;
    budgeted.SetBudget({std::chrono::milliseconds(50), 0.05, 0.95});
    CHECK_OK(session.Execute(
        build(Query::From("events")
                  .WhereBetween("ts", int64_t{0}, int64_t{rows / 4})
                  .Aggregate(AggKind::kAvg, "latency_ms")),
        budgeted));
    ThinkFor(think);
    CHECK_OK(session.Execute(
        build(Query::From("events")
                  .WhereBetween("user_id", int64_t{60'000}, int64_t{61'000})),
        budgeted));
  }

  {
    // Session C: one linked-view gesture. The grouped chart over W leaves
    // its selection as the session's focus; the SUM, AVG and COUNT views
    // over W, then over W narrowed by one more conjunct, refine that focus
    // instead of filtering the table.
    Session session(&db);
    ExecContext exact;
    exact.options().mode = ExecutionMode::kAuto;
    auto filtered = [](bool narrowed) {
      QueryBuilder b("events");
      b.Where("user_id", CompareOp::kLt, Value(int64_t{50'000}));
      b.Where("latency_ms", CompareOp::kGe, Value(20.0));
      if (narrowed) b.Where("latency_ms", CompareOp::kLt, Value(50.0));
      return b;
    };
    CHECK_OK(session.Execute(
        build(filtered(false).Aggregate(AggKind::kCount).GroupBy("user_id")),
        exact));
    for (bool narrowed : {false, true}) {
      for (AggKind kind : {AggKind::kSum, AggKind::kAvg, AggKind::kCount}) {
        ThinkFor(think);
        CHECK_OK(session.Execute(
            build(filtered(narrowed).Aggregate(
                kind, kind == AggKind::kCount ? "" : "latency_ms")),
            exact));
      }
    }
  }

  WorkloadJournal::Global().Disable();

  auto journal = WorkloadJournal::ReadFile(path);
  if (!journal.ok()) {
    std::fprintf(stderr, "reading back %s: %s\n", path.c_str(),
                 journal.status().ToString().c_str());
    return 1;
  }
  std::printf("recorded %zu queries to %s (dataset=events rows=%lld "
              "seed=%llu)\n",
              journal.ValueOrDie().records.size(), path.c_str(),
              static_cast<long long>(rows),
              static_cast<unsigned long long>(seed));
  return 0;
}

// ---------------------------------------------------------------------------
// replay
// ---------------------------------------------------------------------------

struct ClassTally {
  std::vector<int64_t> latencies_ns;
  uint64_t within = 0;
};

struct ReplayOutcome {
  uint64_t replayed = 0;
  uint64_t exact_checked = 0;
  uint64_t mismatches = 0;
  std::array<ClassTally, kQueryClassCount> classes;
};

ExecContext ContextFor(const JournalRecord& r) {
  ExecContext ctx;
  ctx.options().mode = r.requested_mode;
  ctx.options().sample_fraction =
      r.sample_fraction > 0 ? r.sample_fraction : 0.01;
  ctx.options().error_budget = r.error_budget;
  if (r.confidence > 0) ctx.options().confidence = r.confidence;
  if (r.requested_mode == ExecutionMode::kBudgeted) {
    LatencyBudget budget;
    budget.latency = std::chrono::nanoseconds(
        r.budget_ns > 0 ? r.budget_ns : 100'000'000);
    if (r.target_error > 0) budget.target_error = r.target_error;
    if (r.confidence > 0) budget.confidence = r.confidence;
    ctx.SetBudget(budget);
  }
  return ctx;
}

/// Tallies one replayed record: latency class bookkeeping plus the
/// bit-identity fingerprint check. Shared by the per-thread-database and
/// serving-layer (--concurrent) paths.
void CheckRecord(const JournalRecord& r, const Result<QueryResult>& result,
                 ReplayOutcome* out) {
  if (!result.ok()) {
    std::fprintf(stderr, "replay sid=%llu seq=%llu failed: %s\n",
                 static_cast<unsigned long long>(r.session_id),
                 static_cast<unsigned long long>(r.session_seq),
                 result.status().ToString().c_str());
    ++out->mismatches;
    return;
  }
  const QueryResult& replayed = result.ValueOrDie();
  ++out->replayed;

  const bool analytic = r.query.aggregate().has_value() ||
                        r.query.group_by().has_value();
  const QueryClass cls = SloMonitor::Classify(r.requested_mode, analytic);
  ClassTally& tally = out->classes[static_cast<size_t>(cls)];
  const int64_t latency_ns = replayed.exec_stats.total_nanos;
  const int64_t budget_ns =
      r.budget_ns > 0 ? r.budget_ns : SloMonitor::Global().ClassBudget(cls);
  tally.latencies_ns.push_back(latency_ns);
  if (latency_ns <= budget_ns) ++tally.within;

  // Bit-identity contract: exact answers recorded exactly must replay
  // exactly. Approximate answers (either side) are skipped — sampling
  // draws differ run to run by design.
  if (!r.approximate && !replayed.approximate) {
    ++out->exact_checked;
    const uint64_t fp = QueryResultFingerprint(replayed);
    if (fp != r.result_fingerprint) {
      ++out->mismatches;
      std::fprintf(stderr,
                   "MISMATCH sid=%llu seq=%llu query=%s recorded_fp=%016llx "
                   "replayed_fp=%016llx\n",
                   static_cast<unsigned long long>(r.session_id),
                   static_cast<unsigned long long>(r.session_seq),
                   r.query_text.c_str(),
                   static_cast<unsigned long long>(r.result_fingerprint),
                   static_cast<unsigned long long>(fp));
    }
  }
}

/// Replays the sessions assigned to one thread, sequentially, against this
/// thread's private database.
void ReplayThread(const JournalHeader& header,
                  const std::vector<const std::vector<JournalRecord>*>&
                      sessions,
                  bool afap, ReplayOutcome* out) {
  Database db;
  BuildEventsDatabase(header.rows, header.seed, &db);
  for (const std::vector<JournalRecord>* records : sessions) {
    Session session(&db);
    for (const JournalRecord& r : *records) {
      if (!afap && r.think_ns > 0) {
        ThinkFor(std::chrono::nanoseconds(r.think_ns));
      }
      ExecContext ctx = ContextFor(r);
      CheckRecord(r, session.Execute(r.query, ctx), out);
    }
  }
}

/// --concurrent: every recorded session drives its own thread into ONE
/// ExplorationServer over ONE shared database; `cap` is the scheduler's
/// admission limit. Sessions crack the same epoch-published columns and
/// share the server's result cache while each preserves its own issue order
/// and think time.
void ReplayConcurrent(const JournalHeader& header,
                      const std::map<uint64_t, std::vector<JournalRecord>>&
                          sessions,
                      size_t cap, bool afap,
                      std::vector<ReplayOutcome>* outcomes) {
  Database db;
  BuildEventsDatabase(header.rows, header.seed, &db);
  ServerOptions options;
  options.max_concurrent = cap;
  ExplorationServer server(&db, options);

  outcomes->assign(sessions.size(), ReplayOutcome{});
  std::vector<std::thread> drivers;
  size_t slot = 0;
  for (const auto& [sid, records] : sessions) {
    ServerSession* session =
        server.OpenSession("sid-" + std::to_string(sid));
    ReplayOutcome* out = &(*outcomes)[slot++];
    drivers.emplace_back([session, &records = records, afap, out] {
      for (const JournalRecord& r : records) {
        if (!afap && r.think_ns > 0) {
          ThinkFor(std::chrono::nanoseconds(r.think_ns));
        }
        ExecContext ctx = ContextFor(r);
        CheckRecord(r, session->Execute(r.query, ctx), out);
      }
    });
  }
  for (std::thread& d : drivers) d.join();
  server.Drain();
}

double PercentileMs(std::vector<int64_t>& ns, double q) {
  if (ns.empty()) return 0.0;
  std::sort(ns.begin(), ns.end());
  const size_t idx = std::min(
      ns.size() - 1, static_cast<size_t>(q * static_cast<double>(ns.size())));
  return static_cast<double>(ns[idx]) / 1e6;
}

int RunReplay(const std::string& path, size_t threads, bool afap,
              bool concurrent, const std::string& json_out) {
  auto journal = WorkloadJournal::ReadFile(path);
  if (!journal.ok()) {
    std::fprintf(stderr, "%s\n", journal.status().ToString().c_str());
    return 1;
  }
  const JournalFile& file = journal.ValueOrDie();
  if (!file.header.has_value()) {
    std::fprintf(stderr, "journal has no header line; cannot regenerate the "
                         "dataset (record with exploredb-replay record)\n");
    return 1;
  }
  if (file.header->dataset != "events") {
    std::fprintf(stderr, "unknown dataset '%s'\n",
                 file.header->dataset.c_str());
    return 1;
  }
  if (file.records.empty()) {
    std::fprintf(stderr, "journal holds no query records\n");
    return 1;
  }

  // Group by session, replay each session's queries in issue order.
  std::map<uint64_t, std::vector<JournalRecord>> sessions;
  for (const JournalRecord& r : file.records) {
    sessions[r.session_id].push_back(r);
  }
  for (auto& [sid, records] : sessions) {
    std::sort(records.begin(), records.end(),
              [](const JournalRecord& a, const JournalRecord& b) {
                return a.session_seq < b.session_seq;
              });
  }

  std::vector<ReplayOutcome> outcomes;
  if (concurrent) {
    ReplayConcurrent(*file.header, sessions, std::max<size_t>(1, threads),
                     afap, &outcomes);
  } else {
    threads = std::max<size_t>(1, std::min(threads, sessions.size()));
    std::vector<std::vector<const std::vector<JournalRecord>*>> assignment(
        threads);
    size_t i = 0;
    for (const auto& [sid, records] : sessions) {
      assignment[i++ % threads].push_back(&records);
    }

    outcomes.resize(threads);
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        ReplayThread(*file.header, assignment[t], afap, &outcomes[t]);
      });
    }
    for (std::thread& w : workers) w.join();
  }

  ReplayOutcome total;
  for (ReplayOutcome& o : outcomes) {
    total.replayed += o.replayed;
    total.exact_checked += o.exact_checked;
    total.mismatches += o.mismatches;
    for (size_t c = 0; c < kQueryClassCount; ++c) {
      ClassTally& dst = total.classes[c];
      const ClassTally& src = o.classes[c];
      dst.within += src.within;
      dst.latencies_ns.insert(dst.latencies_ns.end(),
                              src.latencies_ns.begin(),
                              src.latencies_ns.end());
    }
  }

  if (concurrent) {
    std::printf("replayed %llu queries across %zu concurrent sessions "
                "(shared database, scheduler cap %zu)%s\n",
                static_cast<unsigned long long>(total.replayed),
                sessions.size(), std::max<size_t>(1, threads),
                afap ? " (as fast as possible)" : "");
  } else {
    std::printf("replayed %llu queries across %zu sessions on %zu threads%s\n",
                static_cast<unsigned long long>(total.replayed),
                sessions.size(), threads,
                afap ? " (as fast as possible)" : "");
  }
  std::printf("exact results checked: %llu, mismatches: %llu\n",
              static_cast<unsigned long long>(total.exact_checked),
              static_cast<unsigned long long>(total.mismatches));
  JsonWriter json;
  json.BeginObject().Key("replayed").Uint(total.replayed);
  json.Key("exact_checked").Uint(total.exact_checked);
  json.Key("mismatches").Uint(total.mismatches).Key("classes").BeginObject();
  for (size_t c = 0; c < kQueryClassCount; ++c) {
    ClassTally& tally = total.classes[c];
    const char* name = QueryClassName(static_cast<QueryClass>(c));
    const uint64_t n = tally.latencies_ns.size();
    const double within_fraction =
        n == 0 ? 1.0
               : static_cast<double>(tally.within) / static_cast<double>(n);
    const double p50 = PercentileMs(tally.latencies_ns, 0.50);
    const double p95 = PercentileMs(tally.latencies_ns, 0.95);
    std::printf("  %-11s n=%-4llu within_budget=%.3f p50=%.3fms p95=%.3fms\n",
                name, static_cast<unsigned long long>(n), within_fraction,
                p50, p95);
    json.Key(name).BeginObject().Key("n").Uint(n);
    json.Key("within_budget").Double(within_fraction);
    json.Key("p50_ms").Double(p50).Key("p95_ms").Double(p95).EndObject();
  }
  json.EndObject().EndObject();
  if (!json_out.empty()) std::ofstream(json_out) << json.str() << "\n";

  if (total.mismatches > 0) {
    std::fprintf(stderr, "FAIL: %llu fingerprint mismatch(es)\n",
                 static_cast<unsigned long long>(total.mismatches));
    return 1;
  }
  std::printf("OK: every exact result replayed bit-identically\n");
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  exploredb-replay record <journal> [--rows N] [--seed S]\n"
      "  exploredb-replay replay <journal> [--threads N] [--afap] "
      "[--json <out>] [--concurrent]\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string command = argv[1];
  const std::string path = argv[2];

  int64_t rows = 200'000;
  uint64_t seed = 17;
  size_t threads = 1;
  bool afap = false;
  bool concurrent = false;
  std::string json_out;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--rows" && i + 1 < argc) {
      rows = std::strtoll(argv[++i], nullptr, 10);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--afap") {
      afap = true;
    } else if (arg == "--concurrent") {
      concurrent = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_out = argv[++i];
    } else {
      return Usage();
    }
  }
  if (rows <= 0) {
    std::fprintf(stderr, "--rows must be positive\n");
    return 1;
  }

  if (command == "record") return RunRecord(path, rows, seed);
  if (command == "replay") {
    return RunReplay(path, threads, afap, concurrent, json_out);
  }
  return Usage();
}
