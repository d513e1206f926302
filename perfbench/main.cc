// Exploration-session benchmark for ExploreDB.
//
// Closed-loop exploration users (each waits for its replies, then thinks)
// drive an ExplorationServer over one freshly loaded ~5M-row flights table.
// Latency is what a client sees: from the end of its think time until the
// future Submit returned resolves. Every answer is checked against an
// independent oracle.
//
//   perfbench --workload <crossfilter|pan-zoom> --seed <n> --seconds <n>
//             --trace <0|1> [--trace-file <path>]
//
// --trace 0 prints the end-to-end metrics. --trace 1 spends half its time on
// an untraced run and half on a run that records spans around each Submit
// and future resolution, and prints the per-layer metrics of the traced run,
// including its tracing overhead (traced minus untraced latency). Per-layer
// numbers come from outside the engine only: the ExecStats each result
// returns, the shared cache, scheduler and session stats, and deltas of the
// Metrics() registry around the run. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "driver.h"
#include "engine/database.h"
#include "flights.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using exploredb::Database;
using exploredb::ExplorationServer;
using exploredb::ExecStats;
using exploredb::PlannerChoice;
using exploredb::ServerSession;
using exploredb::Table;

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;
/// The run is invalid if the generator's p95 lateness exceeds this share of
/// the shortest mean think time among the workload's users. Lateness counts
/// in the latency users see, so a late generator inflates latency rather
/// than hides it; past this share it would be shaping the load.
constexpr double kMaxLatenessShare = 0.5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_file;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-file") {
      args->trace_file = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

size_t Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// A memory figure of this process from /proc/self/status ("VmRSS" for
/// resident memory now, "VmHWM" for its peak), in MB.
double StatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- Registry deltas ------------------------------------------------------

const char* const kCounters[] = {
    "exploredb_cracker_elements_touched_total",
    "exploredb_cracker_splits_total",
    "exploredb_cracker_epochs_published_total",
    "exploredb_cracker_shared_reads_total",
    "exploredb_zonemap_morsels_checked_total",
    "exploredb_zonemap_morsels_pruned_total",
    "exploredb_synopsis_builds_total",
    "exploredb_onlineagg_rounds_total",
    "exploredb_onlineagg_rows_total",
    "exploredb_threadpool_tasks_total",
};
constexpr const char* kTaskRunHistogram =
    "exploredb_threadpool_task_run_seconds";

struct RegistrySnapshot {
  std::map<std::string, double> counters;
  std::vector<uint64_t> task_run_buckets;
};

RegistrySnapshot Snapshot() {
  RegistrySnapshot s;
  for (const char* name : kCounters) {
    s.counters[name] =
        static_cast<double>(exploredb::Metrics().GetCounter(name)->Value());
  }
  s.task_run_buckets =
      exploredb::Metrics().GetHistogram(kTaskRunHistogram)->BucketCounts();
  return s;
}

/// Quantile of the histogram samples recorded between two snapshots, by
/// linear interpolation inside the containing bucket (nanoseconds).
double DeltaQuantile(const std::vector<uint64_t>& before,
                     const std::vector<uint64_t>& after, double q) {
  const std::vector<int64_t>& bounds =
      exploredb::Metrics().GetHistogram(kTaskRunHistogram)->bounds();
  std::vector<uint64_t> delta(after.size());
  uint64_t total = 0;
  for (size_t b = 0; b < after.size(); ++b) {
    delta[b] = after[b] - before[b];
    total += delta[b];
  }
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  double seen = 0.0;
  for (size_t b = 0; b < delta.size(); ++b) {
    const double lo = b == 0 ? 0.0 : static_cast<double>(bounds[b - 1]);
    if (b == bounds.size()) return lo;
    if (seen + static_cast<double>(delta[b]) >= rank && delta[b] > 0) {
      const double hi = static_cast<double>(bounds[b]);
      return lo + (hi - lo) * (rank - seen) / static_cast<double>(delta[b]);
    }
    seen += static_cast<double>(delta[b]);
  }
  return static_cast<double>(bounds.back());
}

// ---- One measured run -------------------------------------------------------

struct Phase {
  DriveResult drive;
  std::vector<double> setup_s;
  std::map<std::string, double> counters;  ///< registry deltas
  double task_run_p95_ns = 0.0;
  exploredb::CacheStats cache;
  uint64_t speculative = 0;
  uint64_t scheduler_completed = 0;
};

/// Loads a fresh Database and server (`setups` times, keeping the last),
/// then drives the workload through it.
Phase RunPhase(const Workload& w, const Table& master, int seconds,
               size_t nproc, bool traced, int setups) {
  Phase phase;
  std::unique_ptr<Database> db;
  std::unique_ptr<ExplorationServer> server;
  std::vector<ServerSession*> sessions;
  for (int k = 0; k < setups; ++k) {
    sessions.clear();
    server.reset();
    db.reset();
    const int64_t t0 = NowNs();
    Table copy = master;
    db = std::make_unique<Database>();
    const exploredb::Status status = db->CreateTable("flights", std::move(copy));
    if (!status.ok()) {
      std::fprintf(stderr, "CreateTable: %s\n", status.ToString().c_str());
      std::exit(1);
    }
    exploredb::ServerOptions options;
    options.max_concurrent = nproc;
    server = std::make_unique<ExplorationServer>(db.get(), options);
    for (const User& u : w.users) {
      sessions.push_back(server->OpenSession(u.tenant));
    }
    phase.setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }

  const RegistrySnapshot before = Snapshot();
  phase.drive = Drive(w, sessions, master, seconds,
                      std::min(nproc, w.users.size()), traced);
  server->Drain();
  const RegistrySnapshot after = Snapshot();
  for (const auto& [name, value] : after.counters) {
    phase.counters[name] = value - before.counters.at(name);
  }
  phase.task_run_p95_ns = DeltaQuantile(before.task_run_buckets,
                                        after.task_run_buckets, 0.95);
  phase.cache = server->shared_cache().stats();
  for (size_t i = 0; i < sessions.size(); ++i) {
    phase.speculative += sessions[i]->session().stats().speculative_queries;
    phase.scheduler_completed +=
        server->scheduler().tenant_stats(w.users[i].tenant).completed;
  }
  return phase;
}

// ---- Metrics ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct EndToEnd {
  double p50_ms = 0, p95_ms = 0, within = 0, qps = 0, rel_error = 0,
         ci_coverage = 0;
  uint64_t attempted = 0, failed = 0, wrong = 0, approximate = 0,
           inaccurate = 0;
};

EndToEnd Summarize(const Phase& p, int seconds) {
  EndToEnd e;
  std::vector<double> latency_ms;
  std::vector<double> rel_errors;
  uint64_t covered = 0;
  uint64_t within = 0;
  uint64_t in_window = 0;
  for (const Completion& c : p.drive.completions) {
    latency_ms.push_back(static_cast<double>(c.client_ns()) * 1e-6);
    within += c.within_budget();
    in_window += c.resolved_ns <= p.drive.end_ns;
    if (c.ok && !c.verdict.correct) ++e.wrong;
    if (!c.ok || !c.verdict.correct) ++e.failed;
    if (c.ok && c.approximate) {
      rel_errors.push_back(c.verdict.rel_error);
      covered += c.verdict.covered;
      e.inaccurate += !c.verdict.accurate;
    }
  }
  e.attempted = p.drive.attempted;
  e.p50_ms = Percentile(latency_ms, 0.50);
  e.p95_ms = Percentile(latency_ms, 0.95);
  e.within = Ratio(static_cast<double>(within), static_cast<double>(e.attempted));
  e.qps = static_cast<double>(in_window) / seconds;
  e.approximate = rel_errors.size();
  e.rel_error = Mean(rel_errors);
  e.ci_coverage = Ratio(static_cast<double>(covered),
                        static_cast<double>(e.approximate));
  return e;
}

/// How late the generator submitted each request, in ms.
std::vector<double> LatenessMs(const DriveResult& d) {
  std::vector<double> ms;
  for (const Completion& c : d.completions) {
    ms.push_back(static_cast<double>(c.submit_ns - c.due_ns) * 1e-6);
  }
  return ms;
}

/// Self time of each span (duration minus its children's), by span index.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto it = child_ns.find(spans[i].id);
    const int64_t children = it == child_ns.end() ? 0 : it->second;
    self[i] = std::max<int64_t>(0, spans[i].end_ns - spans[i].start_ns - children);
  }
  return self;
}

std::vector<Metric> PerLayer(const Phase& p, const EndToEnd& untraced,
                             const EndToEnd& traced) {
  // Span durations and self times by name, in ms.
  std::map<std::string, std::vector<double>> dur, self;
  const std::vector<int64_t> self_ns = SelfTimes(p.drive.spans);
  for (size_t i = 0; i < p.drive.spans.size(); ++i) {
    const Span& s = p.drive.spans[i];
    dur[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    self[s.name].push_back(static_cast<double>(self_ns[i]) * 1e-6);
  }

  const auto& done = p.drive.completions;
  const auto n = static_cast<double>(done.size());
  double rows = 0, morsels = 0, compressed = 0, budgeted = 0, budget_met = 0,
         online_queries = 0, spec_hits = 0;
  std::map<PlannerChoice, double> choices;
  for (const Completion& c : done) {
    const ExecStats& s = c.stats;
    rows += static_cast<double>(s.rows_scanned);
    morsels += static_cast<double>(s.morsels_dispatched);
    compressed += static_cast<double>(s.compressed_morsels);
    spec_hits += c.spec_hit;
    online_queries += s.path == exploredb::AccessPath::kOnline;
    if (s.planner_choice != PlannerChoice::kNone) {
      ++budgeted;
      ++choices[s.planner_choice];
      budget_met += s.total_nanos <= c.budget_ns;
    }
  }
  const auto& k = p.counters;
  const double shared = k.at("exploredb_cracker_shared_reads_total");
  const double epochs = k.at("exploredb_cracker_epochs_published_total");
  const double speculative = static_cast<double>(p.speculative);
  return {
      {"server.queue_p50_ms", Percentile(dur["server.queue"], 0.50), "ms"},
      {"server.queue_p95_ms", Percentile(dur["server.queue"], 0.95), "ms"},
      {"session.self_p50_ms", Percentile(self["server.request"], 0.50), "ms"},
      {"session.self_p95_ms", Percentile(self["server.request"], 0.95), "ms"},
      {"executor.exec_p50_ms", Percentile(dur["executor.exec"], 0.50), "ms"},
      {"executor.exec_p95_ms", Percentile(dur["executor.exec"], 0.95), "ms"},
      {"executor.plan_ms_mean", Mean(dur["executor.plan"]), "ms"},
      {"executor.select_ms_mean", Mean(dur["executor.select"]), "ms"},
      {"executor.aggregate_ms_mean", Mean(dur["executor.aggregate"]), "ms"},
      {"executor.project_ms_mean", Mean(dur["executor.project"]), "ms"},
      {"executor.decompress_ms_mean", Mean(dur["executor.decompress"]), "ms"},
      {"executor.unaccounted_ms_mean", Mean(self["executor.exec"]), "ms"},
      {"executor.rows_scanned_per_query", Ratio(rows, n), "rows/query"},
      {"executor.compressed_morsel_frac", Ratio(compressed, morsels), "ratio"},
      {"planner.cache_frac", Ratio(choices[PlannerChoice::kCache], budgeted), "ratio"},
      {"planner.exact_frac", Ratio(choices[PlannerChoice::kExact], budgeted), "ratio"},
      {"planner.sample_frac", Ratio(choices[PlannerChoice::kSample], budgeted), "ratio"},
      {"planner.online_frac", Ratio(choices[PlannerChoice::kOnline], budgeted), "ratio"},
      {"planner.budget_met_frac", Ratio(budget_met, budgeted), "ratio"},
      {"cache.hit_ratio", p.cache.HitRate(), "ratio"},
      {"cache.evictions", static_cast<double>(p.cache.evictions), "count"},
      {"speculator.executed_per_query", Ratio(speculative, n), "count/query"},
      {"speculator.useful_ratio", Ratio(spec_hits, speculative), "ratio"},
      {"cracking.elements_touched_per_query",
       Ratio(k.at("exploredb_cracker_elements_touched_total"), n), "rows/query"},
      {"cracking.splits", k.at("exploredb_cracker_splits_total"), "count"},
      {"cracking.epochs_published", epochs, "count"},
      {"cracking.shared_read_frac", Ratio(shared, shared + epochs), "ratio"},
      {"zonemap.prune_ratio",
       Ratio(k.at("exploredb_zonemap_morsels_pruned_total"),
             k.at("exploredb_zonemap_morsels_checked_total")),
       "ratio"},
      {"synopsis.builds", k.at("exploredb_synopsis_builds_total"), "count"},
      {"onlineagg.rounds_per_query",
       Ratio(k.at("exploredb_onlineagg_rounds_total"), online_queries), "count/query"},
      {"onlineagg.rows_per_query",
       Ratio(k.at("exploredb_onlineagg_rows_total"), online_queries), "rows/query"},
      {"threadpool.task_run_p95_ms", p.task_run_p95_ns * 1e-6, "ms"},
      {"threadpool.tasks", k.at("exploredb_threadpool_tasks_total"), "count"},
      {"driver.lateness_p95_ms", Percentile(LatenessMs(p.drive), 0.95), "ms"},
      {"latency_p95_ms", traced.p95_ms, "ms"},
      {"approx_rel_error_mean", traced.rel_error, "ratio"},
      {"approx_ci_coverage", traced.ci_coverage, "ratio"},
      {"trace.overhead_p50_ms", traced.p50_ms - untraced.p50_ms, "ms"},
      {"trace.overhead_p95_ms", traced.p95_ms - untraced.p95_ms, "ms"},
  };
}

/// Validity and self-checks of one phase; returns the problems found.
std::vector<std::string> Check(const Workload& w, const Phase& p,
                               const EndToEnd& e) {
  std::vector<std::string> problems;
  if (e.wrong > 0) {
    problems.push_back(std::to_string(e.wrong) +
                       " answers disagree with the oracle");
  }
  if (p.scheduler_completed != p.drive.attempted) {
    problems.push_back("scheduler completed " +
                       std::to_string(p.scheduler_completed) + " of " +
                       std::to_string(p.drive.attempted) + " submitted");
  }
  double min_think_ms = 1e300;
  for (const User& u : w.users) min_think_ms = std::min(min_think_ms, u.mean_think_ms);
  const double late = Percentile(LatenessMs(p.drive), 0.95);
  if (late > kMaxLatenessShare * min_think_ms) {
    problems.push_back("generator fell behind: lateness p95 " +
                       std::to_string(late) + " ms");
  }
  const uint64_t lookups = p.cache.hits + p.cache.misses;
  if (w.name == "pan-zoom" && p.cache.hits == 0) {
    problems.push_back("pan-zoom saw no shared-cache hits");
  }
  if (w.name == "crossfilter" &&
      static_cast<double>(lookups) > 0.01 * static_cast<double>(e.attempted)) {
    problems.push_back("crossfilter looked up the result cache " +
                       std::to_string(lookups) + " times");
  }
  return problems;
}

void WriteTrace(const std::string& path, const DriveResult& d) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < d.spans.size(); ++i) {
    const Span& s = d.spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.user,
                 static_cast<double>(s.start_ns - d.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <n> "
                 "--trace <0|1> [--trace-file <path>]\n");
    return 2;
  }
  const size_t nproc = Nproc();
  std::printf("# workload=%s seed=%llu seconds=%d trace=%d nproc=%zu "
              "pool_threads=%zu admission_cap=%zu rows=%zu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, nproc,
              exploredb::ThreadPool::Global()->num_threads(), nproc, kRows);

  // Inputs and expected answers, all outside the timed region.
  const Table master = GenerateFlights(args.seed);
  const Oracle oracle(master);
  std::optional<Workload> workload = MakeWorkload(
      args.workload, args.seed, args.seconds, master.schema(), oracle);
  if (!workload.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("# users=%zu generator_threads=%zu\n", workload->users.size(),
              std::min(nproc, workload->users.size()));
  // peak_rss_mb counts the engine's memory only: the peak above what the
  // benchmark itself holds (master table, oracle, scripts). Generating them
  // peaks a few tens of MB above that, far below what a loaded table adds.
  const double harness_mb = StatusMb("VmRSS");
  std::printf("# harness_rss_mb=%.1f peak_so_far_mb=%.1f\n", harness_mb,
              StatusMb("VmHWM"));

  // A traced run splits its time between an untraced and a traced phase.
  const int phase_seconds = args.trace ? std::max(1, args.seconds / 2)
                                       : args.seconds;
  const Phase plain = RunPhase(*workload, master, phase_seconds, nproc, false,
                               args.trace ? 1 : kSetups);
  const EndToEnd e2e = Summarize(plain, phase_seconds);
  std::vector<std::string> problems = Check(*workload, plain, e2e);
  uint64_t attempted = e2e.attempted;
  uint64_t failed = e2e.failed;

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"latency_p50_ms", e2e.p50_ms, "ms"},
        {"within_budget_frac", e2e.within, "ratio"},
        {"throughput_qps", e2e.qps, "1/s"},
        {"setup_s", Percentile(plain.setup_s, 0.5), "s"},
        {"peak_rss_mb", StatusMb("VmHWM") - harness_mb, "MB"},
    };
    std::printf("# failed_frac %.6f (%llu of %llu)\n",
                Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    std::printf("# approx_rel_error_mean %.6f ci_coverage %.4f; %llu of %llu "
                "approximate answers miss %.0fx their interval\n",
                e2e.rel_error, e2e.ci_coverage,
                static_cast<unsigned long long>(e2e.inaccurate),
                static_cast<unsigned long long>(e2e.approximate), kCiSlack);
    std::printf("# latency_p95_ms %.6f\n", e2e.p95_ms);
  } else {
    const Phase traced =
        RunPhase(*workload, master, phase_seconds, nproc, true, 1);
    const EndToEnd traced_e2e = Summarize(traced, phase_seconds);
    for (const std::string& p : Check(*workload, traced, traced_e2e)) {
      problems.push_back("traced: " + p);
    }
    attempted += traced_e2e.attempted;
    failed += traced_e2e.failed;
    metrics = PerLayer(traced, e2e, traced_e2e);
    if (!args.trace_file.empty()) WriteTrace(args.trace_file, traced.drive);
  }

  for (const std::string& p : problems) std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  std::string json = "{\"correct\": ";
  json += problems.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%-36s %14.6f %s\n", m.name.c_str(), v, m.unit.c_str());
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
