#ifndef EXPLOREDB_OBS_SLO_H_
#define EXPLOREDB_OBS_SLO_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "engine/query.h"

namespace exploredb {

/// Which latency contract a query is judged against. Exploration sessions mix
/// three kinds of work with very different promises:
///  - interactive: point lookups and window selections a human is waiting on
///    (the 100ms "interactive threshold" of the exploration literature),
///  - budgeted: queries carrying an explicit LatencyBudget contract — judged
///    against their own per-query budget,
///  - batch: exact analytic aggregates where completeness beats latency.
enum class QueryClass { kInteractive, kBudgeted, kBatch };

inline constexpr size_t kQueryClassCount = 3;

const char* QueryClassName(QueryClass c);

/// Rolling-window health of one query class.
struct SloClassSnapshot {
  uint64_t total = 0;        ///< queries observed in the window
  uint64_t within = 0;       ///< of those, finished within budget
  uint64_t approximate = 0;  ///< of those, answered approximately
  double within_fraction = 1.0;  ///< within/total (1.0 on an empty window)
  /// How fast the error budget is being consumed: miss_fraction divided by
  /// the allowance (1 - slo_target). 1.0 = exactly on target, >1 = burning
  /// faster than the SLO tolerates, 0 = no misses.
  double burn_rate = 0.0;
  double mean_achieved_error = 0.0;  ///< mean relative error over the window
  double p95_latency_ns = 0.0;       ///< bucket-interpolated, see slo.cc
  double p99_latency_ns = 0.0;
  int64_t default_budget_ns = 0;  ///< class budget used when a query has none
};

struct SloSnapshot {
  uint64_t window_seconds = 0;
  double slo_target = 0.0;
  std::array<SloClassSnapshot, kQueryClassCount> classes;
};

/// Always-on SLO monitor: every query Session::LogQuery sees is classified
/// and recorded into a ring of per-second slots (per class: totals, within-
/// budget count, achieved error, and a fixed latency bucket array mirroring
/// Histogram::LatencyBoundsNanos). Snapshots sum the slots that fall inside
/// the requested window, so "fraction within budget over the last minute"
/// and windowed p95/p99 come straight from live memory — no log scan.
///
/// Observe() is alloc-free and lock-free (atomics only): it runs on the
/// query path for every query, journal or no journal. Slot recycling is
/// racy-by-design (a slot whose second has passed is CAS-reset by the first
/// writer of the new second); a handful of observations landing in a
/// just-reset slot is acceptable for a monitoring window.
///
/// Budget misses additionally bump exploredb_slo_* counters and, when the
/// workload journal is enabled, append an slo_breach event line.
class SloMonitor {
 public:
  /// Ring size in one-second slots; windows up to kWindowSlots-1 seconds can
  /// be summed exactly.
  static constexpr uint64_t kWindowSlots = 64;
  /// Latency buckets per slot: Histogram::LatencyBoundsNanos() plus +Inf.
  static constexpr size_t kLatencyBuckets = 14;
  /// The SLO: this fraction of each class should finish within budget.
  static constexpr double kSloTarget = 0.99;

  static SloMonitor& Global();

  /// Classifies one query: an explicit latency contract wins; otherwise
  /// exact analytic work (aggregate / group-by under scan-family modes) is
  /// batch and everything else — selections, lookups, approximate answers —
  /// is interactive.
  static QueryClass Classify(ExecutionMode requested_mode, bool analytic);

  /// Default budget of class `c` (used when a query carries no contract).
  static int64_t ClassBudget(QueryClass c);

  /// Records one finished query. `budget_ns` <= 0 means "no per-query
  /// contract" — the class default applies. Alloc-free.
  void Observe(QueryClass c, int64_t latency_ns, int64_t budget_ns,
               bool approximate, double achieved_error);

  /// Sums the live slots covering the last `window_seconds` (clamped to
  /// kWindowSlots - 1).
  SloSnapshot Snapshot(uint64_t window_seconds = 60) const;

  /// Refreshes the exploredb_slo_* gauges from a 60s snapshot. Called at
  /// scrape time (/metrics, /slo) — gauges are as fresh as the last scrape.
  void UpdateGauges() const;

  /// JSON document served by the /slo endpoint.
  std::string JsonReport(uint64_t window_seconds = 60) const;

  void ResetForTest();

 private:
  SloMonitor();

  struct Slot {
    std::atomic<int64_t> epoch_s{-1};  ///< absolute second this slot holds
    std::atomic<uint64_t> total{0};
    std::atomic<uint64_t> within{0};
    std::atomic<uint64_t> approximate{0};
    std::atomic<int64_t> err_micros{0};  ///< sum of achieved_error * 1e6
    std::array<std::atomic<uint64_t>, kLatencyBuckets> latency{};
  };

  struct ClassState {
    std::array<Slot, kWindowSlots> slots;
    // Cumulative counters/histogram (resolved once at construction so
    // Observe never takes the registry lock).
    class Counter* queries_total = nullptr;
    class Counter* budget_missed_total = nullptr;
    class Histogram* latency_hist = nullptr;
    class Gauge* within_ratio = nullptr;
    class Gauge* burn_rate = nullptr;
    class Gauge* p95 = nullptr;
    class Gauge* p99 = nullptr;
  };

  std::array<ClassState, kQueryClassCount> classes_;
  std::vector<int64_t> bounds_;  ///< Histogram::LatencyBoundsNanos()
};

}  // namespace exploredb

#endif  // EXPLOREDB_OBS_SLO_H_
