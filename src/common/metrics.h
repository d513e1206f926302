#ifndef EXPLOREDB_COMMON_METRICS_H_
#define EXPLOREDB_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"

namespace exploredb {

/// Process-wide metrics: counters, gauges, and fixed-bucket latency
/// histograms, collected in a named registry and exported in Prometheus text
/// exposition format. Everything here is designed for hot-path writers:
///
///  - Counter increments are a relaxed atomic add to a thread-sharded slot
///    (cache-line padded), merged only when somebody reads the value. Two
///    threads incrementing the same counter never touch the same cache line.
///  - Gauges are a single atomic (set/add are rare: queue depths, sizes).
///  - Histograms bucket a value with a branch-free linear probe over a small
///    fixed bound table and do one relaxed add; quantiles are estimated from
///    the bucket counts on read.
///
/// Lookup by name takes the registry mutex, so instrumentation sites resolve
/// their metric once into a function-local static:
///
///   static Counter* hits = Metrics().GetCounter("exploredb_cache_hits_total");
///   hits->Add();
///
/// Registered metrics are never removed (pointers stay valid for the process
/// lifetime); ResetAllForTest() zeroes values without invalidating pointers.
///
/// Naming follows the Prometheus conventions: base-unit suffixes (_seconds,
/// _bytes) and _total only on counters. Metrics whose natural recording unit
/// differs from the exposition unit (latencies recorded in nanoseconds,
/// exposed in seconds) register an exposition scale (SetScale): Record()
/// call sites keep passing raw integers and PrometheusText() multiplies on
/// the way out.

/// Monotonic counter, sharded by thread to keep increments contention-free.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    shards_[ShardIndex()].value.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Sum over all shards. Concurrent adds may or may not be included (the
  /// usual monotonic-counter read contract).
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void ResetForTest() {
    for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kShards = 16;

  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };

  /// Stable per-thread shard assignment (registration order modulo kShards):
  /// threads always hit the same line, and up to kShards threads contend on
  /// none.
  static size_t ShardIndex();

  std::array<Shard, kShards> shards_;
};

/// A value that can go up and down (queue depth, resident entries).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Sub(int64_t delta) { value_.fetch_sub(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void ResetForTest() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram: bucket upper bounds are set at registration and
/// never change, so Record() is a probe plus one relaxed add. Quantiles are
/// estimated by linear interpolation inside the containing bucket — the
/// estimate is always within that bucket's bounds, which is what the p50/p95/
/// p99 latency panels need.
class Histogram {
 public:
  /// `bounds` are inclusive upper bounds, strictly increasing; an implicit
  /// +Inf bucket catches the overflow.
  explicit Histogram(std::vector<int64_t> bounds);

  void Record(int64_t value) {
    size_t b = 0;
    while (b < bounds_.size() && value > bounds_[b]) ++b;
    buckets_[b].value.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  uint64_t Count() const;
  int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Estimated value at quantile q in [0, 1]. Returns 0 on an empty
  /// histogram. The result lies within the bounds of the bucket containing
  /// the q-th observation (the +Inf bucket reports its lower bound).
  double Quantile(double q) const;

  const std::vector<int64_t>& bounds() const { return bounds_; }
  std::vector<uint64_t> BucketCounts() const;

  void ResetForTest();

  /// Default bounds for nanosecond latencies: 1us .. ~17s, powers of 4.
  static std::vector<int64_t> LatencyBoundsNanos();

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };

  const std::vector<int64_t> bounds_;
  std::vector<Cell> buckets_;  // bounds_.size() + 1 (+Inf)
  std::atomic<int64_t> sum_{0};
};

/// Name -> metric registry with Prometheus text exposition. One process-wide
/// instance (Metrics()); tests may construct private registries.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the named metric. Returned pointers are valid for the
  /// registry's lifetime. `help` is kept from the first registration.
  Counter* GetCounter(const std::string& name, const std::string& help = "")
      EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name, const std::string& help = "")
      EXCLUDES(mu_);
  /// Empty `bounds` selects Histogram::LatencyBoundsNanos(). Bounds are fixed
  /// by the first registration; later calls with the same name return the
  /// existing histogram regardless of `bounds`.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<int64_t> bounds = {},
                          const std::string& help = "") EXCLUDES(mu_);

  /// Sets the exposition scale of `name` (default 1.0): recorded values are
  /// multiplied by `scale` in PrometheusText() so hot paths can record raw
  /// nanoseconds into a `_seconds` series (scale 1e-9) or millionths into a
  /// ratio gauge (scale 1e-6). Readers through Value()/Quantile() always see
  /// the raw recorded unit. No-op when `name` is unregistered.
  void SetScale(const std::string& name, double scale) EXCLUDES(mu_);

  /// Prometheus text exposition (# HELP / # TYPE + samples), metrics in
  /// name order. Histograms emit cumulative `_bucket{le=...}`, `_sum`,
  /// `_count` series.
  std::string PrometheusText() const EXCLUDES(mu_);

  /// Zeroes every registered metric without invalidating pointers.
  void ResetAllForTest() EXCLUDES(mu_);

  static MetricsRegistry& Global();

 private:
  struct Entry {
    std::string help;
    double scale = 1.0;  ///< exposition multiplier (SetScale)
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable Mutex mu_;
  std::map<std::string, Entry> metrics_ GUARDED_BY(mu_);
};

/// Shorthand for the process-wide registry.
inline MetricsRegistry& Metrics() { return MetricsRegistry::Global(); }

/// Builds a labeled series name — `base{label="value"}` — usable anywhere a
/// metric name is (the registry keys by the full string, so each label value
/// is its own counter/gauge). PrometheusText() groups all series of a base
/// name under one # HELP/# TYPE block, which is how per-tenant series
/// (`exploredb_session_queries_total{tenant="acme"}`) become legal
/// exposition. The label value is sanitized: backslash, double quote, and
/// newline are escaped per the Prometheus text format.
std::string LabeledMetricName(const std::string& base,
                              const std::string& label,
                              const std::string& value);

}  // namespace exploredb

#endif  // EXPLOREDB_COMMON_METRICS_H_
