#include "obs/slo.h"

#include <algorithm>

#include "common/check.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "obs/journal.h"

namespace exploredb {

namespace {

constexpr int64_t kDefaultInteractiveBudgetNs = 100'000'000;   // 100ms
constexpr int64_t kDefaultBudgetedFallbackNs = 100'000'000;    // 100ms
constexpr int64_t kDefaultBatchBudgetNs = 10'000'000'000;      // 10s
/// Largest relative error one query adds to a slot's err_micros sum: 64
/// slots of a million such queries each still fit in int64 micros.
constexpr double kMaxRecordedError = 1e5;

int64_t NowSeconds() { return Tracer::NowNs() / 1'000'000'000; }

/// Quantile by linear interpolation inside the containing bucket — the same
/// estimate Histogram::Quantile computes, here over a summed slot window.
double BucketQuantile(const std::vector<int64_t>& bounds,
                      const std::array<uint64_t, SloMonitor::kLatencyBuckets>&
                          counts,
                      uint64_t total, double q) {
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  uint64_t seen = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const uint64_t next = seen + counts[b];
    if (rank <= static_cast<double>(next)) {
      const double lo = b == 0 ? 0.0 : static_cast<double>(bounds[b - 1]);
      if (b >= bounds.size()) return lo;  // +Inf bucket: report lower bound
      const double hi = static_cast<double>(bounds[b]);
      const double within = (rank - static_cast<double>(seen)) /
                            static_cast<double>(counts[b]);
      return lo + (hi - lo) * within;
    }
    seen = next;
  }
  return static_cast<double>(bounds.back());
}

}  // namespace

const char* QueryClassName(QueryClass c) {
  switch (c) {
    case QueryClass::kInteractive:
      return "interactive";
    case QueryClass::kBudgeted:
      return "budgeted";
    case QueryClass::kBatch:
      return "batch";
  }
  return "interactive";
}

SloMonitor::SloMonitor() : bounds_(Histogram::LatencyBoundsNanos()) {
  CHECK(bounds_.size() + 1 == kLatencyBuckets);
  for (size_t i = 0; i < kQueryClassCount; ++i) {
    ClassState& cs = classes_[i];
    const std::string name = QueryClassName(static_cast<QueryClass>(i));
    cs.queries_total = Metrics().GetCounter(
        "exploredb_slo_" + name + "_queries_total",
        "Queries observed by the SLO monitor, class " + name);
    cs.budget_missed_total = Metrics().GetCounter(
        "exploredb_slo_" + name + "_budget_missed_total",
        "Queries that exceeded their latency budget, class " + name);
    const std::string hist = "exploredb_slo_" + name + "_latency_seconds";
    cs.latency_hist = Metrics().GetHistogram(
        hist, {}, "Query latency, class " + name +
                      " (recorded in ns, exposed in seconds)");
    Metrics().SetScale(hist, 1e-9);
    const std::string ratio = "exploredb_slo_" + name + "_within_budget_ratio";
    cs.within_ratio = Metrics().GetGauge(
        ratio, "Fraction of class " + name +
                   " queries within budget over the last minute");
    Metrics().SetScale(ratio, 1e-6);
    const std::string burn = "exploredb_slo_" + name + "_burn_rate";
    cs.burn_rate = Metrics().GetGauge(
        burn, "Error-budget burn rate of class " + name +
                  " over the last minute (1.0 = on target)");
    Metrics().SetScale(burn, 1e-6);
    const std::string p95 = "exploredb_slo_" + name + "_p95_latency_seconds";
    cs.p95 = Metrics().GetGauge(
        p95, "Windowed p95 latency of class " + name + " queries");
    Metrics().SetScale(p95, 1e-9);
    const std::string p99 = "exploredb_slo_" + name + "_p99_latency_seconds";
    cs.p99 = Metrics().GetGauge(
        p99, "Windowed p99 latency of class " + name + " queries");
    Metrics().SetScale(p99, 1e-9);
  }
}

SloMonitor& SloMonitor::Global() {
  static SloMonitor* monitor = new SloMonitor();  // leaked: used at exit
  return *monitor;
}

QueryClass SloMonitor::Classify(ExecutionMode requested_mode, bool analytic) {
  if (requested_mode == ExecutionMode::kBudgeted) return QueryClass::kBudgeted;
  if (analytic && (requested_mode == ExecutionMode::kScan ||
                   requested_mode == ExecutionMode::kCracking ||
                   requested_mode == ExecutionMode::kFullIndex ||
                   requested_mode == ExecutionMode::kAuto)) {
    return QueryClass::kBatch;
  }
  return QueryClass::kInteractive;
}

int64_t SloMonitor::ClassBudget(QueryClass c) {
  switch (c) {
    case QueryClass::kInteractive:
      return kDefaultInteractiveBudgetNs;
    case QueryClass::kBudgeted:
      return kDefaultBudgetedFallbackNs;
    case QueryClass::kBatch:
      break;
  }
  return kDefaultBatchBudgetNs;
}

void SloMonitor::Observe(QueryClass c, int64_t latency_ns, int64_t budget_ns,
                         bool approximate, double achieved_error) {
  ClassState& cs = classes_[static_cast<size_t>(c)];
  const int64_t effective_budget = budget_ns > 0 ? budget_ns : ClassBudget(c);
  const bool within = latency_ns <= effective_budget;

  const int64_t now_s = NowSeconds();
  Slot& slot = cs.slots[static_cast<uint64_t>(now_s) % kWindowSlots];
  int64_t epoch = slot.epoch_s.load(std::memory_order_acquire);
  if (epoch != now_s) {
    // First writer of a new second recycles the slot. Observations racing
    // the reset may land in a half-cleared slot; the window is a monitor,
    // not an audit, and tolerates that.
    if (slot.epoch_s.compare_exchange_strong(epoch, now_s,
                                             std::memory_order_acq_rel)) {
      slot.total.store(0, std::memory_order_relaxed);
      slot.within.store(0, std::memory_order_relaxed);
      slot.approximate.store(0, std::memory_order_relaxed);
      slot.err_micros.store(0, std::memory_order_relaxed);
      for (auto& b : slot.latency) b.store(0, std::memory_order_relaxed);
    }
  }
  slot.total.fetch_add(1, std::memory_order_relaxed);
  if (within) slot.within.fetch_add(1, std::memory_order_relaxed);
  if (approximate) {
    slot.approximate.fetch_add(1, std::memory_order_relaxed);
    // Near-zero estimates can report enormous (or infinite) relative errors;
    // clamp so the fixed-point sum stays representable. NaN records as 0.
    const double err =
        achieved_error > 0 ? std::min(achieved_error, kMaxRecordedError) : 0.0;
    slot.err_micros.fetch_add(static_cast<int64_t>(err * 1e6),
                              std::memory_order_relaxed);
  }
  size_t b = 0;
  while (b < bounds_.size() && latency_ns > bounds_[b]) ++b;
  slot.latency[b].fetch_add(1, std::memory_order_relaxed);

  cs.queries_total->Add();
  cs.latency_hist->Record(latency_ns);
  if (!within) {
    cs.budget_missed_total->Add();
    if (WorkloadJournal::enabled()) {
      JsonWriter w;
      w.BeginObject().Key("type").String("slo_breach");
      w.Key("class").String(QueryClassName(c));
      w.Key("latency_ns").Int(latency_ns);
      w.Key("budget_ns").Int(effective_budget).EndObject();
      WorkloadJournal::Global().AppendEventLine(w.Take());
    }
  }
}

SloSnapshot SloMonitor::Snapshot(uint64_t window_seconds) const {
  window_seconds = std::clamp<uint64_t>(window_seconds, 1, kWindowSlots - 1);
  SloSnapshot snap;
  snap.window_seconds = window_seconds;
  snap.slo_target = kSloTarget;
  const int64_t now_s = NowSeconds();
  const int64_t oldest = now_s - static_cast<int64_t>(window_seconds) + 1;
  for (size_t i = 0; i < kQueryClassCount; ++i) {
    const ClassState& cs = classes_[i];
    SloClassSnapshot& out = snap.classes[i];
    out.default_budget_ns = ClassBudget(static_cast<QueryClass>(i));
    std::array<uint64_t, kLatencyBuckets> lat{};
    int64_t err_micros = 0;
    for (const Slot& slot : cs.slots) {
      const int64_t epoch = slot.epoch_s.load(std::memory_order_acquire);
      if (epoch < oldest || epoch > now_s) continue;
      out.total += slot.total.load(std::memory_order_relaxed);
      out.within += slot.within.load(std::memory_order_relaxed);
      out.approximate += slot.approximate.load(std::memory_order_relaxed);
      err_micros += slot.err_micros.load(std::memory_order_relaxed);
      for (size_t b = 0; b < kLatencyBuckets; ++b) {
        lat[b] += slot.latency[b].load(std::memory_order_relaxed);
      }
    }
    if (out.total > 0) {
      out.within_fraction = static_cast<double>(out.within) /
                            static_cast<double>(out.total);
      const double miss_fraction = 1.0 - out.within_fraction;
      out.burn_rate = miss_fraction / (1.0 - kSloTarget);
      if (out.approximate > 0) {
        out.mean_achieved_error =
            static_cast<double>(err_micros) / 1e6 /
            static_cast<double>(out.approximate);
      }
      out.p95_latency_ns = BucketQuantile(bounds_, lat, out.total, 0.95);
      out.p99_latency_ns = BucketQuantile(bounds_, lat, out.total, 0.99);
    }
  }
  return snap;
}

void SloMonitor::UpdateGauges() const {
  const SloSnapshot snap = Snapshot(60);
  for (size_t i = 0; i < kQueryClassCount; ++i) {
    const ClassState& cs = classes_[i];
    const SloClassSnapshot& c = snap.classes[i];
    cs.within_ratio->Set(static_cast<int64_t>(c.within_fraction * 1e6));
    cs.burn_rate->Set(static_cast<int64_t>(c.burn_rate * 1e6));
    cs.p95->Set(static_cast<int64_t>(c.p95_latency_ns));
    cs.p99->Set(static_cast<int64_t>(c.p99_latency_ns));
  }
}

std::string SloMonitor::JsonReport(uint64_t window_seconds) const {
  const SloSnapshot snap = Snapshot(window_seconds);
  JsonWriter w;
  w.BeginObject().Key("window_seconds").Uint(snap.window_seconds);
  w.Key("slo_target").Double(snap.slo_target).Key("classes").BeginObject();
  for (size_t i = 0; i < kQueryClassCount; ++i) {
    const SloClassSnapshot& c = snap.classes[i];
    w.Key(QueryClassName(static_cast<QueryClass>(i))).BeginObject();
    w.Key("total").Uint(c.total).Key("within_budget").Uint(c.within);
    w.Key("approximate").Uint(c.approximate);
    w.Key("within_fraction").Double(c.within_fraction);
    w.Key("burn_rate").Double(c.burn_rate);
    w.Key("mean_achieved_error").Double(c.mean_achieved_error);
    w.Key("p95_latency_ms").Double(c.p95_latency_ns / 1e6);
    w.Key("p99_latency_ms").Double(c.p99_latency_ns / 1e6);
    w.Key("default_budget_ms")
        .Double(static_cast<double>(c.default_budget_ns) / 1e6);
    w.EndObject();
  }
  w.EndObject().EndObject();
  return w.Take();
}

void SloMonitor::ResetForTest() {
  for (ClassState& cs : classes_) {
    for (Slot& slot : cs.slots) {
      slot.epoch_s.store(-1, std::memory_order_relaxed);
      slot.total.store(0, std::memory_order_relaxed);
      slot.within.store(0, std::memory_order_relaxed);
      slot.approximate.store(0, std::memory_order_relaxed);
      slot.err_micros.store(0, std::memory_order_relaxed);
      for (auto& b : slot.latency) b.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace exploredb
