#include "common/metrics.h"

#include <cstdio>

#include "common/check.h"

namespace exploredb {

size_t Counter::ShardIndex() {
  static std::atomic<size_t> next{0};
  thread_local const size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return index;
}

Histogram::Histogram(std::vector<int64_t> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    CHECK_LT(bounds_[i - 1], bounds_[i]);
  }
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const Cell& c : buckets_) {
    total += c.value.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> counts;
  counts.reserve(buckets_.size());
  for (const Cell& c : buckets_) {
    counts.push_back(c.value.load(std::memory_order_relaxed));
  }
  return counts;
}

double Histogram::Quantile(double q) const {
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  const std::vector<uint64_t> counts = BucketCounts();
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;

  // Rank of the target observation (1-based), then the bucket containing it.
  const double rank = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const uint64_t before = cumulative;
    cumulative += counts[b];
    if (static_cast<double>(cumulative) < rank) continue;

    // Interpolate within [lower, upper] of this bucket. The overflow bucket
    // has no upper bound; report its lower bound (a conservative estimate).
    const double lower =
        b == 0 ? 0.0 : static_cast<double>(bounds_[b - 1]);
    if (b == bounds_.size()) return lower;
    const double upper = static_cast<double>(bounds_[b]);
    const double into =
        (rank - static_cast<double>(before)) / static_cast<double>(counts[b]);
    return lower + (upper - lower) * into;
  }
  // q == 1 with rounding: the last non-empty bucket's bound.
  for (size_t b = counts.size(); b-- > 0;) {
    if (counts[b] == 0) continue;
    return b == bounds_.size() ? static_cast<double>(bounds_.back())
                               : static_cast<double>(bounds_[b]);
  }
  return 0.0;
}

void Histogram::ResetForTest() {
  for (Cell& c : buckets_) c.value.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

std::vector<int64_t> Histogram::LatencyBoundsNanos() {
  // 1us, 4us, 16us, ... x4 up to ~17s: 13 buckets covering everything from a
  // cache-hit lookup to a pathological full scan.
  std::vector<int64_t> bounds;
  for (int64_t b = 1'000; b <= 17'179'869'184; b *= 4) bounds.push_back(b);
  return bounds;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  MutexLock lock(mu_);
  Entry& e = metrics_[name];
  if (e.counter == nullptr) {
    CHECK(e.gauge == nullptr && e.histogram == nullptr);
    e.counter = std::make_unique<Counter>();
    e.help = help;
  }
  return e.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  MutexLock lock(mu_);
  Entry& e = metrics_[name];
  if (e.gauge == nullptr) {
    CHECK(e.counter == nullptr && e.histogram == nullptr);
    e.gauge = std::make_unique<Gauge>();
    e.help = help;
  }
  return e.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<int64_t> bounds,
                                         const std::string& help) {
  MutexLock lock(mu_);
  Entry& e = metrics_[name];
  if (e.histogram == nullptr) {
    CHECK(e.counter == nullptr && e.gauge == nullptr);
    if (bounds.empty()) bounds = Histogram::LatencyBoundsNanos();
    e.histogram = std::make_unique<Histogram>(std::move(bounds));
    e.help = help;
  }
  return e.histogram.get();
}

void MetricsRegistry::SetScale(const std::string& name, double scale) {
  MutexLock lock(mu_);
  auto it = metrics_.find(name);
  if (it != metrics_.end()) it->second.scale = scale;
}

namespace {

// `name` decomposed into its base metric name and (possibly empty) label
// pairs — `exploredb_x_total{tenant="a"}` -> ("exploredb_x_total",
// `tenant="a"`). Plain names pass through with empty labels.
void SplitLabeledName(const std::string& name, std::string* base,
                      std::string* labels) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') {
    *base = name;
    labels->clear();
    return;
  }
  *base = name.substr(0, brace);
  *labels = name.substr(brace + 1, name.size() - brace - 2);
}

// Sample name for a plain series or one suffixed series of a histogram:
// base [+ suffix] [+ {labels[, extra]}].
std::string SampleName(const std::string& base, const std::string& labels,
                       const char* suffix = "", const std::string& extra = "") {
  std::string out = base;
  out += suffix;
  if (labels.empty() && extra.empty()) return out;
  out += "{";
  out += labels;
  if (!labels.empty() && !extra.empty()) out += ",";
  out += extra;
  out += "}";
  return out;
}

// Emits one metric's # TYPE line (once per base, caller-gated via
// `emit_type`) and samples, multiplying values by `scale`. scale == 1.0
// keeps the historical integer formatting (dashboards grep exact
// `le="1000"` bounds); scaled series print %g.
void EmitEntry(const std::string& base, const std::string& labels,
               bool emit_type, const Counter* counter, const Gauge* gauge,
               const Histogram* histogram, double scale, std::string* out) {
  char buf[192];
  if (counter != nullptr) {
    if (emit_type) *out += "# TYPE " + base + " counter\n";
    const std::string name = SampleName(base, labels);
    if (scale == 1.0) {
      std::snprintf(buf, sizeof(buf), "%s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(counter->Value()));
    } else {
      std::snprintf(buf, sizeof(buf), "%s %g\n", name.c_str(),
                    static_cast<double>(counter->Value()) * scale);
    }
    *out += buf;
  } else if (gauge != nullptr) {
    if (emit_type) *out += "# TYPE " + base + " gauge\n";
    const std::string name = SampleName(base, labels);
    if (scale == 1.0) {
      std::snprintf(buf, sizeof(buf), "%s %lld\n", name.c_str(),
                    static_cast<long long>(gauge->Value()));
    } else {
      std::snprintf(buf, sizeof(buf), "%s %g\n", name.c_str(),
                    static_cast<double>(gauge->Value()) * scale);
    }
    *out += buf;
  } else if (histogram != nullptr) {
    if (emit_type) *out += "# TYPE " + base + " histogram\n";
    const std::vector<uint64_t> counts = histogram->BucketCounts();
    const std::vector<int64_t>& bounds = histogram->bounds();
    uint64_t cumulative = 0;
    for (size_t b = 0; b < counts.size(); ++b) {
      cumulative += counts[b];
      std::string le;
      if (b == bounds.size()) {
        le = "le=\"+Inf\"";
      } else if (scale == 1.0) {
        std::snprintf(buf, sizeof(buf), "le=\"%lld\"",
                      static_cast<long long>(bounds[b]));
        le = buf;
      } else {
        std::snprintf(buf, sizeof(buf), "le=\"%g\"",
                      static_cast<double>(bounds[b]) * scale);
        le = buf;
      }
      std::snprintf(buf, sizeof(buf), "%s %llu\n",
                    SampleName(base, labels, "_bucket", le).c_str(),
                    static_cast<unsigned long long>(cumulative));
      *out += buf;
    }
    if (scale == 1.0) {
      std::snprintf(buf, sizeof(buf), "%s %lld\n",
                    SampleName(base, labels, "_sum").c_str(),
                    static_cast<long long>(histogram->Sum()));
    } else {
      std::snprintf(buf, sizeof(buf), "%s %g\n",
                    SampleName(base, labels, "_sum").c_str(),
                    static_cast<double>(histogram->Sum()) * scale);
    }
    *out += buf;
    std::snprintf(buf, sizeof(buf), "%s %llu\n",
                  SampleName(base, labels, "_count").c_str(),
                  static_cast<unsigned long long>(cumulative));
    *out += buf;
  }
}

}  // namespace

std::string MetricsRegistry::PrometheusText() const {
  MutexLock lock(mu_);
  std::string out;
  // Group series by base name so a labeled family (`base{tenant="a"}`,
  // `base{tenant="b"}`, possibly a plain `base`) shares one # HELP/# TYPE
  // block — required by the exposition format, which wants all samples of a
  // metric contiguous. std::map iteration keeps bases and, within a base,
  // label values in name order.
  std::map<std::string, std::vector<std::pair<std::string, const Entry*>>>
      families;
  for (const auto& [name, e] : metrics_) {
    std::string base;
    std::string labels;
    SplitLabeledName(name, &base, &labels);
    families[base].emplace_back(std::move(labels), &e);
  }
  for (const auto& [base, series] : families) {
    // First non-empty help in the family names the whole block.
    for (const auto& [labels, e] : series) {
      if (!e->help.empty()) {
        out += "# HELP " + base + " " + e->help + "\n";
        break;
      }
    }
    bool first = true;
    for (const auto& [labels, e] : series) {
      EmitEntry(base, labels, first, e->counter.get(), e->gauge.get(),
                e->histogram.get(), e->scale, &out);
      first = false;
    }
  }
  return out;
}

std::string LabeledMetricName(const std::string& base,
                              const std::string& label,
                              const std::string& value) {
  std::string escaped;
  escaped.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        escaped += "\\\\";
        break;
      case '"':
        escaped += "\\\"";
        break;
      case '\n':
        escaped += "\\n";
        break;
      default:
        escaped += c;
    }
  }
  return base + "{" + label + "=\"" + escaped + "\"}";
}

void MetricsRegistry::ResetAllForTest() {
  MutexLock lock(mu_);
  for (auto& [name, e] : metrics_) {
    if (e.counter != nullptr) e.counter->ResetForTest();
    if (e.gauge != nullptr) e.gauge->ResetForTest();
    if (e.histogram != nullptr) e.histogram->ResetForTest();
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked singleton: instrumented code may run during static destruction.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace exploredb
