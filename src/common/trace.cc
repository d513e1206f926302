#include "common/trace.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "common/annotations.h"
#include "common/json.h"
#include "common/mutex.h"

namespace exploredb {

namespace {

/// One thread's ring of completed spans. Written only by the owning thread,
/// read by Snapshot() from any thread; both sides take `mu` (spans are
/// coarse — phases and morsels — so the uncontended lock is noise).
/// Rings are owned by the global registry and survive thread exit, so pool
/// workers' events stay visible to a Snapshot taken after a query finishes.
struct ThreadRing {
  Mutex mu;
  std::array<TraceEvent, Tracer::kRingCapacity> events GUARDED_BY(mu);
  size_t size GUARDED_BY(mu) = 0;
  size_t next GUARDED_BY(mu) = 0;
  // NOLINT-exploredb(guarded-by): assigned once under the registry lock
  // before the ring is published to its owning thread; read-only after.
  uint32_t tid = 0;
};

struct RingRegistry {
  Mutex mu;
  std::vector<std::unique_ptr<ThreadRing>> rings GUARDED_BY(mu);
};

RingRegistry& Registry() {
  static RingRegistry* registry = new RingRegistry();  // leaked: see Tracer
  return *registry;
}

ThreadRing* LocalRing() {
  thread_local ThreadRing* ring = [] {
    auto owned = std::make_unique<ThreadRing>();
    ThreadRing* r = owned.get();
    RingRegistry& reg = Registry();
    MutexLock lock(reg.mu);
    r->tid = static_cast<uint32_t>(reg.rings.size());
    reg.rings.push_back(std::move(owned));
    return r;
  }();
  return ring;
}

std::chrono::steady_clock::time_point Epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

bool EnabledByEnv() {
  const char* v = std::getenv("EXPLOREDB_TRACE");
  return v != nullptr && v[0] == '1' && v[1] == '\0';
}

thread_local uint16_t tls_depth = 0;

}  // namespace

std::atomic<bool> Tracer::enabled_{EnabledByEnv()};

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Epoch())
      .count();
}

void Tracer::Record(const TraceEvent& event) {
  ThreadRing* ring = LocalRing();
  MutexLock lock(ring->mu);
  ring->events[ring->next] = event;
  ring->events[ring->next].tid = ring->tid;
  ring->next = (ring->next + 1) % kRingCapacity;
  if (ring->size < kRingCapacity) ++ring->size;
}

std::vector<TraceEvent> Tracer::Snapshot() {
  std::vector<TraceEvent> out;
  RingRegistry& reg = Registry();
  MutexLock registry_lock(reg.mu);
  for (const auto& ring : reg.rings) {
    MutexLock lock(ring->mu);
    // Oldest first: when wrapped, the oldest slot is `next`.
    const size_t start = ring->size < kRingCapacity ? 0 : ring->next;
    for (size_t i = 0; i < ring->size; ++i) {
      out.push_back(ring->events[(start + i) % kRingCapacity]);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_ns < b.start_ns;
            });
  return out;
}

std::vector<TraceEvent> Tracer::SnapshotSince(int64_t t0) {
  std::vector<TraceEvent> all = Snapshot();
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : all) {
    if (e.start_ns >= t0) out.push_back(e);
  }
  return out;
}

void Tracer::Clear() {
  RingRegistry& reg = Registry();
  MutexLock registry_lock(reg.mu);
  for (const auto& ring : reg.rings) {
    MutexLock lock(ring->mu);
    ring->size = 0;
    ring->next = 0;
  }
}

std::string Tracer::ChromeTraceJson(const std::vector<TraceEvent>& events) {
  // The trace_event "complete" ("X") format: one object per span, timestamps
  // and durations in microseconds.
  JsonWriter w;
  w.BeginObject().Key("traceEvents").BeginArray();
  for (const TraceEvent& e : events) {
    w.BeginObject().Key("name").String(e.name).Key("cat").String("exploredb");
    w.Key("ph").String("X");
    w.Key("ts").Double(static_cast<double>(e.start_ns) / 1e3);
    w.Key("dur").Double(static_cast<double>(e.dur_ns) / 1e3);
    w.Key("pid").Int(1).Key("tid").Uint(e.tid).EndObject();
  }
  w.EndArray().Key("displayTimeUnit").String("ms").EndObject();
  return w.Take() + "\n";
}

std::string Tracer::ChromeTraceJson() { return ChromeTraceJson(Snapshot()); }

Status Tracer::WriteChromeTrace(const std::string& path) {
  const std::string json = ChromeTraceJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open trace file '" + path + "'");
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != json.size() || !close_ok) {
    return Status::IOError("short write to trace file '" + path + "'");
  }
  return Status::OK();
}

TraceSpan::TraceSpan(const char* name, bool enabled, int64_t* accum)
    : name_(name), accum_(accum), armed_(enabled || accum != nullptr),
      record_(enabled) {
  if (!armed_) return;  // nothing to measure: zero cost
  if (record_) depth_ = tls_depth++;
  start_ns_ = Tracer::NowNs();
}

void TraceSpan::Stop() {
  if (!armed_) return;
  armed_ = false;
  const int64_t dur = Tracer::NowNs() - start_ns_;
  if (accum_ != nullptr) *accum_ += dur;
  if (!record_) return;
  --tls_depth;
  TraceEvent e;
  std::strncpy(e.name, name_, TraceEvent::kMaxName);
  e.start_ns = start_ns_;
  e.dur_ns = dur;
  e.depth = depth_;
  Tracer::Record(e);
}

}  // namespace exploredb
