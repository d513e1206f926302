#include "obs/journal.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/json.h"
#include "common/metrics.h"

namespace exploredb {

namespace {

Counter* DroppedCounter() {
  static Counter* c = Metrics().GetCounter(
      "exploredb_journal_dropped_total",
      "Journal records dropped against full per-thread rings");
  return c;
}

Counter* AppendedCounter() {
  static Counter* c = Metrics().GetCounter(
      "exploredb_journal_appended_total",
      "Journal records accepted into per-thread rings");
  return c;
}

// ---------------------------------------------------------------------------
// Enum <-> token tables. The journal keeps its own bidirectional tables (the
// *Name() helpers elsewhere are one-way and live in other libraries); tokens
// are part of the on-disk format and must stay stable.
// ---------------------------------------------------------------------------

struct EnumToken {
  int value;
  const char* token;
};

constexpr EnumToken kModeTokens[] = {
    {static_cast<int>(ExecutionMode::kScan), "scan"},
    {static_cast<int>(ExecutionMode::kCracking), "cracking"},
    {static_cast<int>(ExecutionMode::kFullIndex), "full_index"},
    {static_cast<int>(ExecutionMode::kSampled), "sampled"},
    {static_cast<int>(ExecutionMode::kOnline), "online"},
    {static_cast<int>(ExecutionMode::kAuto), "auto"},
    {static_cast<int>(ExecutionMode::kBudgeted), "budgeted"},
};

constexpr EnumToken kOpTokens[] = {
    {static_cast<int>(CompareOp::kLt), "lt"},
    {static_cast<int>(CompareOp::kLe), "le"},
    {static_cast<int>(CompareOp::kGt), "gt"},
    {static_cast<int>(CompareOp::kGe), "ge"},
    {static_cast<int>(CompareOp::kEq), "eq"},
    {static_cast<int>(CompareOp::kNe), "ne"},
};

constexpr EnumToken kAggTokens[] = {
    {static_cast<int>(AggKind::kAvg), "avg"},
    {static_cast<int>(AggKind::kSum), "sum"},
    {static_cast<int>(AggKind::kCount), "count"},
};

constexpr EnumToken kPathTokens[] = {
    {static_cast<int>(AccessPath::kNone), "none"},
    {static_cast<int>(AccessPath::kScan), "scan"},
    {static_cast<int>(AccessPath::kCracker), "cracker"},
    {static_cast<int>(AccessPath::kSorted), "sorted"},
    {static_cast<int>(AccessPath::kSample), "sample"},
    {static_cast<int>(AccessPath::kOnline), "online"},
    {static_cast<int>(AccessPath::kCache), "cache"},
    {static_cast<int>(AccessPath::kFocus), "focus"},
};

constexpr EnumToken kPlannerTokens[] = {
    {static_cast<int>(PlannerChoice::kNone), "none"},
    {static_cast<int>(PlannerChoice::kCache), "cache"},
    {static_cast<int>(PlannerChoice::kExact), "exact"},
    {static_cast<int>(PlannerChoice::kSample), "sample"},
    {static_cast<int>(PlannerChoice::kOnline), "online"},
};

constexpr EnumToken kSimdTokens[] = {
    {static_cast<int>(simd::SimdPath::kScalar), "scalar"},
    {static_cast<int>(simd::SimdPath::kSse42), "sse42"},
    {static_cast<int>(simd::SimdPath::kAvx2), "avx2"},
};

template <typename E, size_t N>
const char* TokenFor(const EnumToken (&table)[N], E value) {
  for (const EnumToken& t : table) {
    if (t.value == static_cast<int>(value)) return t.token;
  }
  return table[0].token;
}

/// Reads member `key` of `obj` as a token of `table` into `out`; an
/// unknown token is an error and leaves `out` as it was.
template <typename E, size_t N>
Status ReadToken(const JsonValue& obj, const char* key,
                 const EnumToken (&table)[N], E* out) {
  const std::string token = obj.Get<std::string>(key);
  for (const EnumToken& t : table) {
    if (token == t.token) {
      *out = static_cast<E>(t.value);
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown " + std::string(key) + " token '" +
                                 token + "'");
}

// Numeric fields in key order, so ToJsonLine and FromJsonLine name each key
// once. The approximate-mode knobs are written only when set.
constexpr std::pair<const char*, double JournalRecord::*> kKnobFields[] = {
    {"sample_fraction", &JournalRecord::sample_fraction},
    {"error_budget", &JournalRecord::error_budget},
    {"confidence", &JournalRecord::confidence},
};

constexpr std::pair<const char*, uint64_t ExecStats::*> kCounterFields[] = {
    {"rows_scanned", &ExecStats::rows_scanned},
    {"morsels", &ExecStats::morsels_dispatched},
    {"pruned", &ExecStats::morsels_pruned},
    {"compressed", &ExecStats::compressed_morsels},
};

constexpr std::pair<const char*, int64_t ExecStats::*> kPhaseFields[] = {
    {"plan_ns", &ExecStats::plan_nanos},
    {"select_ns", &ExecStats::select_nanos},
    {"agg_ns", &ExecStats::aggregate_nanos},
    {"project_ns", &ExecStats::project_nanos},
    {"decompress_ns", &ExecStats::decompress_nanos},
    {"total_ns", &ExecStats::total_nanos},
};

Result<JournalRecord> RecordFromJson(const JsonValue& doc) {
  if (doc.Get<std::string>("type") != "q") {
    return Status::InvalidArgument("not a journal query record");
  }
  JournalRecord r;
  r.session_id = doc.Get<uint64_t>("sid");
  r.session_seq = doc.Get<uint64_t>("seq");
  r.global_seq = doc.Get<uint64_t>("gseq");
  r.wall_time_us = doc.Get<int64_t>("wall_us");
  r.think_ns = doc.Get<int64_t>("think_ns", -1);
  r.tenant = doc.Get<std::string>("tenant");

  Query q = Query::On(doc.Get<std::string>("table"));
  if (const JsonValue* where = doc.Find("where")) {
    std::vector<Condition> conds;
    for (const JsonValue& c : where->items()) {
      Condition cond;
      cond.column = static_cast<size_t>(c.Get<uint64_t>("col"));
      EXPLOREDB_RETURN_NOT_OK(ReadToken(c, "op", kOpTokens, &cond.op));
      if (const JsonValue* i = c.Find("i")) {
        cond.constant = Value(i->As<int64_t>());
      } else if (const JsonValue* d = c.Find("d")) {
        cond.constant = Value(d->As<double>());
      } else if (const JsonValue* str = c.Find("s")) {
        cond.constant = Value(str->As<std::string>());
      } else {
        return Status::InvalidArgument("condition without a value tag");
      }
      conds.push_back(std::move(cond));
    }
    q.Where(Predicate(std::move(conds)));
  }
  if (const JsonValue* select = doc.Find("select")) {
    std::vector<std::string> cols;
    for (const JsonValue& col : select->items()) {
      cols.push_back(col.As<std::string>());
    }
    q.Select(std::move(cols));
  }
  if (const JsonValue* agg = doc.Find("agg")) {
    AggKind kind = AggKind::kCount;
    EXPLOREDB_RETURN_NOT_OK(ReadToken(*agg, "kind", kAggTokens, &kind));
    q.Aggregate(kind, agg->Get<std::string>("col"));
  }
  if (doc.Find("by") != nullptr) q.GroupBy(doc.Get<std::string>("by"));
  r.query = std::move(q);
  r.query_text = doc.Get<std::string>("text");

  EXPLOREDB_RETURN_NOT_OK(
      ReadToken(doc, "req_mode", kModeTokens, &r.requested_mode));
  EXPLOREDB_RETURN_NOT_OK(
      ReadToken(doc, "mode", kModeTokens, &r.resolved_mode));
  r.from_cache = doc.Get<bool>("cache");
  r.approximate = doc.Get<bool>("approx");
  r.budget_ns = doc.Get<int64_t>("budget_ns");
  r.target_error = doc.Get<double>("target_error");
  for (const auto& [key, member] : kKnobFields) {
    r.*member = doc.Get<double>(key);
  }

  r.result_fingerprint =
      std::strtoull(doc.Get<std::string>("fp").c_str(), nullptr, 16);
  r.result_rows = doc.Get<uint64_t>("rows");
  if (const JsonValue* v = doc.Find("scalar")) r.scalar = v->As<double>();

  if (const JsonValue* stats = doc.Find("stats")) {
    // The stats tokens are informational: an unknown one keeps the default.
    ExecStats& s = r.stats;
    ReadToken(*stats, "path", kPathTokens, &s.path).IgnoreError();
    for (const auto& [key, member] : kCounterFields) {
      s.*member = stats->Get<uint64_t>(key);
    }
    s.threads_used = static_cast<uint32_t>(stats->Get<uint64_t>("threads", 1));
    s.resolved_mode = r.resolved_mode;
    ReadToken(*stats, "planner", kPlannerTokens, &s.planner_choice)
        .IgnoreError();
    s.plans_considered = static_cast<uint32_t>(stats->Get<uint64_t>("plans"));
    s.promised_error = stats->Get<double>("promised");
    s.achieved_error = stats->Get<double>("achieved");
    ReadToken(*stats, "simd", kSimdTokens, &s.simd_path).IgnoreError();
    for (const auto& [key, member] : kPhaseFields) {
      s.*member = stats->Get<int64_t>(key);
    }
    s.queue_nanos = stats->Get<int64_t>("queue_ns");
    s.abandoned_nanos = stats->Get<int64_t>("abandoned_ns");
    s.predicted_nanos = stats->Get<int64_t>("predicted_ns");
  }
  return r;
}

/// Adds one parsed journal line to `file`. Other line types (slo_breach,
/// future events) are skipped.
Status ReadLine(const std::string& line, JournalFile* file) {
  EXPLOREDB_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(line));
  const std::string type = doc.Get<std::string>("type");
  if (type == "header") {
    file->header = JournalHeader{doc.Get<std::string>("dataset"),
                                 doc.Get<int64_t>("rows"),
                                 doc.Get<uint64_t>("seed")};
  } else if (type == "q") {
    EXPLOREDB_ASSIGN_OR_RETURN(JournalRecord record, RecordFromJson(doc));
    file->records.push_back(std::move(record));
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Result fingerprint.
// ---------------------------------------------------------------------------

namespace {

uint64_t Fnv1a(const void* data, size_t n, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t MixDouble(double v, uint64_t h) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return Fnv1a(&bits, sizeof(bits), h);
}

}  // namespace

uint64_t QueryResultFingerprint(const QueryResult& result) {
  uint64_t h = 14695981039346656037ULL;
  if (!result.positions.empty()) {
    h = Fnv1a(result.positions.data(),
              result.positions.size() * sizeof(uint32_t), h);
  }
  if (result.scalar.has_value()) {
    h = MixDouble(result.scalar->value, h);
    h = MixDouble(result.scalar->ci_half_width, h);
  }
  for (const GroupValue& g : result.groups) {
    h = Fnv1a(g.key.data(), g.key.size(), h);
    h = MixDouble(g.value.value, h);
  }
  return h;
}

// ---------------------------------------------------------------------------
// Serialization.
// ---------------------------------------------------------------------------

std::string WorkloadJournal::ToJsonLine(const JournalRecord& r) {
  JsonWriter w;
  w.BeginObject().Key("type").String("q");
  w.Key("sid").Uint(r.session_id).Key("seq").Uint(r.session_seq);
  w.Key("gseq").Uint(r.global_seq).Key("wall_us").Int(r.wall_time_us);
  w.Key("think_ns").Int(r.think_ns);
  if (!r.tenant.empty()) w.Key("tenant").String(r.tenant);

  w.Key("table").String(r.query.table()).Key("where").BeginArray();
  for (const Condition& c : r.query.where().conjuncts()) {
    w.BeginObject().Key("col").Uint(c.column);
    w.Key("op").String(TokenFor(kOpTokens, c.op));
    // The tag keeps the constant's physical type across the round trip (a
    // replayed int64 constant must compare as int64).
    if (c.constant.is_int64()) {
      w.Key("i").Int(c.constant.int64());
    } else if (c.constant.is_double()) {
      w.Key("d").Double(c.constant.dbl());
    } else {
      w.Key("s").String(c.constant.str());
    }
    w.EndObject();
  }
  w.EndArray();
  if (!r.query.select().empty()) {
    w.Key("select").BeginArray();
    for (const std::string& col : r.query.select()) w.String(col);
    w.EndArray();
  }
  if (const auto& agg = r.query.aggregate()) {
    w.Key("agg").BeginObject();
    w.Key("kind").String(TokenFor(kAggTokens, agg->kind));
    w.Key("col").String(agg->column).EndObject();
  }
  if (r.query.group_by().has_value()) w.Key("by").String(*r.query.group_by());
  w.Key("text").String(r.query_text);

  w.Key("req_mode").String(TokenFor(kModeTokens, r.requested_mode));
  w.Key("mode").String(TokenFor(kModeTokens, r.resolved_mode));
  w.Key("cache").Bool(r.from_cache).Key("approx").Bool(r.approximate);
  if (r.budget_ns != 0) {
    w.Key("budget_ns").Int(r.budget_ns);
    w.Key("target_error").Double(r.target_error);
  }
  for (const auto& [key, member] : kKnobFields) {
    if (r.*member != 0.0) w.Key(key).Double(r.*member);
  }

  std::string fp(16, '0');  // 16 zero-padded hex digits
  for (uint64_t v = r.result_fingerprint, i = 16; v != 0; v >>= 4) {
    fp[--i] = "0123456789abcdef"[v & 0xf];
  }
  w.Key("fp").String(fp).Key("rows").Uint(r.result_rows);
  if (r.scalar.has_value()) w.Key("scalar").Double(*r.scalar);

  const ExecStats& s = r.stats;
  w.Key("stats").BeginObject();
  w.Key("path").String(TokenFor(kPathTokens, s.path));
  for (const auto& [key, member] : kCounterFields) w.Key(key).Uint(s.*member);
  w.Key("threads").Uint(s.threads_used);
  w.Key("planner").String(TokenFor(kPlannerTokens, s.planner_choice));
  w.Key("plans").Uint(s.plans_considered);
  w.Key("promised").Double(s.promised_error);
  w.Key("achieved").Double(s.achieved_error);
  w.Key("simd").String(TokenFor(kSimdTokens, s.simd_path));
  for (const auto& [key, member] : kPhaseFields) w.Key(key).Int(s.*member);
  if (s.queue_nanos != 0) w.Key("queue_ns").Int(s.queue_nanos);
  if (s.abandoned_nanos != 0) w.Key("abandoned_ns").Int(s.abandoned_nanos);
  if (s.predicted_nanos != 0) w.Key("predicted_ns").Int(s.predicted_nanos);
  w.EndObject().EndObject();
  return w.Take();
}

Result<JournalRecord> WorkloadJournal::FromJsonLine(const std::string& line) {
  EXPLOREDB_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(line));
  return RecordFromJson(doc);
}

std::string WorkloadJournal::HeaderJsonLine(const JournalHeader& header) {
  JsonWriter w;
  w.BeginObject().Key("type").String("header");
  w.Key("dataset").String(header.dataset).Key("rows").Int(header.rows);
  w.Key("seed").Uint(header.seed).EndObject();
  return w.Take();
}

Result<JournalFile> WorkloadJournal::ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IOError("cannot open journal file: " + path);
  }
  JournalFile file;
  std::string line;
  for (size_t line_no = 1; std::getline(in, line); ++line_no) {
    if (line.empty()) continue;
    if (Status s = ReadLine(line, &file); !s.ok()) {
      return Status::InvalidArgument(
          "journal line " + std::to_string(line_no) + ": " + s.message());
    }
  }
  return file;
}

// ---------------------------------------------------------------------------
// Rings + writer thread.
// ---------------------------------------------------------------------------

struct WorkloadJournal::Item {
  uint64_t seq = 0;
  bool is_event = false;
  JournalRecord record;
  std::string line;  ///< pre-rendered (events only)
};

struct WorkloadJournal::ThreadRing {
  Mutex mu;
  std::vector<Item> items GUARDED_BY(mu);
  ThreadRing() { items.reserve(WorkloadJournal::kRingCapacity); }
};

std::atomic<bool> WorkloadJournal::enabled_{false};

WorkloadJournal& WorkloadJournal::Global() {
  // Leaked singleton: sessions may journal during static destruction.
  static WorkloadJournal* journal = new WorkloadJournal();
  return *journal;
}

WorkloadJournal::ThreadRing* WorkloadJournal::LocalRing() {
  thread_local ThreadRing* ring = [this] {
    auto owned = std::make_unique<ThreadRing>();
    ThreadRing* raw = owned.get();
    MutexLock lock(mu_);
    rings_.push_back(std::move(owned));
    return raw;
  }();
  return ring;
}

void WorkloadJournal::Append(JournalRecord record) {
  if (!enabled()) return;
  record.global_seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  Push(Item{record.global_seq, false, std::move(record), {}});
}

void WorkloadJournal::AppendEventLine(std::string json_line) {
  if (!enabled()) return;
  Push(Item{next_seq_.fetch_add(1, std::memory_order_relaxed), true, {},
            std::move(json_line)});
}

void WorkloadJournal::Push(Item item) {
  ThreadRing* ring = LocalRing();
  {
    MutexLock lock(ring->mu);
    if (ring->items.size() >= kRingCapacity) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      DroppedCounter()->Add();
      return;
    }
    ring->items.push_back(std::move(item));
  }
  appended_.fetch_add(1, std::memory_order_relaxed);
  AppendedCounter()->Add();
}

void WorkloadJournal::DrainOnce() {
  std::vector<ThreadRing*> rings;
  {
    MutexLock lock(mu_);
    rings.reserve(rings_.size());
    for (const auto& r : rings_) rings.push_back(r.get());
  }
  std::vector<Item> batch;
  for (ThreadRing* ring : rings) {
    MutexLock lock(ring->mu);
    for (Item& item : ring->items) batch.push_back(std::move(item));
    ring->items.clear();  // keeps the preallocated capacity
  }
  if (batch.empty()) return;
  std::sort(batch.begin(), batch.end(),
            [](const Item& a, const Item& b) { return a.seq < b.seq; });
  std::vector<std::string> lines;
  lines.reserve(batch.size());
  for (Item& item : batch) {
    lines.push_back(item.is_event ? std::move(item.line)
                                  : ToJsonLine(item.record));
  }
  MutexLock lock(mu_);
  for (std::string& line : lines) {
    if (file_ != nullptr) {
      std::fwrite(line.data(), 1, line.size(), file_);
      std::fputc('\n', file_);
    }
    tail_.push_back(std::move(line));
  }
  while (tail_.size() > kTailCapacity) tail_.pop_front();
  if (file_ != nullptr) std::fflush(file_);
}

void WorkloadJournal::WriterLoop() {
  constexpr auto kDrainInterval = std::chrono::milliseconds(5);
  for (;;) {
    uint64_t flush_target = 0;
    {
      MutexLock lock(mu_);
      if (!running_) return;
      if (paused_) {
        cv_.WaitFor(mu_, kDrainInterval);
        continue;
      }
      flush_target = flush_requests_;
    }
    DrainOnce();
    {
      MutexLock lock(mu_);
      if (flushes_done_ < flush_target) {
        flushes_done_ = flush_target;
        cv_.NotifyAll();
      }
      if (!running_) return;
      if (!paused_ && flush_requests_ == flushes_done_) {
        cv_.WaitFor(mu_, kDrainInterval);
      }
    }
  }
}

void WorkloadJournal::DiscardPendingLocked() {
  // Records appended in the brief Append/Disable race window stay in their
  // rings after Disable's final drain; without this they would leak into the
  // next enablement's journal with stale seq/session context.
  for (const auto& ring : rings_) {
    MutexLock lock(ring->mu);
    ring->items.clear();
  }
}

void WorkloadJournal::StartWriterLocked() {
  running_ = true;
  paused_ = false;
  writer_ = std::thread([this] { WriterLoop(); });
}

Status WorkloadJournal::EnableFile(
    const std::string& path, const std::optional<JournalHeader>& header) {
  Disable();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open journal file for writing: " + path);
  }
  if (header.has_value()) {
    const std::string line = HeaderJsonLine(*header);
    std::fwrite(line.data(), 1, line.size(), f);
    std::fputc('\n', f);
  }
  MutexLock lock(mu_);
  DiscardPendingLocked();
  file_ = f;
  tail_.clear();
  StartWriterLocked();
  enabled_.store(true, std::memory_order_relaxed);
  return Status::OK();
}

void WorkloadJournal::EnableMemory() {
  {
    MutexLock lock(mu_);
    if (running_) return;  // already enabled (file or memory)
    DiscardPendingLocked();
    tail_.clear();
    StartWriterLocked();
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void WorkloadJournal::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
  bool join = false;
  {
    MutexLock lock(mu_);
    if (running_) {
      running_ = false;
      paused_ = false;
      join = true;
      cv_.NotifyAll();
    }
  }
  if (join && writer_.joinable()) writer_.join();
  DrainOnce();  // stragglers appended while shutting down
  MutexLock lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

void WorkloadJournal::Flush() {
  {
    MutexLock lock(mu_);
    if (running_) {
      const uint64_t target = ++flush_requests_;
      cv_.NotifyAll();
      while (running_ && flushes_done_ < target) cv_.Wait(mu_);
      if (flushes_done_ >= target) return;
      // The writer stopped mid-wait (concurrent Disable); fall through.
    }
  }
  DrainOnce();  // no writer thread: drain inline
}

std::vector<std::string> WorkloadJournal::Tail(size_t max_lines) const {
  MutexLock lock(mu_);
  const size_t n = std::min(max_lines, tail_.size());
  return {tail_.end() - static_cast<ptrdiff_t>(n), tail_.end()};
}

void WorkloadJournal::SetWriterPausedForTest(bool paused) {
  MutexLock lock(mu_);
  paused_ = paused;
  cv_.NotifyAll();
}

// ---------------------------------------------------------------------------
// Session emission hook + env enablement.
// ---------------------------------------------------------------------------

void JournalQueryExecution(const JournalQueryInfo& info) {
  if (!WorkloadJournal::enabled()) return;
  JournalRecord rec;
  rec.session_id = info.session_id;
  rec.session_seq = info.session_seq;
  rec.think_ns = info.think_ns;
  rec.wall_time_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  rec.query = *info.query;
  rec.requested_mode = info.requested_mode;
  rec.resolved_mode = info.result->exec_stats.resolved_mode;
  rec.from_cache = info.result->from_cache;
  rec.approximate = info.result->approximate;
  rec.budget_ns = info.budget_ns;
  rec.target_error = info.target_error;
  rec.sample_fraction = info.sample_fraction;
  rec.error_budget = info.error_budget;
  rec.confidence = info.confidence;
  rec.stats = info.result->exec_stats;
  rec.result_fingerprint = QueryResultFingerprint(*info.result);
  rec.result_rows = info.result->groups.empty()
                        ? info.result->positions.size()
                        : info.result->groups.size();
  if (info.result->scalar.has_value()) {
    rec.scalar = info.result->scalar->value;
  }
  if (info.query_text != nullptr) rec.query_text = *info.query_text;
  if (info.tenant != nullptr) rec.tenant = *info.tenant;
  WorkloadJournal::Global().Append(std::move(rec));
}

namespace {

// EXPLOREDB_JOURNAL=<path> enables file journaling at startup (this TU is
// always linked: the Session emission hook references it).
const bool g_journal_env_init = [] {
  const char* path = std::getenv("EXPLOREDB_JOURNAL");
  if (path != nullptr && path[0] != '\0') {
    Status s = WorkloadJournal::Global().EnableFile(path);
    if (!s.ok()) {
      std::fprintf(stderr, "EXPLOREDB_JOURNAL: %s\n", s.ToString().c_str());
    }
  }
  return true;
}();

}  // namespace

}  // namespace exploredb
