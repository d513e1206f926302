#include "obs/journal.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <utility>

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

template <size_t N>
const char* TokenFor(const EnumToken (&table)[N], int value) {
  for (const EnumToken& t : table) {
    if (t.value == value) return t.token;
  }
  return table[0].token;
}

template <size_t N>
bool ValueFor(const EnumToken (&table)[N], const std::string& token,
              int* out) {
  for (const EnumToken& t : table) {
    if (token == t.token) {
      *out = t.value;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// JSON writing.
// ---------------------------------------------------------------------------

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendInt(int64_t v, std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  *out += buf;
}

void AppendUint(uint64_t v, std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  *out += buf;
}

void AppendDouble(double v, std::string* out) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

void AppendValue(const Value& v, std::string* out) {
  // The tag preserves the Value's physical type across the round trip (a
  // replayed int64 constant must compare as int64).
  if (v.is_int64()) {
    *out += "\"i\":";
    AppendInt(v.int64(), out);
  } else if (v.is_double()) {
    *out += "\"d\":";
    AppendDouble(v.dbl(), out);
  } else {
    *out += "\"s\":";
    AppendJsonString(v.str(), out);
  }
}

// ---------------------------------------------------------------------------
// JSON parsing: a minimal recursive-descent parser producing a small DOM.
// Numbers keep their raw text so int64 constants parse exactly (a double
// round trip would corrupt values above 2^53).
// ---------------------------------------------------------------------------

struct Json {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  std::string raw;  ///< number token text
  std::string str;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  const Json* Find(const char* key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  int64_t Int64() const { return std::strtoll(raw.c_str(), nullptr, 10); }
  uint64_t Uint64() const { return std::strtoull(raw.c_str(), nullptr, 10); }
  double Double() const { return std::strtod(raw.c_str(), nullptr); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  Result<Json> Parse() {
    EXPLOREDB_ASSIGN_OR_RETURN(Json v, ParseValue());
    SkipSpace();
    if (p_ != end_) return Status::InvalidArgument("trailing JSON content");
    return v;
  }

 private:
  void SkipSpace() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                          *p_ == '\r')) {
      ++p_;
    }
  }

  Status Expect(char c) {
    SkipSpace();
    if (p_ == end_ || *p_ != c) {
      return Status::InvalidArgument(std::string("expected '") + c +
                                     "' in JSON");
    }
    ++p_;
    return Status::OK();
  }

  Result<Json> ParseValue() {
    SkipSpace();
    if (p_ == end_) return Status::InvalidArgument("unexpected end of JSON");
    switch (*p_) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"': {
        Json v;
        v.kind = Json::kString;
        EXPLOREDB_ASSIGN_OR_RETURN(v.str, ParseString());
        return v;
      }
      case 't':
      case 'f': {
        Json v;
        v.kind = Json::kBool;
        v.boolean = *p_ == 't';
        const char* word = v.boolean ? "true" : "false";
        const size_t len = v.boolean ? 4 : 5;
        if (static_cast<size_t>(end_ - p_) < len ||
            std::strncmp(p_, word, len) != 0) {
          return Status::InvalidArgument("bad JSON literal");
        }
        p_ += len;
        return v;
      }
      case 'n': {
        if (static_cast<size_t>(end_ - p_) < 4 ||
            std::strncmp(p_, "null", 4) != 0) {
          return Status::InvalidArgument("bad JSON literal");
        }
        p_ += 4;
        return Json{};
      }
      default:
        return ParseNumber();
    }
  }

  Result<std::string> ParseString() {
    ++p_;  // opening quote
    std::string out;
    while (p_ != end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ == end_) break;
        switch (*p_) {
          case 'n':
            out.push_back('\n');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 'u': {
            if (end_ - p_ < 5) {
              return Status::InvalidArgument("bad \\u escape");
            }
            char hex[5] = {p_[1], p_[2], p_[3], p_[4], 0};
            auto code =
                static_cast<unsigned>(std::strtoul(hex, nullptr, 16));
            // The writer only emits \u00xx for control bytes.
            out.push_back(static_cast<char>(code & 0xff));
            p_ += 4;
            break;
          }
          default:
            out.push_back(*p_);
        }
        ++p_;
      } else {
        out.push_back(*p_++);
      }
    }
    if (p_ == end_) return Status::InvalidArgument("unterminated string");
    ++p_;  // closing quote
    return out;
  }

  Result<Json> ParseNumber() {
    const char* start = p_;
    while (p_ != end_ &&
           (std::isdigit(static_cast<unsigned char>(*p_)) || *p_ == '-' ||
            *p_ == '+' || *p_ == '.' || *p_ == 'e' || *p_ == 'E')) {
      ++p_;
    }
    if (p_ == start) return Status::InvalidArgument("bad JSON number");
    Json v;
    v.kind = Json::kNumber;
    v.raw.assign(start, p_);
    return v;
  }

  Result<Json> ParseArray() {
    ++p_;  // '['
    Json v;
    v.kind = Json::kArray;
    SkipSpace();
    if (p_ != end_ && *p_ == ']') {
      ++p_;
      return v;
    }
    for (;;) {
      EXPLOREDB_ASSIGN_OR_RETURN(Json item, ParseValue());
      v.items.push_back(std::move(item));
      SkipSpace();
      if (p_ != end_ && *p_ == ',') {
        ++p_;
        continue;
      }
      EXPLOREDB_RETURN_NOT_OK(Expect(']'));
      return v;
    }
  }

  Result<Json> ParseObject() {
    ++p_;  // '{'
    Json v;
    v.kind = Json::kObject;
    SkipSpace();
    if (p_ != end_ && *p_ == '}') {
      ++p_;
      return v;
    }
    for (;;) {
      SkipSpace();
      if (p_ == end_ || *p_ != '"') {
        return Status::InvalidArgument("expected object key");
      }
      EXPLOREDB_ASSIGN_OR_RETURN(std::string key, ParseString());
      EXPLOREDB_RETURN_NOT_OK(Expect(':'));
      EXPLOREDB_ASSIGN_OR_RETURN(Json value, ParseValue());
      v.fields.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (p_ != end_ && *p_ == ',') {
        ++p_;
        continue;
      }
      EXPLOREDB_RETURN_NOT_OK(Expect('}'));
      return v;
    }
  }

  const char* p_;
  const char* end_;
};

Result<Value> ParseConditionValue(const Json& cond) {
  if (const Json* i = cond.Find("i")) return Value(i->Int64());
  if (const Json* d = cond.Find("d")) return Value(d->Double());
  if (const Json* s = cond.Find("s")) return Value(s->str);
  return Status::InvalidArgument("condition without a value tag");
}

int64_t FieldInt(const Json& obj, const char* key, int64_t fallback = 0) {
  const Json* f = obj.Find(key);
  return f != nullptr && f->kind == Json::kNumber ? f->Int64() : fallback;
}

// Unsigned fields (seed, ids, sequence numbers, counts) must round-trip the
// full uint64 range: FieldInt's strtoll saturates at INT64_MAX, which would
// silently change e.g. a --seed above 2^63 on read-back and break replay.
uint64_t FieldUint(const Json& obj, const char* key, uint64_t fallback = 0) {
  const Json* f = obj.Find(key);
  return f != nullptr && f->kind == Json::kNumber ? f->Uint64() : fallback;
}

double FieldDouble(const Json& obj, const char* key, double fallback = 0.0) {
  const Json* f = obj.Find(key);
  return f != nullptr && f->kind == Json::kNumber ? f->Double() : fallback;
}

bool FieldBool(const Json& obj, const char* key, bool fallback = false) {
  const Json* f = obj.Find(key);
  return f != nullptr && f->kind == Json::kBool ? f->boolean : fallback;
}

std::string FieldString(const Json& obj, const char* key) {
  const Json* f = obj.Find(key);
  return f != nullptr && f->kind == Json::kString ? f->str : std::string();
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
  std::string out;
  out.reserve(512);
  out += "{\"type\":\"q\",\"sid\":";
  AppendUint(r.session_id, &out);
  out += ",\"seq\":";
  AppendUint(r.session_seq, &out);
  out += ",\"gseq\":";
  AppendUint(r.global_seq, &out);
  out += ",\"wall_us\":";
  AppendInt(r.wall_time_us, &out);
  out += ",\"think_ns\":";
  AppendInt(r.think_ns, &out);
  if (!r.tenant.empty()) {
    out += ",\"tenant\":";
    AppendJsonString(r.tenant, &out);
  }

  out += ",\"table\":";
  AppendJsonString(r.query.table(), &out);
  out += ",\"where\":[";
  bool first = true;
  for (const Condition& c : r.query.where().conjuncts()) {
    if (!first) out += ",";
    first = false;
    out += "{\"col\":";
    AppendUint(c.column, &out);
    out += ",\"op\":\"";
    out += TokenFor(kOpTokens, static_cast<int>(c.op));
    out += "\",";
    AppendValue(c.constant, &out);
    out += "}";
  }
  out += "]";
  if (!r.query.select().empty()) {
    out += ",\"select\":[";
    for (size_t i = 0; i < r.query.select().size(); ++i) {
      if (i > 0) out += ",";
      AppendJsonString(r.query.select()[i], &out);
    }
    out += "]";
  }
  if (r.query.aggregate().has_value()) {
    out += ",\"agg\":{\"kind\":\"";
    out += TokenFor(kAggTokens, static_cast<int>(r.query.aggregate()->kind));
    out += "\",\"col\":";
    AppendJsonString(r.query.aggregate()->column, &out);
    out += "}";
  }
  if (r.query.group_by().has_value()) {
    out += ",\"by\":";
    AppendJsonString(*r.query.group_by(), &out);
  }
  out += ",\"text\":";
  AppendJsonString(r.query_text, &out);

  out += ",\"req_mode\":\"";
  out += TokenFor(kModeTokens, static_cast<int>(r.requested_mode));
  out += "\",\"mode\":\"";
  out += TokenFor(kModeTokens, static_cast<int>(r.resolved_mode));
  out += "\",\"cache\":";
  out += r.from_cache ? "true" : "false";
  out += ",\"approx\":";
  out += r.approximate ? "true" : "false";
  if (r.budget_ns != 0) {
    out += ",\"budget_ns\":";
    AppendInt(r.budget_ns, &out);
    out += ",\"target_error\":";
    AppendDouble(r.target_error, &out);
  }
  if (r.sample_fraction != 0.0) {
    out += ",\"sample_fraction\":";
    AppendDouble(r.sample_fraction, &out);
  }
  if (r.error_budget != 0.0) {
    out += ",\"error_budget\":";
    AppendDouble(r.error_budget, &out);
  }
  if (r.confidence != 0.0) {
    out += ",\"confidence\":";
    AppendDouble(r.confidence, &out);
  }

  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, r.result_fingerprint);
  out += ",\"fp\":\"";
  out += buf;
  out += "\",\"rows\":";
  AppendUint(r.result_rows, &out);
  if (r.scalar.has_value()) {
    out += ",\"scalar\":";
    AppendDouble(*r.scalar, &out);
  }

  const ExecStats& s = r.stats;
  out += ",\"stats\":{\"path\":\"";
  out += TokenFor(kPathTokens, static_cast<int>(s.path));
  out += "\",\"rows_scanned\":";
  AppendUint(s.rows_scanned, &out);
  out += ",\"morsels\":";
  AppendUint(s.morsels_dispatched, &out);
  out += ",\"pruned\":";
  AppendUint(s.morsels_pruned, &out);
  out += ",\"compressed\":";
  AppendUint(s.compressed_morsels, &out);
  out += ",\"threads\":";
  AppendUint(s.threads_used, &out);
  out += ",\"planner\":\"";
  out += TokenFor(kPlannerTokens, static_cast<int>(s.planner_choice));
  out += "\",\"plans\":";
  AppendUint(s.plans_considered, &out);
  out += ",\"promised\":";
  AppendDouble(s.promised_error, &out);
  out += ",\"achieved\":";
  AppendDouble(s.achieved_error, &out);
  out += ",\"simd\":\"";
  out += TokenFor(kSimdTokens, static_cast<int>(s.simd_path));
  out += "\",\"plan_ns\":";
  AppendInt(s.plan_nanos, &out);
  out += ",\"select_ns\":";
  AppendInt(s.select_nanos, &out);
  out += ",\"agg_ns\":";
  AppendInt(s.aggregate_nanos, &out);
  out += ",\"project_ns\":";
  AppendInt(s.project_nanos, &out);
  out += ",\"decompress_ns\":";
  AppendInt(s.decompress_nanos, &out);
  out += ",\"total_ns\":";
  AppendInt(s.total_nanos, &out);
  if (s.queue_nanos != 0) {
    out += ",\"queue_ns\":";
    AppendInt(s.queue_nanos, &out);
  }
  out += "}}";
  return out;
}

Result<JournalRecord> WorkloadJournal::FromJsonLine(const std::string& line) {
  EXPLOREDB_ASSIGN_OR_RETURN(Json doc, JsonParser(line).Parse());
  if (doc.kind != Json::kObject || FieldString(doc, "type") != "q") {
    return Status::InvalidArgument("not a journal query record");
  }
  JournalRecord r;
  r.session_id = FieldUint(doc, "sid");
  r.session_seq = FieldUint(doc, "seq");
  r.global_seq = FieldUint(doc, "gseq");
  r.wall_time_us = FieldInt(doc, "wall_us");
  r.think_ns = FieldInt(doc, "think_ns", -1);
  r.tenant = FieldString(doc, "tenant");

  Query q = Query::On(FieldString(doc, "table"));
  if (const Json* where = doc.Find("where");
      where != nullptr && where->kind == Json::kArray) {
    std::vector<Condition> conds;
    for (const Json& c : where->items) {
      Condition cond;
      cond.column = static_cast<size_t>(FieldInt(c, "col"));
      int op = 0;
      if (!ValueFor(kOpTokens, FieldString(c, "op"), &op)) {
        return Status::InvalidArgument("unknown comparison op token");
      }
      cond.op = static_cast<CompareOp>(op);
      EXPLOREDB_ASSIGN_OR_RETURN(cond.constant, ParseConditionValue(c));
      conds.push_back(std::move(cond));
    }
    q.Where(Predicate(std::move(conds)));
  }
  if (const Json* select = doc.Find("select");
      select != nullptr && select->kind == Json::kArray) {
    std::vector<std::string> cols;
    for (const Json& s : select->items) cols.push_back(s.str);
    q.Select(std::move(cols));
  }
  if (const Json* agg = doc.Find("agg");
      agg != nullptr && agg->kind == Json::kObject) {
    int kind = 0;
    if (!ValueFor(kAggTokens, FieldString(*agg, "kind"), &kind)) {
      return Status::InvalidArgument("unknown aggregate kind token");
    }
    q.Aggregate(static_cast<AggKind>(kind), FieldString(*agg, "col"));
  }
  if (const Json* by = doc.Find("by");
      by != nullptr && by->kind == Json::kString) {
    q.GroupBy(by->str);
  }
  r.query = std::move(q);
  r.query_text = FieldString(doc, "text");

  int mode = 0;
  if (!ValueFor(kModeTokens, FieldString(doc, "req_mode"), &mode)) {
    return Status::InvalidArgument("unknown requested-mode token");
  }
  r.requested_mode = static_cast<ExecutionMode>(mode);
  if (!ValueFor(kModeTokens, FieldString(doc, "mode"), &mode)) {
    return Status::InvalidArgument("unknown resolved-mode token");
  }
  r.resolved_mode = static_cast<ExecutionMode>(mode);
  r.from_cache = FieldBool(doc, "cache");
  r.approximate = FieldBool(doc, "approx");
  r.budget_ns = FieldInt(doc, "budget_ns");
  r.target_error = FieldDouble(doc, "target_error");
  r.sample_fraction = FieldDouble(doc, "sample_fraction");
  r.error_budget = FieldDouble(doc, "error_budget");
  r.confidence = FieldDouble(doc, "confidence");

  const std::string fp = FieldString(doc, "fp");
  r.result_fingerprint = std::strtoull(fp.c_str(), nullptr, 16);
  r.result_rows = FieldUint(doc, "rows");
  if (const Json* scalar = doc.Find("scalar");
      scalar != nullptr && scalar->kind == Json::kNumber) {
    r.scalar = scalar->Double();
  }

  if (const Json* stats = doc.Find("stats");
      stats != nullptr && stats->kind == Json::kObject) {
    ExecStats& s = r.stats;
    int path = 0;
    if (ValueFor(kPathTokens, FieldString(*stats, "path"), &path)) {
      s.path = static_cast<AccessPath>(path);
    }
    s.rows_scanned = FieldUint(*stats, "rows_scanned");
    s.morsels_dispatched = FieldUint(*stats, "morsels");
    s.morsels_pruned = FieldUint(*stats, "pruned");
    s.compressed_morsels = FieldUint(*stats, "compressed");
    s.threads_used = static_cast<uint32_t>(FieldInt(*stats, "threads", 1));
    s.resolved_mode = r.resolved_mode;
    int planner = 0;
    if (ValueFor(kPlannerTokens, FieldString(*stats, "planner"), &planner)) {
      s.planner_choice = static_cast<PlannerChoice>(planner);
    }
    s.plans_considered = static_cast<uint32_t>(FieldInt(*stats, "plans"));
    s.promised_error = FieldDouble(*stats, "promised");
    s.achieved_error = FieldDouble(*stats, "achieved");
    int simd_path = 0;
    if (ValueFor(kSimdTokens, FieldString(*stats, "simd"), &simd_path)) {
      s.simd_path = static_cast<simd::SimdPath>(simd_path);
    }
    s.plan_nanos = FieldInt(*stats, "plan_ns");
    s.select_nanos = FieldInt(*stats, "select_ns");
    s.aggregate_nanos = FieldInt(*stats, "agg_ns");
    s.project_nanos = FieldInt(*stats, "project_ns");
    s.decompress_nanos = FieldInt(*stats, "decompress_ns");
    s.total_nanos = FieldInt(*stats, "total_ns");
    s.queue_nanos = FieldInt(*stats, "queue_ns");
  }
  return r;
}

std::string WorkloadJournal::HeaderJsonLine(const JournalHeader& header) {
  std::string out = "{\"type\":\"header\",\"dataset\":";
  AppendJsonString(header.dataset, &out);
  out += ",\"rows\":";
  AppendInt(header.rows, &out);
  out += ",\"seed\":";
  AppendUint(header.seed, &out);
  out += "}";
  return out;
}

Result<JournalFile> WorkloadJournal::ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IOError("cannot open journal file: " + path);
  }
  JournalFile file;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    EXPLOREDB_ASSIGN_OR_RETURN(Json doc, JsonParser(line).Parse());
    const std::string type = FieldString(doc, "type");
    if (type == "header") {
      JournalHeader h;
      h.dataset = FieldString(doc, "dataset");
      h.rows = FieldInt(doc, "rows");
      h.seed = FieldUint(doc, "seed");
      file.header = std::move(h);
    } else if (type == "q") {
      auto record = FromJsonLine(line);
      if (!record.ok()) {
        return Status::InvalidArgument(
            "journal line " + std::to_string(line_no) + ": " +
            record.status().ToString());
      }
      file.records.push_back(std::move(record).ValueOrDie());
    }
    // Other types (slo_breach, future events) are skipped.
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
  ThreadRing* ring = LocalRing();
  {
    MutexLock lock(ring->mu);
    if (ring->items.size() >= kRingCapacity) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      DroppedCounter()->Add();
      return;
    }
    Item item;
    item.seq = record.global_seq;
    item.record = std::move(record);
    ring->items.push_back(std::move(item));
  }
  appended_.fetch_add(1, std::memory_order_relaxed);
  AppendedCounter()->Add();
}

void WorkloadJournal::AppendEventLine(std::string json_line) {
  if (!enabled()) return;
  const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  ThreadRing* ring = LocalRing();
  {
    MutexLock lock(ring->mu);
    if (ring->items.size() >= kRingCapacity) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      DroppedCounter()->Add();
      return;
    }
    Item item;
    item.seq = seq;
    item.is_event = true;
    item.line = std::move(json_line);
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
