#ifndef EXPLOREDB_COMMON_JSON_H_
#define EXPLOREDB_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace exploredb {

/// The one JSON writer and reader. Every JSON document the engine, the
/// benches and the tools produce (journal lines, the /slo report, Chrome
/// traces, BENCH_*.json, the replay report) goes through them, so they share
/// one escaping rule and one number rule:
///  - strings escape `"`, `\` and bytes below 0x20 (as \u00XX), nothing else;
///  - int64 and uint64 print exactly;
///  - finite doubles print in shortest round-trip form (std::to_chars), so a
///    double reads back bit for bit and 0.99 stays "0.99";
///  - ±inf and NaN print as the strings "inf", "-inf" and "nan", which the
///    reader's double getter turns back into the values.

/// Appends the shortest decimal text that reads back as exactly `v`, or
/// inf, -inf or nan for the non-finite values (unquoted). The one double
/// formatter in common/: the writer, Predicate::CacheKey and Value::ToString
/// (GROUP BY keys, CSV export) all use it.
void AppendShortestDouble(double v, std::string* out);

/// Streaming writer of compact JSON (no whitespace). It places commas and
/// colons itself: after Key() the next call writes that member's value.
///
///   JsonWriter w;
///   w.BeginObject().Key("n").Uint(3).Key("xs").BeginArray().Double(0.5);
///   w.EndArray().EndObject();  // {"n":3,"xs":[0.5]}
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }
  JsonWriter& Key(std::string_view key);
  JsonWriter& String(std::string_view s);
  JsonWriter& Int(int64_t v) { return Integer(v); }
  JsonWriter& Uint(uint64_t v) { return Integer(v); }
  JsonWriter& Double(double v);
  JsonWriter& Bool(bool v);

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  /// Writes the comma owed before a value or key that follows a sibling.
  void Separate();
  JsonWriter& Open(char bracket);
  JsonWriter& Close(char bracket);
  template <typename T>
  JsonWriter& Integer(T v);

  std::string out_;
  bool need_comma_ = false;
};

/// A parsed JSON document. Number text stays raw until a getter converts
/// it, so int64 and uint64 read back exactly (a double round trip would
/// corrupt values above 2^53).
class JsonValue {
 public:
  /// Deepest nesting of arrays and objects Parse accepts; deeper input is
  /// an error instead of a recursion that could overflow the stack.
  static constexpr int kMaxDepth = 64;

  /// Parses one document. Malformed input, trailing content and nesting
  /// past kMaxDepth return InvalidArgument.
  static Result<JsonValue> Parse(std::string_view text);

  /// Elements of an array (empty for other kinds).
  const std::vector<JsonValue>& items() const { return items_; }
  /// Member `key` of an object, or nullptr.
  const JsonValue* Find(std::string_view key) const;

  /// This value as T (int64_t, uint64_t, double, bool or std::string), or
  /// `fallback` when it is of another kind or an integer does not fit T.
  /// As<double> also reads the strings "inf", "-inf" and "nan".
  template <typename T>
  T As(T fallback = T()) const;

  /// Member `key` as T, or `fallback` when it is absent or of another kind.
  template <typename T>
  T Get(std::string_view key, T fallback = T()) const {
    const JsonValue* v = Find(key);
    return v == nullptr ? fallback : v->As<T>(std::move(fallback));
  }

 private:
  friend class JsonReader;
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  template <typename T>
  T AsInteger(T fallback) const;

  Kind kind_ = Kind::kNull;
  bool boolean_ = false;
  std::string text_;  ///< string content, or the raw number token
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> fields_;
};

template <>
int64_t JsonValue::As<int64_t>(int64_t fallback) const;
template <>
uint64_t JsonValue::As<uint64_t>(uint64_t fallback) const;
template <>
double JsonValue::As<double>(double fallback) const;
template <>
bool JsonValue::As<bool>(bool fallback) const;
template <>
std::string JsonValue::As<std::string>(std::string fallback) const;

}  // namespace exploredb

#endif  // EXPLOREDB_COMMON_JSON_H_
