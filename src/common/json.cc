#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace exploredb {

void AppendShortestDouble(double v, std::string* out) {
  if (std::isnan(v)) {
    *out += "nan";
  } else if (std::isinf(v)) {
    *out += v > 0 ? "inf" : "-inf";
  } else {
    char buf[32];  // shortest forms take at most 24 chars
    out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  }
}

void JsonWriter::Separate() {
  if (need_comma_) out_ += ',';
  need_comma_ = true;
}

JsonWriter& JsonWriter::Open(char bracket) {
  Separate();
  out_ += bracket;
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  out_ += bracket;
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  String(key);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view s) {
  Separate();
  out_ += '"';
  for (char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (byte < 0x20) {
      out_ += "\\u00";
      out_ += "0123456789abcdef"[byte >> 4];
      out_ += "0123456789abcdef"[byte & 0xf];
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  return *this;
}

template <typename T>
JsonWriter& JsonWriter::Integer(T v) {
  Separate();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  return *this;
}

template JsonWriter& JsonWriter::Integer(int64_t);
template JsonWriter& JsonWriter::Integer(uint64_t);

JsonWriter& JsonWriter::Double(double v) {
  Separate();
  const bool quoted = !std::isfinite(v);  // "inf", "-inf", "nan"
  if (quoted) out_ += '"';
  AppendShortestDouble(v, &out_);
  if (quoted) out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Bool(bool v) {
  Separate();
  out_ += v ? "true" : "false";
  return *this;
}

/// Recursive descent, one frame per nesting level (capped at kMaxDepth).
class JsonReader {
 public:
  explicit JsonReader(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  Result<JsonValue> Parse() {
    JsonValue v;
    EXPLOREDB_RETURN_NOT_OK(ParseValue(&v, 0));
    if (!AtEnd()) return Error("trailing content");
    return v;
  }

 private:
  static Status Error(const std::string& what) {
    return Status::InvalidArgument("JSON: " + what);
  }

  /// Skips whitespace; true at the end of the input.
  bool AtEnd() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
    return p_ == end_;
  }

  /// Consumes `c` if it comes next after whitespace.
  bool Consume(char c) {
    if (AtEnd() || *p_ != c) return false;
    ++p_;
    return true;
  }

  Status Literal(std::string_view word) {
    if (std::string_view(p_, static_cast<size_t>(end_ - p_))
            .substr(0, word.size()) != word) {
      return Error("bad literal");
    }
    p_ += word.size();
    return Status::OK();
  }

  Status ParseValue(JsonValue* v, int depth) {
    if (AtEnd()) return Error("unexpected end of input");
    switch (*p_) {
      case '{':
      case '[':
        if (depth == JsonValue::kMaxDepth) {
          return Error("nesting deeper than " +
                       std::to_string(JsonValue::kMaxDepth));
        }
        return *p_ == '{' ? ParseObject(v, depth + 1)
                          : ParseArray(v, depth + 1);
      case '"':
        ++p_;
        v->kind_ = JsonValue::Kind::kString;
        return ParseString(&v->text_);
      case 't':
      case 'f':
        v->kind_ = JsonValue::Kind::kBool;
        v->boolean_ = *p_ == 't';
        return Literal(v->boolean_ ? "true" : "false");
      case 'n':
        return Literal("null");
      default:
        v->kind_ = JsonValue::Kind::kNumber;
        return ParseNumber(&v->text_);
    }
  }

  /// Reads the rest of a string whose opening quote is consumed.
  Status ParseString(std::string* out) {
    static constexpr std::string_view kEscapes = "bfnrt";
    static constexpr std::string_view kEscaped = "\b\f\n\r\t";
    for (; p_ != end_ && *p_ != '"'; ++p_) {
      if (*p_ != '\\') {
        out->push_back(*p_);
      } else if (++p_ == end_) {
        break;
      } else if (*p_ != 'u') {  // \b \f \n \r \t, or \" \\ \/ as themselves
        const size_t k = kEscapes.find(*p_);
        out->push_back(k == std::string_view::npos ? *p_ : kEscaped[k]);
      } else {
        // ASCII only: the writer escapes control bytes and leaves UTF-8 as
        // it is, so a wider code point comes from another writer.
        unsigned code = 0;
        if (end_ - p_ < 5 ||
            std::from_chars(p_ + 1, p_ + 5, code, 16).ptr != p_ + 5 ||
            code >= 0x80) {
          return Error("bad or non-ASCII \\u escape");
        }
        out->push_back(static_cast<char>(code));
        p_ += 4;
      }
    }
    if (p_ == end_) return Error("unterminated string");
    ++p_;  // closing quote
    return Status::OK();
  }

  Status ParseNumber(std::string* raw) {
    const char* start = p_;
    constexpr std::string_view kNumberChars = "0123456789+-.eE";
    while (p_ != end_ && kNumberChars.find(*p_) != std::string_view::npos) ++p_;
    raw->assign(start, p_);
    char* parsed_end = nullptr;
    std::strtod(raw->c_str(), &parsed_end);
    if (raw->empty() || parsed_end != raw->c_str() + raw->size()) {
      return Error("bad number");
    }
    return Status::OK();
  }

  Status ParseArray(JsonValue* v, int depth) {
    ++p_;  // '['
    v->kind_ = JsonValue::Kind::kArray;
    if (Consume(']')) return Status::OK();
    do {
      EXPLOREDB_RETURN_NOT_OK(ParseValue(&v->items_.emplace_back(), depth));
    } while (Consume(','));
    return Consume(']') ? Status::OK() : Error("expected ',' or ']'");
  }

  Status ParseObject(JsonValue* v, int depth) {
    ++p_;  // '{'
    v->kind_ = JsonValue::Kind::kObject;
    if (Consume('}')) return Status::OK();
    do {
      if (!Consume('"')) return Error("expected object key");
      auto& [key, value] = v->fields_.emplace_back();
      EXPLOREDB_RETURN_NOT_OK(ParseString(&key));
      if (!Consume(':')) return Error("expected ':'");
      EXPLOREDB_RETURN_NOT_OK(ParseValue(&value, depth));
    } while (Consume(','));
    return Consume('}') ? Status::OK() : Error("expected ',' or '}'");
  }

  const char* p_;
  const char* end_;
};

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return JsonReader(text).Parse();
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [k, v] : fields_) {
    if (k == key) return &v;
  }
  return nullptr;
}

template <typename T>
T JsonValue::AsInteger(T fallback) const {
  T out = 0;
  const char* end = text_.data() + text_.size();
  const auto [ptr, ec] = std::from_chars(text_.data(), end, out);
  return kind_ == Kind::kNumber && ec == std::errc() && ptr == end ? out
                                                                   : fallback;
}

template <>
int64_t JsonValue::As<int64_t>(int64_t fallback) const {
  return AsInteger(fallback);
}

template <>
uint64_t JsonValue::As<uint64_t>(uint64_t fallback) const {
  return AsInteger(fallback);
}

template <>
double JsonValue::As<double>(double fallback) const {
  if (kind_ == Kind::kNumber) return std::strtod(text_.c_str(), nullptr);
  if (kind_ != Kind::kString) return fallback;
  if (text_ == "inf") return std::numeric_limits<double>::infinity();
  if (text_ == "-inf") return -std::numeric_limits<double>::infinity();
  if (text_ == "nan") return std::numeric_limits<double>::quiet_NaN();
  return fallback;
}

template <>
bool JsonValue::As<bool>(bool fallback) const {
  return kind_ == Kind::kBool ? boolean_ : fallback;
}

template <>
std::string JsonValue::As<std::string>(std::string fallback) const {
  return kind_ == Kind::kString ? text_ : fallback;
}

}  // namespace exploredb
