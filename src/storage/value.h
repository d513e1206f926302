#ifndef EXPLOREDB_STORAGE_VALUE_H_
#define EXPLOREDB_STORAGE_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

namespace exploredb {

/// Physical types supported by the column store. Exploration workloads in the
/// surveyed systems are dominated by numeric range predicates and categorical
/// group-bys, which these three types cover.
enum class DataType { kInt64, kDouble, kString };

/// Returns "int64" / "double" / "string".
const char* DataTypeName(DataType type);

/// A dynamically typed scalar cell. Used at API boundaries (row appends,
/// query constants, result rendering); inner loops operate on the typed
/// column arrays directly.
class Value {
 public:
  Value() : repr_(int64_t{0}) {}
  Value(int64_t v) : repr_(v) {}          // NOLINT(google-explicit-constructor)
  Value(double v) : repr_(v) {}           // NOLINT
  Value(std::string v) : repr_(std::move(v)) {}  // NOLINT
  Value(const char* v) : repr_(std::string(v)) {}  // NOLINT

  DataType type() const;

  bool is_int64() const { return std::holds_alternative<int64_t>(repr_); }
  bool is_double() const { return std::holds_alternative<double>(repr_); }
  bool is_string() const { return std::holds_alternative<std::string>(repr_); }

  int64_t int64() const { return std::get<int64_t>(repr_); }
  double dbl() const { return std::get<double>(repr_); }
  const std::string& str() const { return std::get<std::string>(repr_); }

  /// Numeric view: int64 widened to double. Must not be called on strings.
  double AsDouble() const;

  /// Display text. A double prints in the shortest form that reads back as
  /// the same value, so GROUP BY keys named by it stay apart however close.
  std::string ToString() const;

  /// Same-type comparisons; comparing across types orders by type tag so that
  /// Values can live in ordered containers.
  bool operator==(const Value& other) const { return repr_ == other.repr_; }
  bool operator<(const Value& other) const { return repr_ < other.repr_; }

 private:
  std::variant<int64_t, double, std::string> repr_;
};

}  // namespace exploredb

#endif  // EXPLOREDB_STORAGE_VALUE_H_
