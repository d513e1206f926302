#ifndef EXPLOREDB_STORAGE_COLUMN_H_
#define EXPLOREDB_STORAGE_COLUMN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/value.h"

namespace exploredb {

/// A single typed column stored contiguously. The unit of work for the
/// adaptive-indexing (cracking) and layout subsystems.
class ColumnVector {
 public:
  explicit ColumnVector(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  size_t size() const;

  /// Appends `v`; fails with InvalidArgument on a type mismatch.
  Status Append(const Value& v);

  /// Typed appends (no dispatch); caller must match the column type.
  void AppendInt64(int64_t v) { int64_data_.push_back(v); }
  void AppendDouble(double v) { double_data_.push_back(v); }
  void AppendString(std::string v) { string_data_.push_back(std::move(v)); }

  /// Dynamically typed cell read.
  Value GetValue(size_t row) const;

  /// Numeric view of a cell (int64 widened); must not be used on strings.
  double GetDouble(size_t row) const;

  /// Direct typed access for inner loops.
  const std::vector<int64_t>& int64_data() const { return int64_data_; }
  const std::vector<double>& double_data() const { return double_data_; }
  const std::vector<std::string>& string_data() const { return string_data_; }
  std::vector<int64_t>* mutable_int64_data() { return &int64_data_; }
  std::vector<double>* mutable_double_data() { return &double_data_; }
  std::vector<std::string>* mutable_string_data() { return &string_data_; }

  void Reserve(size_t n);

  /// Resizes to `n` cells (new cells are zero or empty).
  void Resize(size_t n);

  /// New column containing rows at `positions`, in order.
  ColumnVector Gather(const std::vector<uint32_t>& positions) const;

  /// Writes rows at positions[begin, end) into `out`'s slots [begin, end).
  /// `out` must have this column's type and at least `end` cells. Only those
  /// slots are written, so disjoint ranges may be gathered concurrently.
  void GatherRange(const std::vector<uint32_t>& positions, size_t begin,
                   size_t end, ColumnVector* out) const;

 private:
  DataType type_;
  std::vector<int64_t> int64_data_;
  std::vector<double> double_data_;
  std::vector<std::string> string_data_;
};

/// Dictionary-encoded view of a string column: codes[row] indexes values
/// (first-appearance order). Grouped aggregation runs over the dense integer
/// codes instead of hashing a string per row, converting back to display
/// strings only at result build.
struct DictEncoded {
  std::vector<uint32_t> codes;
  std::vector<std::string> values;
};

/// One-pass dictionary encoding of a string array.
DictEncoded DictEncode(const std::vector<std::string>& data);

}  // namespace exploredb

#endif  // EXPLOREDB_STORAGE_COLUMN_H_
