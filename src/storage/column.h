#ifndef EXPLOREDB_STORAGE_COLUMN_H_
#define EXPLOREDB_STORAGE_COLUMN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/value.h"

namespace exploredb {

/// The distinct values of a string column, coded in first-appearance order:
/// value(c) is the c-th distinct string appended. The reverse index is an
/// open-addressed table of (hash, code) slots that points into `values`, so
/// each string is stored once. Codes never change once handed out, and a
/// dictionary that two columns share is never modified again (a column
/// that appends a new value to a shared dictionary copies it first).
class StringDictionary {
 public:
  StringDictionary() = default;
  /// A private, unshared copy.
  StringDictionary(const StringDictionary& other)
      : values_(other.values_), slots_(other.slots_) {}
  StringDictionary& operator=(const StringDictionary&) = delete;

  size_t size() const { return values_.size(); }
  const std::string& value(uint32_t code) const { return values_[code]; }
  const std::vector<std::string>& values() const { return values_; }

  /// Code of `s`, or nullopt when the value never occurs.
  std::optional<uint32_t> Find(std::string_view s) const;

  /// Code of `s`, appended as the next code when absent.
  uint32_t Intern(std::string_view s);

  /// Whether a second column holds this dictionary; set by the column that
  /// shares it, and never cleared. A column that reads false holds the only
  /// reference: a copy sets the flag before it exists, and copying a column
  /// while it appends would be a data race on the column itself.
  bool shared() const { return shared_.load(); }
  void MarkShared() const { shared_.store(true); }

  /// Every code's value indexed exactly once, under its own hash.
  Status Validate() const;

 private:
  struct Slot {
    uint32_t hash = 0;
    uint32_t code = kEmpty;
  };
  static constexpr uint32_t kEmpty = UINT32_MAX;

  static uint32_t Hash(std::string_view s);
  /// The slot holding `s`, or the empty slot where it would go.
  size_t Probe(std::string_view s, uint32_t hash) const;
  void Grow();

  std::vector<std::string> values_;
  std::vector<Slot> slots_;  ///< power-of-two size, at most 3/4 full
  mutable std::atomic<bool> shared_{false};
};

/// Read-only view of a string column's cells: row r reads as the
/// dictionary value of code r.
class StringCells {
 public:
  class Iterator {
   public:
    Iterator(const uint32_t* code, const StringDictionary* dict)
        : code_(code), dict_(dict) {}
    const std::string& operator*() const { return dict_->value(*code_); }
    Iterator& operator++() {
      ++code_;
      return *this;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.code_ == b.code_;
    }

   private:
    const uint32_t* code_;
    const StringDictionary* dict_;
  };
  using const_iterator = Iterator;

  StringCells(const std::vector<uint32_t>* codes, const StringDictionary* dict)
      : codes_(codes), dict_(dict) {}

  size_t size() const { return codes_->size(); }
  bool empty() const { return codes_->empty(); }
  const std::string& operator[](size_t row) const {
    return dict_->value((*codes_)[row]);
  }
  Iterator begin() const { return Iterator(codes_->data(), dict_); }
  Iterator end() const {
    return Iterator(codes_->data() + codes_->size(), dict_);
  }

  /// Same length and equal strings row by row.
  friend bool operator==(const StringCells& a, const StringCells& b);

 private:
  const std::vector<uint32_t>* codes_;
  const StringDictionary* dict_;
};

/// A single typed column stored contiguously. The unit of work for the
/// adaptive-indexing (cracking) and layout subsystems. A string column is
/// one uint32 code per row plus a StringDictionary, filled as rows are
/// appended; copies and gathers share the dictionary. Every buffer of at
/// least 4 MB the column allocates (a copy, Reserve, append growth, a
/// gather target) is advised as a transparent-huge-page candidate before
/// its first write.
class ColumnVector {
 public:
  explicit ColumnVector(DataType type);
  ColumnVector(const ColumnVector& other);
  ColumnVector& operator=(const ColumnVector& other);
  ColumnVector(ColumnVector&&) = default;
  ColumnVector& operator=(ColumnVector&&) = default;

  DataType type() const { return type_; }
  size_t size() const;

  /// Appends `v`; fails with InvalidArgument on a type mismatch.
  Status Append(const Value& v);

  /// Typed appends (no dispatch); caller must match the column type.
  void AppendInt64(int64_t v) {
    if (int64_data_.size() == int64_data_.capacity()) Grow(&int64_data_);
    int64_data_.push_back(v);
  }
  void AppendDouble(double v) {
    if (double_data_.size() == double_data_.capacity()) Grow(&double_data_);
    double_data_.push_back(v);
  }
  void AppendString(std::string_view v);

  /// Dynamically typed cell read.
  Value GetValue(size_t row) const;

  /// Numeric view of a cell (int64 widened); must not be used on strings.
  double GetDouble(size_t row) const;

  /// Direct typed access for inner loops.
  const std::vector<int64_t>& int64_data() const { return int64_data_; }
  const std::vector<double>& double_data() const { return double_data_; }
  StringCells string_data() const { return {&codes_, dict_.get()}; }
  std::vector<int64_t>* mutable_int64_data() { return &int64_data_; }
  std::vector<double>* mutable_double_data() { return &double_data_; }

  /// A string column's per-row dictionary codes and its dictionary.
  const std::vector<uint32_t>& codes() const { return codes_; }
  const StringDictionary& dictionary() const { return *dict_; }

  void Reserve(size_t n);

  /// New column containing rows at `positions`, in order.
  ColumnVector Gather(const std::vector<uint32_t>& positions) const;

  /// A column of `n` cells, this column's type, for GatherRange to fill. A
  /// string column's target shares this column's dictionary.
  ColumnVector GatherTarget(size_t n) const;

  /// Writes rows at positions[begin, end) into `out`'s slots [begin, end).
  /// `out` must come from GatherTarget with at least `end` cells. Only those
  /// slots are written, so disjoint ranges may be gathered concurrently.
  void GatherRange(const std::vector<uint32_t>& positions, size_t begin,
                   size_t end, ColumnVector* out) const;

 private:
  ColumnVector(DataType type, std::shared_ptr<StringDictionary> dict)
      : type_(type), dict_(std::move(dict)) {}

  /// Doubles a full buffer's capacity, as push_back would.
  template <typename T>
  static void Grow(std::vector<T>* data);

  DataType type_;
  std::vector<int64_t> int64_data_;
  std::vector<double> double_data_;
  std::vector<uint32_t> codes_;
  /// Non-null for string columns.
  std::shared_ptr<StringDictionary> dict_;
};

}  // namespace exploredb

#endif  // EXPLOREDB_STORAGE_COLUMN_H_
