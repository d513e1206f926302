#ifndef EXPLOREDB_STORAGE_PREDICATE_H_
#define EXPLOREDB_STORAGE_PREDICATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "simd/simd.h"
#include "storage/table.h"

namespace exploredb {

class CompressedInt64Column;

/// Comparison operators for single-column conditions.
enum class CompareOp { kLt, kLe, kGt, kGe, kEq, kNe };

const char* CompareOpName(CompareOp op);

/// Maps a predicate operator onto the SIMD kernel vocabulary.
simd::Cmp ToSimdCmp(CompareOp op);

/// `column <op> constant` — one conjunct of a selection predicate.
struct Condition {
  size_t column = 0;
  CompareOp op = CompareOp::kEq;
  Value constant;

  /// True when the cell at (row, column) of `table` satisfies the condition.
  bool Matches(const Table& table, size_t row) const;

  /// Same check against a bare column (used by executors that fetch columns
  /// lazily and by raw-backed tables).
  bool MatchesColumn(const ColumnVector& col, size_t row) const;

  std::string ToString(const Schema& schema) const;
};

/// Whether dictionary codes can serve `c` over a column of `column_type`:
/// a string column compared with a string constant for (in)equality.
bool ServedByCodes(const Condition& c, DataType column_type);

/// Compressed inputs of a conjunction, for Predicate::FilterRange and
/// Predicate::Refine. `comp`, when non-null, runs parallel to the
/// conditions: a non-null comp[i] is an int64 representation that serves
/// conditions[i] (an int64 constant), and nullptr leaves that condition on
/// its raw column. With `codes`, a string (in)equality compares the
/// column's dictionary codes; without it, it compares values. Values
/// gathered out of compressed int64 blocks are timed into *decompress_nanos
/// (when non-null) and traced as "decompress" spans when `tracing`.
struct CompressedInputs {
  const std::vector<const CompressedInt64Column*>* comp = nullptr;
  bool codes = false;
  bool tracing = false;
  int64_t* decompress_nanos = nullptr;
};

/// Conjunction of conditions — the predicate language of exploratory range
/// queries in the surveyed systems (multidimensional windows, cracking
/// selections, explore-by-example regions).
class Predicate {
 public:
  Predicate() = default;
  explicit Predicate(std::vector<Condition> conjuncts)
      : conjuncts_(std::move(conjuncts)) {}

  /// Convenience: lo <= column < hi on a numeric column.
  static Predicate Range(size_t column, double lo, double hi);

  Predicate& And(Condition c) {
    conjuncts_.push_back(std::move(c));
    return *this;
  }

  const std::vector<Condition>& conjuncts() const { return conjuncts_; }
  bool empty() const { return conjuncts_.empty(); }

  bool Matches(const Table& table, size_t row) const;

  /// Positions of all matching rows, in row order.
  std::vector<uint32_t> SelectPositions(const Table& table) const;

  /// Appends to *out the positions in [begin, end) satisfying every condition
  /// in `conditions` (`cols` holds each condition's column, in parallel
  /// order). This is the morsel kernel of the parallel executor: every morsel
  /// appends into its own buffer, and the buffers concatenated in morsel
  /// order are exactly the serial scan's output.
  ///
  /// One seed, then one refine step per remaining condition. The seed is the
  /// fused `lo <= col < hi` int64 window if the conjunction is one, else the
  /// first compressed condition (packed words, run headers or dictionary
  /// codes), else the first condition a dispatched filter kernel serves,
  /// else every row. Each other condition then narrows the selection vector
  /// in place, as Refine does.
  static void FilterRange(const std::vector<Condition>& conditions,
                          const std::vector<const ColumnVector*>& cols,
                          uint32_t begin, uint32_t end,
                          std::vector<uint32_t>* out,
                          const CompressedInputs& compressed = {});

  /// Narrows the ascending selection vector *sel to the rows satisfying
  /// every condition, keeping their order. Per condition, the refine step
  /// uses a compressed int64 gather and compare, dictionary codes, or the
  /// dispatched refine_i64_cmp/refine_f64_cmp kernels. Conditions none of
  /// these reproduce (an int64 column against a double constant, string
  /// ordering, string (in)equality without `codes`) test the column row by
  /// row with Condition::MatchesColumn.
  static void Refine(const std::vector<Condition>& conditions,
                     const std::vector<const ColumnVector*>& cols,
                     std::vector<uint32_t>* sel,
                     const CompressedInputs& compressed = {});

  /// Refine over the ascending selection sel[0, n), in place; returns how
  /// many rows survive at the front.
  static uint32_t Refine(const std::vector<Condition>& conditions,
                         const std::vector<const ColumnVector*>& cols,
                         uint32_t* sel, uint32_t n,
                         const CompressedInputs& compressed = {});

  /// Canonical key for caching: one "<column><op><constant>;" per conjunct.
  /// Predicates that differ in any column, op, constant type or constant
  /// value get different keys: an int64 prints bare, a double as 'd' plus
  /// its shortest round-trip text, a string as 's', its length, ':' and its
  /// bytes.
  std::string CacheKey() const;

  std::string ToString(const Schema& schema) const;

 private:
  std::vector<Condition> conjuncts_;
};

}  // namespace exploredb

#endif  // EXPLOREDB_STORAGE_PREDICATE_H_
