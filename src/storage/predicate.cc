#include "storage/predicate.h"

#include <numeric>
#include <optional>
#include <sstream>

#include "common/json.h"
#include "common/trace.h"
#include "storage/compression/compressed_column.h"

namespace exploredb {

simd::Cmp ToSimdCmp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return simd::Cmp::kLt;
    case CompareOp::kLe:
      return simd::Cmp::kLe;
    case CompareOp::kGt:
      return simd::Cmp::kGt;
    case CompareOp::kGe:
      return simd::Cmp::kGe;
    case CompareOp::kEq:
      return simd::Cmp::kEq;
    case CompareOp::kNe:
      return simd::Cmp::kNe;
  }
  return simd::Cmp::kEq;
}

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
  }
  return "?";
}

namespace {

template <typename T>
bool Compare(const T& lhs, CompareOp op, const T& rhs) {
  switch (op) {
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kLe:
      return lhs <= rhs;
    case CompareOp::kGt:
      return lhs > rhs;
    case CompareOp::kGe:
      return lhs >= rhs;
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return lhs != rhs;
  }
  return false;
}

}  // namespace

bool ServedByCodes(const Condition& c, DataType column_type) {
  return column_type == DataType::kString && c.constant.is_string() &&
         (c.op == CompareOp::kEq || c.op == CompareOp::kNe);
}

bool Condition::Matches(const Table& table, size_t row) const {
  return MatchesColumn(table.column(column), row);
}

bool Condition::MatchesColumn(const ColumnVector& col, size_t row) const {
  switch (col.type()) {
    case DataType::kInt64:
      // Allow numeric constants of either flavor against int columns.
      if (constant.is_int64()) {
        return Compare(col.int64_data()[row], op, constant.int64());
      }
      return Compare(static_cast<double>(col.int64_data()[row]), op,
                     constant.AsDouble());
    case DataType::kDouble:
      return Compare(col.double_data()[row], op, constant.AsDouble());
    case DataType::kString:
      return constant.is_string() &&
             Compare(col.string_data()[row], op, constant.str());
  }
  return false;
}

std::string Condition::ToString(const Schema& schema) const {
  std::ostringstream os;
  os << schema.field(column).name << " " << CompareOpName(op) << " "
     << constant.ToString();
  return os.str();
}

Predicate Predicate::Range(size_t column, double lo, double hi) {
  Predicate p;
  p.And({column, CompareOp::kGe, Value(lo)});
  p.And({column, CompareOp::kLt, Value(hi)});
  return p;
}

bool Predicate::Matches(const Table& table, size_t row) const {
  for (const Condition& c : conjuncts_) {
    if (!c.Matches(table, row)) return false;
  }
  return true;
}

std::vector<uint32_t> Predicate::SelectPositions(const Table& table) const {
  std::vector<uint32_t> out;
  const size_t n = table.num_rows();
  if (n == 0) return out;
  std::vector<const ColumnVector*> cols;
  cols.reserve(conjuncts_.size());
  for (const Condition& c : conjuncts_) cols.push_back(&table.column(c.column));
  FilterRange(conjuncts_, cols, 0, static_cast<uint32_t>(n), &out);
  return out;
}

namespace {

/// Which dispatched kernel family evaluates a condition on its raw column,
/// if any. Mirrors the typed branches of Condition::MatchesColumn: int64
/// columns compared against a double constant are evaluated in double
/// precision, which no int64 kernel reproduces, so they stay row-at-a-time.
enum class KernelKind { kNone, kI64, kF64 };

KernelKind KernelKindFor(const Condition& c, const ColumnVector& col) {
  if (col.type() == DataType::kInt64 && c.constant.is_int64()) {
    return KernelKind::kI64;
  }
  if (col.type() == DataType::kDouble && !c.constant.is_string()) {
    return KernelKind::kF64;
  }
  return KernelKind::kNone;
}

const CompressedInt64Column* CompressedFor(
    const CompressedInputs& compressed, size_t i) {
  return compressed.comp != nullptr ? (*compressed.comp)[i] : nullptr;
}

/// Whether `c` runs on its column's dictionary codes.
bool OnCodes(const Condition& c, const ColumnVector& col,
             const CompressedInputs& compressed) {
  return compressed.codes && ServedByCodes(c, col.type());
}

/// Appends every row id in [begin, end).
void AppendAll(uint32_t begin, uint32_t end, std::vector<uint32_t>* out) {
  const size_t old = out->size();
  out->resize(old + (end - begin));
  std::iota(out->begin() + static_cast<ptrdiff_t>(old), out->end(), begin);
}

/// Reusable per-thread buffer for int64 values gathered out of compressed
/// blocks.
std::vector<int64_t>& GatherScratch() {
  thread_local std::vector<int64_t> scratch;
  return scratch;
}

/// The refine step: narrows the ascending selection vector sel[0, n) in
/// place to the rows satisfying `c` and returns how many survive. `comp`,
/// when non-null, is the compressed int64 representation serving `c`.
uint32_t RefineStep(const Condition& c, const ColumnVector& col,
                    const CompressedInt64Column* comp,
                    const CompressedInputs& compressed, uint32_t* sel,
                    uint32_t n) {
  if (n == 0) return 0;
  uint32_t kept = 0;
  if (comp != nullptr) {
    // Decode just the surviving rows (128-row sub-blocks), then compare.
    std::vector<int64_t>& vals = GatherScratch();
    vals.resize(n);
    {
      TraceSpan span("decompress", compressed.tracing,
                     compressed.decompress_nanos);
      comp->Gather(sel, n, vals.data());
    }
    const int64_t k = c.constant.int64();
    for (uint32_t i = 0; i < n; ++i) {
      if (Compare(vals[i], c.op, k)) sel[kept++] = sel[i];
    }
    return kept;
  }
  if (OnCodes(c, col, compressed)) {
    const bool negate = c.op == CompareOp::kNe;
    std::optional<uint32_t> code = col.dictionary().Find(c.constant.str());
    // A constant absent from the dictionary: == matches nothing, != matches
    // every row.
    if (!code.has_value()) return negate ? n : 0;
    const uint32_t* codes = col.codes().data();
    for (uint32_t i = 0; i < n; ++i) {
      if ((codes[sel[i]] == *code) != negate) sel[kept++] = sel[i];
    }
    return kept;
  }
  const simd::KernelTable& kt = simd::ActiveKernels();
  switch (KernelKindFor(c, col)) {
    case KernelKind::kI64:
      return kt.refine_i64_cmp(col.int64_data().data(), sel, n,
                               ToSimdCmp(c.op), c.constant.int64(), sel);
    case KernelKind::kF64:
      return kt.refine_f64_cmp(col.double_data().data(), sel, n,
                               ToSimdCmp(c.op), c.constant.AsDouble(), sel);
    case KernelKind::kNone:
      break;
  }
  for (uint32_t i = 0; i < n; ++i) {
    if (c.MatchesColumn(col, sel[i])) sel[kept++] = sel[i];
  }
  return kept;
}

}  // namespace

void Predicate::FilterRange(const std::vector<Condition>& conditions,
                            const std::vector<const ColumnVector*>& cols,
                            uint32_t begin, uint32_t end,
                            std::vector<uint32_t>* out,
                            const CompressedInputs& compressed) {
  if (begin >= end) return;
  const size_t old = out->size();
  const simd::KernelTable& kt = simd::ActiveKernels();

  // The exploration-window idiom lo <= col < hi on one int64 column is one
  // fused range filter that consumes both conditions: on run headers and
  // packed words when compressed, else with the dispatched window kernel.
  if (conditions.size() == 2 && cols[0] == cols[1] &&
      cols[0]->type() == DataType::kInt64 &&
      conditions[0].constant.is_int64() && conditions[1].constant.is_int64()) {
    const Condition* ge = nullptr;
    const Condition* lt = nullptr;
    for (const Condition& c : conditions) {
      if (c.op == CompareOp::kGe) ge = &c;
      if (c.op == CompareOp::kLt) lt = &c;
    }
    if (ge != nullptr && lt != nullptr) {
      const int64_t lo = ge->constant.int64();
      const int64_t hi = lt->constant.int64();
      if (const CompressedInt64Column* cc = CompressedFor(compressed, 0)) {
        cc->FilterRange(begin, end, lo, hi, out);
      } else {
        out->resize(old + (end - begin));
        const uint32_t n = kt.filter_i64_range(
            cols[0]->int64_data().data(), begin, end, lo, hi,
            out->data() + old);
        out->resize(old + n);
      }
      return;
    }
  }

  // Seed the selection vector from the first compressed condition (run
  // headers, packed words or dictionary codes, so rows of non-qualifying
  // blocks are never decoded); else from the first condition a filter kernel
  // serves; else with every row.
  size_t seed = conditions.size();
  for (size_t i = 0; i < conditions.size(); ++i) {
    if (CompressedFor(compressed, i) != nullptr ||
        OnCodes(conditions[i], *cols[i], compressed)) {
      seed = i;
      break;
    }
  }
  for (size_t i = 0; i < conditions.size() && seed == conditions.size();
       ++i) {
    if (KernelKindFor(conditions[i], *cols[i]) != KernelKind::kNone) seed = i;
  }
  if (seed == conditions.size()) {
    AppendAll(begin, end, out);
  } else if (const CompressedInt64Column* cc =
                 CompressedFor(compressed, seed)) {
    const Condition& c = conditions[seed];
    cc->FilterCmp(begin, end, c.op, c.constant.int64(), out);
  } else if (OnCodes(conditions[seed], *cols[seed], compressed)) {
    const Condition& c = conditions[seed];
    const ColumnVector& col = *cols[seed];
    const bool negate = c.op == CompareOp::kNe;
    std::optional<uint32_t> code = col.dictionary().Find(c.constant.str());
    if (code.has_value()) {
      const uint32_t* codes = col.codes().data();
      if (negate) {
        for (uint32_t r = begin; r < end; ++r) {
          if (codes[r] != *code) out->push_back(r);
        }
      } else {
        for (uint32_t r = begin; r < end; ++r) {
          if (codes[r] == *code) out->push_back(r);
        }
      }
    } else if (negate) {
      AppendAll(begin, end, out);  // absent from the dictionary
    }
  } else {
    const Condition& c = conditions[seed];
    const ColumnVector& col = *cols[seed];
    out->resize(old + (end - begin));
    const uint32_t n =
        KernelKindFor(c, col) == KernelKind::kI64
            ? kt.filter_i64_cmp(col.int64_data().data(), begin, end,
                                ToSimdCmp(c.op), c.constant.int64(),
                                out->data() + old)
            : kt.filter_f64_cmp(col.double_data().data(), begin, end,
                                ToSimdCmp(c.op), c.constant.AsDouble(),
                                out->data() + old);
    out->resize(old + n);
  }

  auto n = static_cast<uint32_t>(out->size() - old);
  for (size_t i = 0; i < conditions.size(); ++i) {
    if (i == seed) continue;
    n = RefineStep(conditions[i], *cols[i], CompressedFor(compressed, i),
                   compressed, out->data() + old, n);
  }
  out->resize(old + n);
}

void Predicate::Refine(const std::vector<Condition>& conditions,
                       const std::vector<const ColumnVector*>& cols,
                       std::vector<uint32_t>* sel,
                       const CompressedInputs& compressed) {
  sel->resize(Refine(conditions, cols, sel->data(),
                     static_cast<uint32_t>(sel->size()), compressed));
}

uint32_t Predicate::Refine(const std::vector<Condition>& conditions,
                           const std::vector<const ColumnVector*>& cols,
                           uint32_t* sel, uint32_t n,
                           const CompressedInputs& compressed) {
  for (size_t i = 0; i < conditions.size(); ++i) {
    n = RefineStep(conditions[i], *cols[i], CompressedFor(compressed, i),
                   compressed, sel, n);
  }
  return n;
}

std::string Predicate::CacheKey() const {
  std::string key;
  for (const Condition& c : conjuncts_) {
    key += std::to_string(c.column);
    key += CompareOpName(c.op);
    if (c.constant.is_int64()) {
      key += std::to_string(c.constant.int64());
    } else if (c.constant.is_double()) {
      key += 'd';
      AppendShortestDouble(c.constant.dbl(), &key);
    } else {
      key += 's' + std::to_string(c.constant.str().size()) + ':';
      key += c.constant.str();
    }
    key += ';';
  }
  return key;
}

std::string Predicate::ToString(const Schema& schema) const {
  if (conjuncts_.empty()) return "true";
  std::string out;
  for (size_t i = 0; i < conjuncts_.size(); ++i) {
    if (i) out += " AND ";
    out += conjuncts_[i].ToString(schema);
  }
  return out;
}

}  // namespace exploredb
