#include "storage/column.h"

#include <functional>

#include "common/check.h"

namespace exploredb {

uint32_t StringDictionary::Hash(std::string_view s) {
  return static_cast<uint32_t>(std::hash<std::string_view>{}(s));
}

size_t StringDictionary::Probe(std::string_view s, uint32_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.code == kEmpty ||
        (slot.hash == hash && values_[slot.code] == s)) {
      return i;
    }
  }
}

std::optional<uint32_t> StringDictionary::Find(std::string_view s) const {
  if (slots_.empty()) return std::nullopt;
  const Slot& slot = slots_[Probe(s, Hash(s))];
  if (slot.code == kEmpty) return std::nullopt;
  return slot.code;
}

uint32_t StringDictionary::Intern(std::string_view s) {
  if ((values_.size() + 1) * 4 > slots_.size() * 3) Grow();
  const uint32_t hash = Hash(s);
  Slot& slot = slots_[Probe(s, hash)];
  if (slot.code == kEmpty) {
    slot = {hash, static_cast<uint32_t>(values_.size())};
    values_.emplace_back(s);
  }
  return slot.code;
}

void StringDictionary::Grow() {
  // Rehashing reads the stored hashes, never the strings.
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.code == kEmpty) continue;
    size_t i = slot.hash & mask;
    while (slots_[i].code != kEmpty) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

Status StringDictionary::Validate() const {
  size_t indexed = 0;
  for (const Slot& slot : slots_) {
    if (slot.code == kEmpty) continue;
    ++indexed;
    if (slot.code >= values_.size() ||
        slot.hash != Hash(values_[slot.code])) {
      return Status::Internal("string dictionary: slot holds a bad code");
    }
  }
  if (indexed != values_.size()) {
    return Status::Internal("string dictionary: index holds " +
                            std::to_string(indexed) + " codes for " +
                            std::to_string(values_.size()) + " values");
  }
  for (uint32_t c = 0; c < values_.size(); ++c) {
    if (Find(values_[c]) != c) {
      return Status::Internal("string dictionary: value of code " +
                              std::to_string(c) + " is not found under it");
    }
  }
  return Status::OK();
}

bool operator==(const StringCells& a, const StringCells& b) {
  if (a.size() != b.size()) return false;
  if (a.dict_ == b.dict_) return *a.codes_ == *b.codes_;
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r] != b[r]) return false;
  }
  return true;
}

ColumnVector::ColumnVector(DataType type)
    : ColumnVector(type, type == DataType::kString
                             ? std::make_shared<StringDictionary>()
                             : nullptr) {}

ColumnVector::ColumnVector(const ColumnVector& other)
    : type_(other.type_),
      int64_data_(other.int64_data_),
      double_data_(other.double_data_),
      codes_(other.codes_),
      dict_(other.dict_) {
  if (dict_ != nullptr) dict_->MarkShared();
}

ColumnVector& ColumnVector::operator=(const ColumnVector& other) {
  if (this != &other) *this = ColumnVector(other);
  return *this;
}

size_t ColumnVector::size() const {
  switch (type_) {
    case DataType::kInt64:
      return int64_data_.size();
    case DataType::kDouble:
      return double_data_.size();
    case DataType::kString:
      return codes_.size();
  }
  return 0;
}

void ColumnVector::AppendString(std::string_view v) {
  if (dict_->shared()) {
    // Copy on write: a dictionary another column holds stays as it is.
    if (std::optional<uint32_t> code = dict_->Find(v)) {
      codes_.push_back(*code);
      return;
    }
    dict_ = std::make_shared<StringDictionary>(*dict_);
  }
  codes_.push_back(dict_->Intern(v));
}

Status ColumnVector::Append(const Value& v) {
  if (v.type() != type_) {
    return Status::InvalidArgument(
        std::string("appending ") + DataTypeName(v.type()) + " to " +
        DataTypeName(type_) + " column");
  }
  switch (type_) {
    case DataType::kInt64:
      int64_data_.push_back(v.int64());
      break;
    case DataType::kDouble:
      double_data_.push_back(v.dbl());
      break;
    case DataType::kString:
      AppendString(v.str());
      break;
  }
  return Status::OK();
}

Value ColumnVector::GetValue(size_t row) const {
  switch (type_) {
    case DataType::kInt64:
      return Value(int64_data_[row]);
    case DataType::kDouble:
      return Value(double_data_[row]);
    case DataType::kString:
      return Value(dict_->value(codes_[row]));
  }
  return Value();
}

double ColumnVector::GetDouble(size_t row) const {
  if (type_ == DataType::kInt64) {
    return static_cast<double>(int64_data_[row]);
  }
  return double_data_[row];
}

void ColumnVector::Reserve(size_t n) {
  switch (type_) {
    case DataType::kInt64:
      int64_data_.reserve(n);
      break;
    case DataType::kDouble:
      double_data_.reserve(n);
      break;
    case DataType::kString:
      codes_.reserve(n);
      break;
  }
}

ColumnVector ColumnVector::Gather(
    const std::vector<uint32_t>& positions) const {
  ColumnVector out = GatherTarget(positions.size());
  GatherRange(positions, 0, positions.size(), &out);
  return out;
}

ColumnVector ColumnVector::GatherTarget(size_t n) const {
  ColumnVector out(type_, dict_);
  switch (type_) {
    case DataType::kInt64:
      out.int64_data_.resize(n);
      break;
    case DataType::kDouble:
      out.double_data_.resize(n);
      break;
    case DataType::kString:
      out.codes_.resize(n);
      dict_->MarkShared();
      break;
  }
  return out;
}

void ColumnVector::GatherRange(const std::vector<uint32_t>& positions,
                               size_t begin, size_t end,
                               ColumnVector* out) const {
  switch (type_) {
    case DataType::kInt64:
      for (size_t i = begin; i < end; ++i) {
        out->int64_data_[i] = int64_data_[positions[i]];
      }
      break;
    case DataType::kDouble:
      for (size_t i = begin; i < end; ++i) {
        out->double_data_[i] = double_data_[positions[i]];
      }
      break;
    case DataType::kString:
      DCHECK(out->dict_ == dict_);
      for (size_t i = begin; i < end; ++i) {
        out->codes_[i] = codes_[positions[i]];
      }
      break;
  }
}

}  // namespace exploredb
