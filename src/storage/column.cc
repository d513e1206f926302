#include "storage/column.h"

#include <unordered_map>

namespace exploredb {

DictEncoded DictEncode(const std::vector<std::string>& data) {
  DictEncoded dict;
  dict.codes.reserve(data.size());
  std::unordered_map<std::string, uint32_t> ids;
  for (const std::string& s : data) {
    auto [it, inserted] =
        ids.emplace(s, static_cast<uint32_t>(dict.values.size()));
    if (inserted) dict.values.push_back(s);
    dict.codes.push_back(it->second);
  }
  return dict;
}

size_t ColumnVector::size() const {
  switch (type_) {
    case DataType::kInt64:
      return int64_data_.size();
    case DataType::kDouble:
      return double_data_.size();
    case DataType::kString:
      return string_data_.size();
  }
  return 0;
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
      string_data_.push_back(v.str());
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
      return Value(string_data_[row]);
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
      string_data_.reserve(n);
      break;
  }
}

void ColumnVector::Resize(size_t n) {
  switch (type_) {
    case DataType::kInt64:
      int64_data_.resize(n);
      break;
    case DataType::kDouble:
      double_data_.resize(n);
      break;
    case DataType::kString:
      string_data_.resize(n);
      break;
  }
}

ColumnVector ColumnVector::Gather(
    const std::vector<uint32_t>& positions) const {
  ColumnVector out(type_);
  out.Resize(positions.size());
  GatherRange(positions, 0, positions.size(), &out);
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
      for (size_t i = begin; i < end; ++i) {
        out->string_data_[i] = string_data_[positions[i]];
      }
      break;
  }
}

}  // namespace exploredb
