#include "storage/value.h"

#include "common/json.h"

namespace exploredb {

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
  }
  return "unknown";
}

DataType Value::type() const {
  if (is_int64()) return DataType::kInt64;
  if (is_double()) return DataType::kDouble;
  return DataType::kString;
}

double Value::AsDouble() const {
  if (is_int64()) return static_cast<double>(int64());
  return dbl();
}

std::string Value::ToString() const {
  if (is_int64()) return std::to_string(int64());
  if (is_double()) {
    std::string out;
    AppendShortestDouble(dbl(), &out);
    return out;
  }
  return str();
}

}  // namespace exploredb
