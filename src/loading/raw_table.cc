#include "loading/raw_table.h"

#include <fstream>
#include <sstream>

#include "common/stopwatch.h"
#include "common/strings.h"

namespace exploredb {

RawTable::RawTable(std::string data, Schema schema, CsvOptions options)
    : data_(std::move(data)),
      schema_(std::move(schema)),
      options_(options) {
  columns_.reserve(schema_.num_fields());
  for (const Field& f : schema_.fields()) columns_.emplace_back(f.type);
  loaded_.assign(schema_.num_fields(), false);
}

Result<RawTable> RawTable::Open(const std::string& path, Schema schema,
                                CsvOptions options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return RawTable(buf.str(), std::move(schema), options);
}

Status RawTable::EnsureTokenized() {
  if (map_.built()) return Status::OK();
  Stopwatch timer;
  EXPLOREDB_RETURN_NOT_OK(map_.Build(data_, schema_.num_fields(),
                                     options_.delimiter,
                                     options_.has_header));
  stats_.tokenize_micros += timer.ElapsedMicros();
  return Status::OK();
}

Status RawTable::EnsureColumnLoaded(size_t col) {
  if (col >= columns_.size()) {
    return Status::OutOfRange("column " + std::to_string(col));
  }
  if (loaded_[col]) return Status::OK();
  EXPLOREDB_RETURN_NOT_OK(EnsureTokenized());
  Stopwatch timer;
  ColumnVector& out = columns_[col];
  out.Reserve(map_.num_rows());
  for (size_t r = 0; r < map_.num_rows(); ++r) {
    std::string_view field = map_.Field(data_, r, col);
    switch (schema_.field(col).type) {
      case DataType::kInt64: {
        auto v = ParseInt64(field);
        if (!v.ok()) {
          return Status::ParseError("row " + std::to_string(r) + " col " +
                                    std::to_string(col) + ": " +
                                    v.status().message());
        }
        out.AppendInt64(v.ValueOrDie());
        break;
      }
      case DataType::kDouble: {
        auto v = ParseDouble(field);
        if (!v.ok()) {
          return Status::ParseError("row " + std::to_string(r) + " col " +
                                    std::to_string(col) + ": " +
                                    v.status().message());
        }
        out.AppendDouble(v.ValueOrDie());
        break;
      }
      case DataType::kString:
        out.AppendString(field);
        break;
    }
  }
  loaded_[col] = true;
  ++stats_.columns_loaded;
  stats_.parse_micros += timer.ElapsedMicros();
  return Status::OK();
}

Result<size_t> RawTable::NumRows() {
  EXPLOREDB_RETURN_NOT_OK(EnsureTokenized());
  return map_.num_rows();
}

Result<const ColumnVector*> RawTable::GetColumn(size_t col) {
  EXPLOREDB_RETURN_NOT_OK(EnsureColumnLoaded(col));
  return &columns_[col];
}

Result<const ColumnVector*> RawTable::GetColumnByName(
    const std::string& name) {
  EXPLOREDB_ASSIGN_OR_RETURN(size_t idx, schema_.FieldIndex(name));
  return GetColumn(idx);
}

Result<size_t> RawTable::SpeculativelyLoadOne() {
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (!loaded_[c]) {
      EXPLOREDB_RETURN_NOT_OK(EnsureColumnLoaded(c));
      return c;
    }
  }
  return Status::NotFound("all columns loaded");
}

}  // namespace exploredb
