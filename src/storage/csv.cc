#include "storage/csv.h"

#include <fstream>

#include "common/strings.h"

namespace exploredb {

Result<Table> ReadCsv(const std::string& path, const Schema& schema,
                      const CsvOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  Table table(schema);
  std::string line;
  size_t line_no = 0;
  if (options.has_header) {
    std::getline(in, line);
    ++line_no;
  }
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    auto fields = SplitFields(line, options.delimiter);
    if (fields.size() != schema.num_fields()) {
      return Status::ParseError(
          path + ":" + std::to_string(line_no) + ": expected " +
          std::to_string(schema.num_fields()) + " fields, got " +
          std::to_string(fields.size()));
    }
    for (size_t c = 0; c < fields.size(); ++c) {
      ColumnVector* col = table.mutable_column(c);
      switch (schema.field(c).type) {
        case DataType::kInt64: {
          auto v = ParseInt64(fields[c]);
          if (!v.ok()) {
            return Status::ParseError(path + ":" + std::to_string(line_no) +
                                      ": " + v.status().message());
          }
          col->AppendInt64(v.ValueOrDie());
          break;
        }
        case DataType::kDouble: {
          auto v = ParseDouble(fields[c]);
          if (!v.ok()) {
            return Status::ParseError(path + ":" + std::to_string(line_no) +
                                      ": " + v.status().message());
          }
          col->AppendDouble(v.ValueOrDie());
          break;
        }
        case DataType::kString:
          col->AppendString(fields[c]);
          break;
      }
    }
  }
  return table;
}

Status WriteCsv(const Table& table, const std::string& path,
                const CsvOptions& options) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  const Schema& schema = table.schema();
  if (options.has_header) {
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      if (c) out << options.delimiter;
      out << schema.field(c).name;
    }
    out << "\n";
  }
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c) out << options.delimiter;
      out << table.GetValue(r, c).ToString();
    }
    out << "\n";
  }
  if (!out) return Status::IOError("write failed for '" + path + "'");
  return Status::OK();
}

}  // namespace exploredb
