#include "engine/query.h"

#include <algorithm>
#include <cstdio>

#include "common/strings.h"

namespace exploredb {

const char* ExecutionModeName(ExecutionMode mode) {
  switch (mode) {
    case ExecutionMode::kScan:
      return "scan";
    case ExecutionMode::kCracking:
      return "cracking";
    case ExecutionMode::kFullIndex:
      return "full-index";
    case ExecutionMode::kSampled:
      return "sampled";
    case ExecutionMode::kOnline:
      return "online";
    case ExecutionMode::kAuto:
      return "auto";
    case ExecutionMode::kBudgeted:
      return "budgeted";
  }
  return "?";
}

const char* PlannerChoiceName(PlannerChoice choice) {
  switch (choice) {
    case PlannerChoice::kNone:
      return "none";
    case PlannerChoice::kCache:
      return "cache";
    case PlannerChoice::kExact:
      return "exact";
    case PlannerChoice::kSample:
      return "sample";
    case PlannerChoice::kOnline:
      return "online";
  }
  return "?";
}

const char* AccessPathName(AccessPath path) {
  switch (path) {
    case AccessPath::kNone:
      return "none";
    case AccessPath::kScan:
      return "scan";
    case AccessPath::kCracker:
      return "cracker";
    case AccessPath::kSorted:
      return "sorted";
    case AccessPath::kSample:
      return "sample";
    case AccessPath::kOnline:
      return "online";
    case AccessPath::kCache:
      return "cache";
    case AccessPath::kFocus:
      return "focus";
  }
  return "?";
}

std::optional<std::vector<Condition>> Focus::Residual(
    const TableEntry* table, const Predicate& where) const {
  if (entry == nullptr || entry != table) return std::nullopt;
  auto same = [](const Condition& a, const Condition& b) {
    return a.column == b.column && a.op == b.op && a.constant == b.constant;
  };
  for (const Condition& f : conjuncts) {
    if (std::none_of(where.conjuncts().begin(), where.conjuncts().end(),
                     [&](const Condition& w) { return same(f, w); })) {
      return std::nullopt;
    }
  }
  std::vector<Condition> residual;
  for (const Condition& w : where.conjuncts()) {
    if (std::none_of(conjuncts.begin(), conjuncts.end(),
                     [&](const Condition& f) { return same(f, w); })) {
      residual.push_back(w);
    }
  }
  return residual;
}

void Focus::Release() {
  entry = nullptr;
  conjuncts.clear();
  std::vector<uint32_t>().swap(positions);
}

std::string ExecStats::Summary() const {
  std::string out = "path=";
  out += AccessPathName(path);
  out += " rows=" + std::to_string(rows_scanned);
  out += " morsels=" + std::to_string(morsels_dispatched);
  out += " pruned=" + std::to_string(morsels_pruned);
  if (compressed_morsels > 0) {
    out += " compressed=" + std::to_string(compressed_morsels);
  }
  out += " threads=" + std::to_string(threads_used);
  out += " simd=";
  out += simd::SimdPathName(simd_path);
  if (planner_choice != PlannerChoice::kNone) {
    out += " planner=";
    out += PlannerChoiceName(planner_choice);
    out += " plans=" + std::to_string(plans_considered);
    char err[64];
    std::snprintf(err, sizeof(err), " promised=%.3g achieved=%.3g",
                  promised_error, achieved_error);
    out += err;
  }
  out += " | plan=" + FormatDurationNanos(plan_nanos);
  out += " select=" + FormatDurationNanos(select_nanos);
  out += " agg=" + FormatDurationNanos(aggregate_nanos);
  if (decompress_nanos > 0) {
    out += " decompress=" + FormatDurationNanos(decompress_nanos);
  }
  out += " project=" + FormatDurationNanos(project_nanos);
  if (abandoned_nanos > 0) {
    out += " abandoned=" + FormatDurationNanos(abandoned_nanos);
  }
  out += " total=" + FormatDurationNanos(total_nanos);
  if (predicted_nanos > 0) {
    out += " predicted=" + FormatDurationNanos(predicted_nanos);
  }
  if (queue_nanos > 0) {
    out += " queue=" + FormatDurationNanos(queue_nanos);
  }
  return out;
}

Result<Query> QueryBuilder::Build(const Schema& schema) const {
  Predicate where;
  for (const NamedCondition& c : conditions_) {
    EXPLOREDB_ASSIGN_OR_RETURN(size_t idx, schema.FieldIndex(c.column));
    Value constant = c.constant;
    switch (schema.field(idx).type) {
      case DataType::kInt64:
        // Comparisons against a double constant are evaluated in double
        // precision by the scan kernels; nothing to coerce.
        if (constant.is_string()) {
          return Status::InvalidArgument("string constant for int64 column '" +
                                         c.column + "'");
        }
        break;
      case DataType::kDouble:
        if (constant.is_int64()) constant = Value(constant.AsDouble());
        if (constant.is_string()) {
          return Status::InvalidArgument(
              "string constant for double column '" + c.column + "'");
        }
        break;
      case DataType::kString:
        if (!constant.is_string()) {
          return Status::InvalidArgument(
              "non-string constant for string column '" + c.column + "'");
        }
        break;
    }
    where.And({idx, c.op, std::move(constant)});
  }
  Query q = Query::On(table_).Where(std::move(where));
  if (!select_.empty()) q.Select(select_);
  if (aggregate_.has_value()) q.Aggregate(aggregate_->kind, aggregate_->column);
  if (group_by_.has_value()) q.GroupBy(*group_by_);
  return q;
}

std::string Query::CacheKey() const {
  std::string key = table_;
  key += "|";
  key += where_.CacheKey();
  key += "|sel:";
  for (const std::string& c : select_) {
    key += c;
    key += ",";
  }
  if (aggregate_.has_value()) {
    key += "|agg:";
    key += AggKindName(aggregate_->kind);
    key += "(";
    key += aggregate_->column;
    key += ")";
  }
  if (group_by_.has_value()) {
    key += "|by:";
    key += *group_by_;
  }
  return key;
}

}  // namespace exploredb
