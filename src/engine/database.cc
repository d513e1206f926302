#include "engine/database.h"

#include <algorithm>

#include "common/metrics.h"

namespace exploredb {

namespace {

// Cross-session synopsis sharing: how often an adaptive-structure lookup was
// served from an already published instance vs had to build one. A healthy
// multi-session workload converges to hits >> builds (every structure is
// built once, then shared).
Counter* SynopsisHitsCounter() {
  static Counter* c = Metrics().GetCounter(
      "exploredb_synopsis_hits_total",
      "Adaptive-structure lookups served from a published instance");
  return c;
}

Counter* SynopsisBuildsCounter() {
  static Counter* c = Metrics().GetCounter(
      "exploredb_synopsis_builds_total",
      "Adaptive structures built and published (once per structure)");
  return c;
}

}  // namespace

Result<size_t> TableEntry::NumRows() {
  MutexLock lock(mu_);
  if (raw_.has_value()) return raw_->NumRows();
  return table_.num_rows();
}

Result<const ColumnVector*> TableEntry::GetColumn(size_t idx) {
  EXPLOREDB_RETURN_NOT_OK(ColumnType(idx).status());
  MutexLock lock(mu_);
  if (raw_.has_value()) return raw_->GetColumn(idx);
  return &table_.column(idx);
}

Result<DataType> TableEntry::ColumnType(size_t idx) const {
  if (idx >= schema().num_fields()) {
    return Status::OutOfRange("column " + std::to_string(idx));
  }
  return schema().field(idx).type;
}

Status TableEntry::WrongType(size_t idx, const std::string& requirement) const {
  const Field& field = schema().field(idx);
  return Status::InvalidArgument(requirement + ", '" + field.name + "' is " +
                                 DataTypeName(field.type));
}

// The one build-once/publish sequence every adaptive structure goes through:
//   1. Acquire-load the slot's flag: published? return it (a hit).
//   2. Take the slot mutex (serializes builders of this one structure) and
//      re-check — a racer may have published while we waited.
//   3. Build outside every table-wide lock (the expensive part: copying,
//      sorting or encoding an O(n) column).
//   4. Publish: set the value, then release-store the flag. The release
//      store is what makes the built structure visible, complete, to every
//      lock-free reader whose acquire load sees the flag.
// A base-column pointer stays valid across step 3, and for as long as the
// entry lives: columns are never freed or replaced (Materialized() copies a
// raw table's columns into a slot of its own), so a build or a query may
// keep reading a column while other sessions run anything else.
template <typename T, typename Build>
Result<T*> TableEntry::GetOrBuild(BuildOnce<T>& slot, Build build) {
  if (slot.built.load(std::memory_order_acquire)) {
    SynopsisHitsCounter()->Add();
    return slot.value.get();
  }
  MutexLock lock(slot.mu);
  if (slot.built.load(std::memory_order_acquire)) {
    SynopsisHitsCounter()->Add();
    return slot.value.get();
  }
  EXPLOREDB_ASSIGN_OR_RETURN(slot.value, build());
  slot.built.store(true, std::memory_order_release);
  SynopsisBuildsCounter()->Add();
  return slot.value.get();
}

template <typename T, typename Build>
Result<T*> TableEntry::GetOrBuildOver(BuildOnce<T>& slot, size_t idx,
                                      Build build) {
  return GetOrBuild(slot, [&]() -> Result<std::unique_ptr<T>> {
    EXPLOREDB_ASSIGN_OR_RETURN(const ColumnVector* col, GetColumn(idx));
    return std::unique_ptr<T>(build(*col));
  });
}

Result<EpochCrackerColumn*> TableEntry::GetCracker(size_t idx) {
  EXPLOREDB_ASSIGN_OR_RETURN(DataType type, ColumnType(idx));
  if (type != DataType::kInt64) {
    return WrongType(idx, "cracking requires an int64 column");
  }
  return GetOrBuildOver(slots_[idx].cracker, idx,
                        [](const ColumnVector& col) {
                          return std::make_unique<EpochCrackerColumn>(
                              col.int64_data());
                        });
}

Result<const SortedIndex*> TableEntry::GetSortedIndex(size_t idx) {
  EXPLOREDB_ASSIGN_OR_RETURN(DataType type, ColumnType(idx));
  if (type != DataType::kInt64) {
    return WrongType(idx, "sorted index requires an int64 column");
  }
  return GetOrBuildOver(slots_[idx].sorted_index, idx,
                        [](const ColumnVector& col) {
                          return std::make_unique<SortedIndex>(
                              col.int64_data());
                        });
}

Result<const ZoneMap*> TableEntry::GetZoneMap(size_t idx) {
  EXPLOREDB_ASSIGN_OR_RETURN(DataType type, ColumnType(idx));
  if (type == DataType::kString) {
    return WrongType(idx, "zone map requires a numeric column");
  }
  return GetOrBuildOver(slots_[idx].zone_map, idx,
                        [](const ColumnVector& col) {
                          return std::make_unique<ZoneMap>(
                              ZoneMap::Build(col));
                        });
}

Result<const CompressedInt64Column*> TableEntry::GetCompressed(size_t idx) {
  EXPLOREDB_RETURN_NOT_OK(ColumnType(idx).status());
  // Build() may return nullptr: published as the "incompressible" verdict.
  return GetOrBuildOver(slots_[idx].compressed, idx,
                        [](const ColumnVector& col) {
                          return CompressedInt64Column::Build(col);
                        });
}

Result<const Table*> TableEntry::Materialized() {
  {
    MutexLock lock(mu_);
    if (!raw_.has_value()) return &table_;
  }
  // Pull every column through the adaptive loader, then copy them into a
  // Table of its own.
  return GetOrBuild(
      materialized_, [this]() -> Result<std::unique_ptr<const Table>> {
        auto full = std::make_unique<Table>(schema());
        for (size_t c = 0; c < schema().num_fields(); ++c) {
          EXPLOREDB_ASSIGN_OR_RETURN(const ColumnVector* col, GetColumn(c));
          *full->mutable_column(c) = *col;
        }
        return std::unique_ptr<const Table>(std::move(full));
      });
}

Status TableEntry::ValidateAdaptiveState() {
  for (size_t idx = 0; idx < slots_.size(); ++idx) {
    const ColumnSlots& slots = slots_[idx];
    const EpochCrackerColumn* cracker = slots.cracker.Published();
    const SortedIndex* index = slots.sorted_index.Published();
    const ZoneMap* zm = slots.zone_map.Published();
    // nullptr also when published as the "incompressible" verdict.
    const CompressedInt64Column* comp = slots.compressed.Published();
    if (cracker == nullptr && index == nullptr && zm == nullptr &&
        comp == nullptr) {
      continue;  // nothing built over this column; do not load it
    }
    EXPLOREDB_ASSIGN_OR_RETURN(const ColumnVector* col, GetColumn(idx));
    if (cracker != nullptr) {
      EXPLOREDB_RETURN_NOT_OK(cracker->Validate(&col->int64_data()));
    }
    if (index != nullptr) {
      const std::vector<int64_t>& sorted = index->sorted_values();
      if (!std::is_sorted(sorted.begin(), sorted.end())) {
        return Status::Internal("sorted index over column " +
                                std::to_string(idx) + " is not sorted");
      }
      if (sorted.size() != col->int64_data().size()) {
        return Status::Internal("sorted index over column " +
                                std::to_string(idx) +
                                " has wrong cardinality");
      }
    }
    if (zm != nullptr) EXPLOREDB_RETURN_NOT_OK(zm->Validate(col));
    if (comp != nullptr) {
      EXPLOREDB_RETURN_NOT_OK(comp->Validate(&col->int64_data()));
    }
  }
  return Status::OK();
}

Status Database::CreateTable(const std::string& name, Table table) {
  MutexLock lock(mu_);
  if (tables_.count(name)) {
    return Status::AlreadyExists("table '" + name + "'");
  }
  tables_.emplace(name, std::make_unique<TableEntry>(std::move(table)));
  return Status::OK();
}

Status Database::RegisterCsv(const std::string& name, const std::string& path,
                             Schema schema, CsvOptions options) {
  MutexLock lock(mu_);
  if (tables_.count(name)) {
    return Status::AlreadyExists("table '" + name + "'");
  }
  EXPLOREDB_ASSIGN_OR_RETURN(RawTable raw,
                             RawTable::Open(path, schema, options));
  tables_.emplace(name, std::make_unique<TableEntry>(std::move(schema),
                                                     std::move(raw)));
  return Status::OK();
}

Result<TableEntry*> Database::GetTable(const std::string& name) {
  MutexLock lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("table '" + name + "'");
  return it->second.get();
}

std::vector<std::string> Database::TableNames() const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, entry] : tables_) out.push_back(name);
  return out;
}

}  // namespace exploredb
