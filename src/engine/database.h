#ifndef EXPLOREDB_ENGINE_DATABASE_H_
#define EXPLOREDB_ENGINE_DATABASE_H_

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/result.h"
#include "cracking/baselines.h"
#include "cracking/cracker_column.h"
#include "cracking/updates.h"
#include "loading/raw_table.h"
#include "storage/compression/compressed_column.h"
#include "storage/table.h"
#include "storage/zone_map.h"

namespace exploredb {

/// A named table plus the adaptive infrastructure the engine grows around it
/// while queries run: per-column crackers, sorted indexes, zone maps and
/// compressed columns, created lazily on first use (the "index as a side
/// effect of querying" principle).
///
/// Thread safety (the serving-layer contract, DESIGN.md §2i): every adaptive
/// structure is built once and *published* through its own build-once slot,
/// one per (structure, column), allocated up front from the immutable schema
/// (see GetOrBuild). A lookup of a published structure is one acquire load,
/// with no map and no lock. A miss serializes builders on that slot's mutex
/// (late arrivals re-check and adopt the published instance), builds outside
/// every table-wide lock, and publishes with a release store. Concurrent
/// sessions racing to create the same zone map / index get one
/// instance, with no thundering-herd rebuilds and no reader stalled behind
/// another column's build. (A string column's dictionary is not one of
/// them: the column fills it as rows are appended.) Published structures live as long as the entry.
/// Crackers are EpochCrackerColumn — they serialize their own
/// reorganizations internally, so no caller-side serialization is needed.
/// The table mutex mu_ guards only the base data.
class TableEntry {
 public:
  explicit TableEntry(Table table)
      : TableEntry(std::move(table), std::nullopt) {}
  TableEntry(Schema schema, RawTable raw)
      : TableEntry(Table(std::move(schema)), std::move(raw)) {}

  /// Immutable after construction, so readable without the lock.
  const Schema& schema() const { return schema_; }

  /// Row count (tokenizes a raw-backed table on first call).
  Result<size_t> NumRows() EXCLUDES(mu_);

  /// The column, adaptively loading it from the raw file when raw-backed.
  Result<const ColumnVector*> GetColumn(size_t idx) EXCLUDES(mu_);

  /// Lazily created epoch-published cracker over an int64 column. The
  /// returned cracker is internally synchronized: converged reads run
  /// concurrently under its shared lock, cracking serializes and publishes a
  /// new piece-layout epoch.
  Result<EpochCrackerColumn*> GetCracker(size_t idx) EXCLUDES(mu_);

  /// Lazily created fully sorted index over an int64 column.
  Result<const SortedIndex*> GetSortedIndex(size_t idx) EXCLUDES(mu_);

  /// Lazily built per-zone min/max synopsis over a numeric column; scans
  /// consult it to skip morsels a predicate cannot match.
  Result<const ZoneMap*> GetZoneMap(size_t idx) EXCLUDES(mu_);

  /// Lazily built compressed representation of a column. Returns nullptr
  /// (not an error) when the column has none — doubles, strings (stored as
  /// dictionary codes already), or int64 columns the adaptive policy judged
  /// incompressible; the verdict is cached so the encode cost is paid at
  /// most once per column.
  Result<const CompressedInt64Column*> GetCompressed(size_t idx)
      EXCLUDES(mu_);

  /// Fully materialized Table view. A raw-backed entry loads every column
  /// and copies them into a Table built once; the raw columns stay, so
  /// queries that hold them keep reading valid data.
  Result<const Table*> Materialized() EXCLUDES(mu_);

  bool raw_backed() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return raw_.has_value();
  }

  /// Deep-validates every adaptive structure this entry has published so far
  /// (crackers, sorted indexes, zone maps, compressed columns) against the
  /// base column data. O(rows x structures), with no table-wide lock held
  /// across the pass; run from tests and, behind EXPLOREDB_VALIDATE=1, after
  /// every query (see Executor::Execute).
  Status ValidateAdaptiveState() EXCLUDES(mu_);

 private:
  /// Build-once cell for one (structure, column). Builders serialize on
  /// `mu`; the winner sets `value`, then release-stores `built`. Readers
  /// acquire-load `built` and touch `value` only once it is true, so a
  /// published structure is read without any lock. A null `value` is a valid
  /// published verdict ("this column has none").
  template <typename T>
  struct BuildOnce {
    Mutex mu;
    std::atomic<bool> built{false};
    // NOLINT-exploredb(guarded-by): written once, under mu, before the
    // release store of `built`; read only after an acquire load sees it.
    std::unique_ptr<T> value;

    /// The published structure; nullptr while unbuilt.
    T* Published() const {
      return built.load(std::memory_order_acquire) ? value.get() : nullptr;
    }
  };

  /// The build-once slots of one column, one per structure kind.
  struct ColumnSlots {
    BuildOnce<EpochCrackerColumn> cracker;
    BuildOnce<const SortedIndex> sorted_index;
    BuildOnce<const ZoneMap> zone_map;
    BuildOnce<const CompressedInt64Column> compressed;
  };

  TableEntry(Table table, std::optional<RawTable> raw)
      : schema_(table.schema()),
        table_(std::move(table)),
        raw_(std::move(raw)),
        slots_(schema_.num_fields()) {}

  /// The type of column `idx`, or OutOfRange past the schema.
  Result<DataType> ColumnType(size_t idx) const;
  /// InvalidArgument "<requirement>, '<column name>' is <column type>".
  Status WrongType(size_t idx, const std::string& requirement) const;

  /// The structure published in `slot`; the first caller builds it as
  /// `build()`, a Result<std::unique_ptr<T>>, while later racers wait on the
  /// slot.
  template <typename T, typename Build>
  Result<T*> GetOrBuild(BuildOnce<T>& slot, Build build) EXCLUDES(mu_);

  /// GetOrBuild of a structure over column `idx`, built as `build(column)`.
  template <typename T, typename Build>
  Result<T*> GetOrBuildOver(BuildOnce<T>& slot, size_t idx, Build build)
      EXCLUDES(mu_);

  const Schema schema_;
  mutable Mutex mu_;
  Table table_ GUARDED_BY(mu_);
  std::optional<RawTable> raw_ GUARDED_BY(mu_);
  // NOLINT-exploredb(guarded-by): one per schema field, sized in the
  // constructor and never resized; each slot synchronizes itself.
  std::vector<ColumnSlots> slots_;
  /// A raw-backed entry's Materialized() copy; unused for in-memory tables.
  // NOLINT-exploredb(guarded-by): a build-once slot, synchronizes itself.
  BuildOnce<const Table> materialized_;
};

/// The engine's catalog: named tables, eager or adaptively loaded. Creation
/// and lookup are guarded; TableEntry pointers stay valid until the Database
/// is destroyed (entries are never removed).
class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Registers an in-memory table.
  Status CreateTable(const std::string& name, Table table) EXCLUDES(mu_);

  /// Registers a CSV file for NoDB-style adaptive loading: the file is not
  /// parsed until queries touch its columns.
  Status RegisterCsv(const std::string& name, const std::string& path,
                     Schema schema, CsvOptions options = {}) EXCLUDES(mu_);

  Result<TableEntry*> GetTable(const std::string& name) EXCLUDES(mu_);

  std::vector<std::string> TableNames() const EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<TableEntry>> tables_ GUARDED_BY(mu_);
};

}  // namespace exploredb

#endif  // EXPLOREDB_ENGINE_DATABASE_H_
