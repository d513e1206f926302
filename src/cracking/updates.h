#ifndef EXPLOREDB_CRACKING_UPDATES_H_
#define EXPLOREDB_CRACKING_UPDATES_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "cracking/cracker_column.h"

namespace exploredb {

/// Cracked column that absorbs insertions, after "Updating a Cracked
/// Database" [Idreos et al., SIGMOD'07]. New values first land in a pending
/// buffer (queries merge it on the fly); once the buffer exceeds a threshold
/// the values are folded into the cracked array with *ripple insertion*:
/// grow the array by one, then shift one boundary element per piece so a slot
/// opens inside the target piece — O(#pieces) moves per insert instead of
/// O(n), exploiting the fact that order inside a piece is free.
class UpdatableCrackerColumn {
 public:
  explicit UpdatableCrackerColumn(std::vector<int64_t> values,
                                  size_t merge_threshold = 64);

  /// Queues `value` for insertion (assigned the next row id).
  void Insert(int64_t value);

  /// Selects lo <= v < hi. Matches from the pending buffer are appended to
  /// `extra_row_ids` (the cracked range covers only merged values).
  CrackRange RangeSelect(int64_t lo, int64_t hi,
                         std::vector<uint32_t>* extra_row_ids);

  /// Total values in [lo, hi) including pending ones.
  size_t RangeCount(int64_t lo, int64_t hi);

  /// Forces the pending buffer into the cracked array.
  void MergePending();

  size_t pending_size() const { return pending_values_.size(); }
  const CrackerColumn& column() const { return column_; }
  size_t size() const { return column_.size() + pending_values_.size(); }

 private:
  void RippleInsert(int64_t value, uint32_t row_id);

  CrackerColumn column_;
  std::vector<int64_t> pending_values_;
  std::vector<uint32_t> pending_row_ids_;
  uint32_t next_row_id_;
  size_t merge_threshold_;
};

/// Thread-safe cracker exposing the read/write asymmetry of adaptive
/// indexing ("Concurrency Control for Adaptive Indexing" [Graefe et al.,
/// PVLDB'12]): an epoch-published cracker that many sessions read
/// concurrently while cracking reorganizations publish new piece layouts one
/// at a time.
///
/// Epoch protocol (DESIGN.md §2i):
///  - The piece layout has a monotonically increasing *epoch* number. Readers
///    pin the current epoch by holding the shared lock: while any reader is
///    inside, the layout cannot change underneath it.
///  - A query whose bounds are already pivots is answered entirely under the
///    shared lock (RangeSelect degenerates to two index lookups and mutates
///    nothing), so converged point lookups never block each other and never
///    block behind long readers.
///  - A query that must crack takes the lock exclusive, re-checks (another
///    thread may have cracked the same bounds in the unlock->lock window),
///    reorganizes, and *publishes* epoch+1 before downgrading to copying its
///    answer. Cracking serializes; reads of converged regions do not.
class EpochCrackerColumn {
 public:
  /// Per-read provenance: what the caller's ExecStats accounting needs.
  struct ReadStats {
    /// Elements moved while cracking plus the answer range size — the same
    /// accounting Executor historically derived from CrackingStats deltas
    /// (which are racy to read across threads; this is the per-call copy).
    size_t rows_touched = 0;
    uint64_t epoch = 0;        ///< piece-layout epoch the answer came from
    bool shared_path = false;  ///< answered read-only under the shared lock
  };

  explicit EpochCrackerColumn(std::vector<int64_t> values);

  /// Appends the row ids of values in [lo, hi) to `out` (in cracked-array
  /// order — callers needing determinism sort, as the executor always has).
  ReadStats RangeSelectInto(int64_t lo, int64_t hi,
                            std::vector<uint32_t>* out) EXCLUDES(mutex_);

  /// Current published epoch (number of cracking reorganizations so far).
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }
  /// Reads answered under the shared lock / cracks that published an epoch.
  uint64_t shared_reads() const {
    return shared_reads_.load(std::memory_order_relaxed);
  }
  uint64_t exclusive_cracks() const {
    return exclusive_cracks_.load(std::memory_order_relaxed);
  }

  size_t size() const { return size_; }

  /// Snapshot of the underlying cracker's counters (taken under the lock).
  CrackingStats stats() const EXCLUDES(mutex_);

  /// Deep validation of the cracked array (see CrackerColumn::Validate),
  /// taken under the shared lock so it can run while readers are active.
  Status Validate(const std::vector<int64_t>* original = nullptr) const
      EXCLUDES(mutex_);

 private:
  mutable SharedMutex mutex_;
  CrackerColumn column_ GUARDED_BY(mutex_);
  const size_t size_;  ///< row count; immutable (no inserts through this API)
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> shared_reads_{0};
  std::atomic<uint64_t> exclusive_cracks_{0};
};

}  // namespace exploredb

#endif  // EXPLOREDB_CRACKING_UPDATES_H_
