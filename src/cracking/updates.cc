#include "cracking/updates.h"

#include <atomic>
#include <mutex>

#include "common/metrics.h"

namespace exploredb {

namespace {

// Serving-layer concurrency counters, aggregated over every epoch cracker in
// the process: how often a query hit the converged shared-lock fast path vs
// had to serialize behind an exclusive crack-and-publish.
Counter* SharedReadsCounter() {
  static Counter* c = Metrics().GetCounter(
      "exploredb_cracker_shared_reads_total",
      "Cracker range reads answered under the shared (epoch-pinned) lock");
  return c;
}

Counter* EpochsPublishedCounter() {
  static Counter* c = Metrics().GetCounter(
      "exploredb_cracker_epochs_published_total",
      "Cracking reorganizations that published a new piece-layout epoch");
  return c;
}

}  // namespace

UpdatableCrackerColumn::UpdatableCrackerColumn(std::vector<int64_t> values,
                                               size_t merge_threshold)
    : column_(std::move(values)),
      next_row_id_(static_cast<uint32_t>(column_.size())),
      merge_threshold_(merge_threshold) {}

void UpdatableCrackerColumn::Insert(int64_t value) {
  pending_values_.push_back(value);
  pending_row_ids_.push_back(next_row_id_++);
  if (pending_values_.size() >= merge_threshold_) MergePending();
}

void UpdatableCrackerColumn::RippleInsert(int64_t value, uint32_t row_id) {
  // Grow the array by one slot at the end.
  column_.values_.push_back(0);
  column_.row_ids_.push_back(0);
  size_t hole = column_.values_.size() - 1;

  // Walk pieces from the back toward the target: every piece whose pivot is
  // strictly greater than `value` starts after the insertion point, so move
  // its first element into the hole (order within a piece is arbitrary),
  // which slides the hole to that piece's start. This mirrors exactly the
  // set of pivots ShiftAfter() will advance.
  const auto& pivots = column_.index_.pivots();
  for (auto it = pivots.rbegin(); it != pivots.rend() && it->first > value;
       ++it) {
    size_t piece_begin = it->second;
    column_.values_[hole] = column_.values_[piece_begin];
    column_.row_ids_[hole] = column_.row_ids_[piece_begin];
    hole = piece_begin;
  }

  column_.values_[hole] = value;
  column_.row_ids_[hole] = row_id;

  // Every pivot above the target piece now starts one position later.
  // FindPiece gave begin = position of greatest pivot <= value, so shift all
  // pivots strictly greater than `value`.
  column_.index_.ShiftAfter(value);
}

void UpdatableCrackerColumn::MergePending() {
  for (size_t i = 0; i < pending_values_.size(); ++i) {
    RippleInsert(pending_values_[i], pending_row_ids_[i]);
  }
  pending_values_.clear();
  pending_row_ids_.clear();
}

CrackRange UpdatableCrackerColumn::RangeSelect(
    int64_t lo, int64_t hi, std::vector<uint32_t>* extra_row_ids) {
  for (size_t i = 0; i < pending_values_.size(); ++i) {
    if (pending_values_[i] >= lo && pending_values_[i] < hi) {
      extra_row_ids->push_back(pending_row_ids_[i]);
    }
  }
  return column_.RangeSelect(lo, hi);
}

size_t UpdatableCrackerColumn::RangeCount(int64_t lo, int64_t hi) {
  std::vector<uint32_t> extra;
  CrackRange range = RangeSelect(lo, hi, &extra);
  return range.count() + extra.size();
}

EpochCrackerColumn::EpochCrackerColumn(std::vector<int64_t> values)
    : column_(std::move(values)), size_(column_.size()) {}

EpochCrackerColumn::ReadStats EpochCrackerColumn::RangeSelectInto(
    int64_t lo, int64_t hi, std::vector<uint32_t>* out) {
  ReadStats rs;
  {
    ReaderMutexLock lock(mutex_);
    if (column_.CanAnswerWithoutCracking(lo, hi)) {
      shared_reads_.fetch_add(1, std::memory_order_relaxed);
      SharedReadsCounter()->Add();
      // Sound under a shared lock: both bounds are pivots, so RangeSelect
      // degenerates to two index lookups and mutates nothing.
      CrackRange r = column_.RangeSelect(lo, hi);
      out->insert(out->end(), column_.row_ids().begin() + r.begin,
                  column_.row_ids().begin() + r.end);
      rs.rows_touched = r.count();
      rs.epoch = epoch_.load(std::memory_order_relaxed);
      rs.shared_path = true;
      return rs;
    }
  }
  WriterMutexLock lock(mutex_);
  // Re-check under the exclusive lock: another thread may have cracked the
  // same bounds in the unlock->lock window, in which case this read is free.
  const uint64_t cracks_before = column_.stats().cracks;
  const uint64_t touched_before = column_.stats().elements_touched;
  CrackRange r = column_.RangeSelect(lo, hi);
  rs.rows_touched = static_cast<size_t>(column_.stats().elements_touched -
                                        touched_before) +
                    r.count();
  if (column_.stats().cracks != cracks_before) {
    exclusive_cracks_.fetch_add(1, std::memory_order_relaxed);
    EpochsPublishedCounter()->Add();
    // Publish: the new piece layout becomes the current epoch before any
    // reader can take the lock shared again.
    rs.epoch = epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  } else {
    rs.epoch = epoch_.load(std::memory_order_relaxed);
  }
  out->insert(out->end(), column_.row_ids().begin() + r.begin,
              column_.row_ids().begin() + r.end);
  return rs;
}

size_t EpochCrackerColumn::SpanRows(int64_t lo, int64_t hi) const {
  if (lo >= hi) return 0;
  ReaderMutexLock lock(mutex_);
  const CrackerIndex& index = column_.index();
  return index.FindPiece(hi - 1).end - index.FindPiece(lo).begin;
}

CrackingStats EpochCrackerColumn::stats() const {
  ReaderMutexLock lock(mutex_);
  return column_.stats();
}

Status EpochCrackerColumn::Validate(
    const std::vector<int64_t>* original) const {
  ReaderMutexLock lock(mutex_);
  return column_.Validate(original);
}

}  // namespace exploredb
