#ifndef EXPLOREDB_SAMPLING_ONLINE_AGG_H_
#define EXPLOREDB_SAMPLING_ONLINE_AGG_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "sampling/estimators.h"
#include "storage/predicate.h"

namespace exploredb {

/// Online aggregation [Hellerstein/Haas/Wang, SIGMOD'97; CONTROL project]:
/// processes the data in random order, maintaining a running estimate whose
/// confidence interval shrinks as ~1/sqrt(tuples processed). The user can
/// stop at any time — the core interaction pattern of exploratory AQP.
class OnlineAggregator {
 public:
  /// `values` is the aggregated column; `mask` (optional, same length) marks
  /// which rows satisfy the query predicate (COUNT counts mask hits; AVG/SUM
  /// aggregate masked-in values only). A byte per row rather than
  /// vector<bool> so partitioned producers can fill disjoint ranges
  /// concurrently. Rows are visited in a random permutation drawn from
  /// `seed`.
  OnlineAggregator(std::vector<double> values, std::vector<uint8_t> mask,
                   AggKind kind, uint64_t seed = 42);

  /// Processes up to `batch` more rows; returns rows actually consumed
  /// (0 when exhausted).
  size_t ProcessNext(size_t batch);

  /// Current running estimate (EstimateAggregate); exact once all are seen.
  Estimate Current(double confidence = 0.95) const;

  bool done() const { return cursor_ >= order_.size(); }
  size_t rows_processed() const { return cursor_; }
  size_t population_size() const { return order_.size(); }

 private:
  std::vector<double> values_;
  std::vector<uint8_t> mask_;
  AggKind kind_;
  std::vector<uint32_t> order_;
  size_t cursor_ = 0;
  Moments matched_;  // the masked-in rows seen so far (COUNT: count only)
};

/// Materialized inputs for an OnlineAggregator: the measure column widened
/// to double plus the predicate mask.
struct OnlineInput {
  std::vector<double> values;
  std::vector<uint8_t> mask;
};

/// Builds OnlineAggregator inputs with one worker per partition: the row
/// range is split into `partition_rows`-sized slices and each worker fills
/// its disjoint slice of both output vectors in place, the mask from
/// Predicate::FilterRange's positions. `measure` may be null (COUNT); `pool`
/// may be null for serial execution. `partitions_dispatched` and
/// `threads_used` (both optional) receive dispatch statistics.
OnlineInput BuildOnlineInput(const std::vector<Condition>& conditions,
                             const std::vector<const ColumnVector*>& cols,
                             const ColumnVector* measure, size_t num_rows,
                             ThreadPool* pool, size_t partition_rows,
                             uint64_t* partitions_dispatched = nullptr,
                             uint32_t* threads_used = nullptr);

}  // namespace exploredb

#endif  // EXPLOREDB_SAMPLING_ONLINE_AGG_H_
