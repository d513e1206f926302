#include "sampling/online_agg.h"

#include <algorithm>
#include <numeric>

#include "common/metrics.h"

namespace exploredb {

namespace {

// Online-aggregation refinement progress, across every aggregator in the
// process: rounds (ProcessNext calls that consumed rows) and rows folded
// into the running estimate.
Counter* RoundsCounter() {
  static Counter* c = Metrics().GetCounter(
      "exploredb_onlineagg_rounds_total",
      "Online-aggregation refinement rounds");
  return c;
}

Counter* RowsCounter() {
  static Counter* c = Metrics().GetCounter(
      "exploredb_onlineagg_rows_total",
      "Rows folded into online-aggregation estimates");
  return c;
}

}  // namespace

OnlineAggregator::OnlineAggregator(std::vector<double> values,
                                   std::vector<uint8_t> mask, AggKind kind,
                                   uint64_t seed)
    : values_(std::move(values)), mask_(std::move(mask)), kind_(kind) {
  if (mask_.empty()) mask_.assign(values_.size(), true);
  order_.resize(values_.size());
  std::iota(order_.begin(), order_.end(), 0);
  Random rng(seed);
  rng.Shuffle(&order_);
}

size_t OnlineAggregator::ProcessNext(size_t batch) {
  const size_t consumed = std::min(batch, order_.size() - cursor_);
  for (const size_t end = cursor_ + consumed; cursor_ < end; ++cursor_) {
    const uint32_t row = order_[cursor_];
    if (mask_[row] == 0) continue;
    if (kind_ == AggKind::kCount) {
      ++matched_.count;
    } else {
      matched_.Add(values_[row]);
    }
  }
  if (consumed > 0) {
    RoundsCounter()->Add();
    RowsCounter()->Add(consumed);
  }
  return consumed;
}

Estimate OnlineAggregator::Current(double confidence) const {
  return EstimateAggregate(kind_, matched_, cursor_, order_.size(),
                           confidence);
}

OnlineInput BuildOnlineInput(const std::vector<Condition>& conditions,
                             const std::vector<const ColumnVector*>& cols,
                             const ColumnVector* measure, size_t num_rows,
                             ThreadPool* pool, size_t partition_rows,
                             uint64_t* partitions_dispatched,
                             uint32_t* threads_used) {
  OnlineInput input;
  input.values.assign(num_rows, 0.0);
  input.mask.assign(num_rows, 0);
  if (num_rows == 0) return input;
  if (partition_rows == 0) partition_rows = num_rows;

  auto fill = [&](size_t begin, size_t end) {
    // Workers touch disjoint [begin, end) slices: plain writes, no sync.
    std::vector<uint32_t> hits;
    Predicate::FilterRange(conditions, cols, static_cast<uint32_t>(begin),
                           static_cast<uint32_t>(end), &hits);
    for (uint32_t row : hits) input.mask[row] = 1;
    if (measure != nullptr) {
      if (measure->type() == DataType::kDouble) {
        const double* src = measure->double_data().data();
        std::copy(src + begin, src + end, input.values.data() + begin);
      } else if (measure->type() == DataType::kInt64) {
        simd::ActiveKernels().widen_i64_f64(
            measure->int64_data().data() + begin, end - begin,
            input.values.data() + begin);
      } else {
        for (size_t row = begin; row < end; ++row) {
          input.values[row] = measure->GetDouble(row);
        }
      }
    }
  };

  const size_t partitions = (num_rows + partition_rows - 1) / partition_rows;
  if (pool == nullptr || partitions < 2) {
    fill(0, num_rows);
    if (partitions_dispatched != nullptr) *partitions_dispatched += 1;
    return input;
  }
  ThreadPool::ForStats stats = pool->ParallelFor(partitions, [&](size_t p) {
    size_t begin = p * partition_rows;
    fill(begin, std::min(num_rows, begin + partition_rows));
  });
  if (partitions_dispatched != nullptr) *partitions_dispatched += stats.chunks;
  if (threads_used != nullptr) {
    *threads_used = std::max(*threads_used, stats.threads_used);
  }
  return input;
}

}  // namespace exploredb
