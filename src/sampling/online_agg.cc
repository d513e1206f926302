#include "sampling/online_agg.h"

#include <algorithm>
#include <cmath>
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

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kAvg:
      return "AVG";
    case AggKind::kSum:
      return "SUM";
    case AggKind::kCount:
      return "COUNT";
  }
  return "?";
}

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
  size_t consumed = 0;
  while (consumed < batch && cursor_ < order_.size()) {
    uint32_t row = order_[cursor_++];
    ++consumed;
    bool hit = mask_[row] != 0;
    matches_ += hit;
    double x;
    size_t n;
    switch (kind_) {
      case AggKind::kAvg:
        // Welford over matched values only.
        if (!hit) continue;
        x = values_[row];
        n = matches_;
        break;
      case AggKind::kSum:
        x = hit ? values_[row] : 0.0;
        n = cursor_;
        break;
      case AggKind::kCount:
      default:
        continue;  // COUNT's estimate needs only matches_
    }
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n);
    m2_ += delta * (x - mean_);
  }
  if (consumed > 0) {
    RoundsCounter()->Add();
    RowsCounter()->Add(consumed);
  }
  return consumed;
}

Estimate OnlineAggregator::Current(double confidence) const {
  Estimate e;
  e.confidence = confidence;
  e.sample_size = cursor_;
  const double N = static_cast<double>(order_.size());
  const double processed = static_cast<double>(cursor_);
  // Finite-population correction: the interval collapses as we approach a
  // complete scan, which is the defining UX of online aggregation.
  double fpc = (N > 1 && processed < N)
                   ? std::sqrt((N - processed) / (N - 1))
                   : 0.0;
  const double z = ZScore(confidence);
  switch (kind_) {
    case AggKind::kAvg: {
      e.value = mean_;
      if (matches_ > 1) {
        double sd = std::sqrt(m2_ / static_cast<double>(matches_ - 1));
        e.ci_half_width =
            z * sd / std::sqrt(static_cast<double>(matches_)) * fpc;
      } else {
        e.ci_half_width = INFINITY;
      }
      break;
    }
    case AggKind::kSum: {
      e.value = mean_ * N;
      if (cursor_ > 1) {
        double sd = std::sqrt(m2_ / (processed - 1));
        e.ci_half_width = z * sd / std::sqrt(processed) * N * fpc;
      } else {
        e.ci_half_width = INFINITY;
      }
      break;
    }
    case AggKind::kCount:
      // The sampled path's estimator. Its Wilson interval keeps a positive
      // width while every row seen so far matched, where a normal interval
      // over the 0/1 contributions has none.
      return EstimateCount(matches_, cursor_, order_.size(), confidence);
  }
  return e;
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
