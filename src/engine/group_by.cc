#include "engine/group_by.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <unordered_map>

#include "common/thread_pool.h"
#include "simd/simd.h"

namespace exploredb {

namespace {

/// Per-group running aggregate of an exact selection: enough state for
/// COUNT/SUM/AVG exactly. A sample's groups keep Moments instead, which
/// share its interface: `count`, Add and Merge.
struct Acc {
  double sum = 0.0;
  uint64_t count = 0;

  void Add(double x) {
    ++count;
    sum += x;
  }
  void Merge(const Acc& other) {
    sum += other.sum;
    count += other.count;
  }
};

/// Widest int64 key domain served by the dense-array fast path.
constexpr uint64_t kDenseDomainLimit = uint64_t{1} << 16;
/// Total dense accumulator budget across all morsel partials (entries);
/// beyond it the sparse hash path is cheaper than zero-filling.
constexpr size_t kDenseBudget = size_t{4} << 20;

Status InterruptedStatus(const ExecContext& ctx) {
  return ctx.cancelled() ? Status::Cancelled("query cancelled")
                         : Status::DeadlineExceeded("query deadline exceeded");
}

/// Runs body(begin, end, &partials[m]) over morsels of `count` items — on
/// the pool when available, inline otherwise — and returns the per-morsel
/// partial tables. `proto` seeds each partial (dense paths pre-size here).
template <typename Partial, typename Body>
std::vector<Partial> MorselPartials(size_t count, const ExecContext& ctx,
                                    ExecStats* stats, const Partial& proto,
                                    const Body& body) {
  const size_t morsel = std::max<size_t>(1, ctx.morsel_size());
  const size_t num_morsels = count == 0 ? 0 : (count + morsel - 1) / morsel;
  std::vector<Partial> parts(num_morsels, proto);
  const bool tracing = ctx.tracing();
  auto run = [&](size_t m) {
    if (ctx.Interrupted()) return;
    TraceSpan span("groupby_morsel", tracing);
    body(m * morsel, std::min(count, m * morsel + morsel), &parts[m]);
  };
  ThreadPool* pool = ctx.thread_pool();
  if (pool != nullptr && num_morsels > 1) {
    ThreadPool::ForStats fs = pool->ParallelFor(num_morsels, run);
    stats->morsels_dispatched += fs.chunks;
    stats->threads_used = std::max(stats->threads_used, fs.threads_used);
  } else {
    for (size_t m = 0; m < num_morsels; ++m) run(m);
    stats->morsels_dispatched += num_morsels;
  }
  return parts;
}

/// Double group keys hash by bit pattern; collapse every NaN payload onto
/// one canonical pattern so all NaNs land in a single group (as the old
/// string-keyed accumulator did via "nan").
uint64_t DoubleKeyBits(double v) {
  if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double DoubleFromBits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// HashGroupBy over accumulators of type A (Acc or Moments), each group
/// finished by `finish`.
template <typename A, typename Finish>
Result<std::vector<GroupValue>> GroupRows(
    const ColumnVector& keys, const ColumnVector* measure,
    const std::vector<uint32_t>& positions,
    std::optional<std::pair<int64_t, int64_t>> key_range,
    const ExecContext& ctx, ExecStats* stats, const Finish& finish) {
  std::vector<GroupValue> out;
  if (positions.empty()) return out;

  const double* mdbl =
      measure != nullptr && measure->type() == DataType::kDouble
          ? measure->double_data().data()
          : nullptr;
  const int64_t* mi64 =
      measure != nullptr && measure->type() == DataType::kInt64
          ? measure->int64_data().data()
          : nullptr;
  const bool has_measure = measure != nullptr;
  auto measure_at = [&](uint32_t row) {
    return mdbl != nullptr ? mdbl[row] : static_cast<double>(mi64[row]);
  };

  const size_t morsel = std::max<size_t>(1, ctx.morsel_size());
  const size_t num_morsels = (positions.size() + morsel - 1) / morsel;
  const uint32_t* pos = positions.data();

  // Accumulated (display key, aggregate) pairs, order fixed up at the end.
  std::vector<std::pair<std::string, A>> flat;

  // Dense path shared by dictionary codes and narrow int64 domains:
  // per-morsel accumulator arrays indexed by `code(row)`, folded in morsel
  // order. `code_array` (non-null for dictionary keys) unlocks the gathered
  // block loop: codes — and double measures — are fetched through the
  // dispatched gather kernels a block at a time, then accumulated in the
  // original row order, so the sums are bit-identical to the row-at-a-time
  // loop.
  auto run_dense = [&](size_t span, auto code, auto display,
                       const uint32_t* code_array) -> Status {
    const simd::KernelTable& kt = simd::ActiveKernels();
    std::vector<std::vector<A>> parts = MorselPartials(
        positions.size(), ctx, stats, std::vector<A>(span),
        [&](size_t begin, size_t end, std::vector<A>* t) {
          A* accs = t->data();
          if (code_array != nullptr) {
            constexpr size_t kBlock = 128;
            uint32_t code_buf[kBlock];
            double val_buf[kBlock];
            for (size_t i = begin; i < end; i += kBlock) {
              const auto blk = static_cast<uint32_t>(std::min(kBlock, end - i));
              kt.gather_u32(code_array, pos + i, blk, code_buf);
              if (mdbl != nullptr) kt.gather_f64(mdbl, pos + i, blk, val_buf);
              for (uint32_t j = 0; j < blk; ++j) {
                A& a = accs[code_buf[j]];
                if (mdbl != nullptr) {
                  a.Add(val_buf[j]);
                } else if (has_measure) {
                  a.Add(measure_at(pos[i + j]));
                } else {
                  ++a.count;
                }
              }
            }
            return;
          }
          for (size_t i = begin; i < end; ++i) {
            const uint32_t row = pos[i];
            A& a = accs[code(row)];
            if (has_measure) {
              a.Add(measure_at(row));
            } else {
              ++a.count;
            }
          }
        });
    if (ctx.Interrupted()) return InterruptedStatus(ctx);
    std::vector<A> merged(span);
    for (const std::vector<A>& p : parts) {
      for (size_t k = 0; k < span; ++k) merged[k].Merge(p[k]);
    }
    for (size_t k = 0; k < span; ++k) {
      if (merged[k].count != 0) flat.emplace_back(display(k), merged[k]);
    }
    return Status::OK();
  };

  // Sparse path: per-morsel hash tables over an integral key image.
  auto run_sparse = [&](auto code, auto display) -> Status {
    using Key = decltype(code(uint32_t{0}));
    using Table = std::unordered_map<Key, A>;
    std::vector<Table> parts = MorselPartials(
        positions.size(), ctx, stats, Table{},
        [&](size_t begin, size_t end, Table* t) {
          for (size_t i = begin; i < end; ++i) {
            const uint32_t row = pos[i];
            A& a = (*t)[code(row)];
            if (has_measure) {
              a.Add(measure_at(row));
            } else {
              ++a.count;
            }
          }
        });
    if (ctx.Interrupted()) return InterruptedStatus(ctx);
    // Distinct keys are independent, so per-key fold order across morsels
    // (morsel order) is all that determinism needs.
    Table merged;
    for (const Table& p : parts) {
      for (const auto& [k, a] : p) merged[k].Merge(a);
    }
    flat.reserve(merged.size());
    for (const auto& [k, a] : merged) flat.emplace_back(display(k), a);
    return Status::OK();
  };

  Status st = Status::OK();
  switch (keys.type()) {
    case DataType::kString: {
      const uint32_t* codes = keys.codes().data();
      const StringDictionary& dict = keys.dictionary();
      const size_t span = dict.size();
      if (span > 0 && span * num_morsels <= kDenseBudget) {
        st = run_dense(
            span, [&](uint32_t row) { return codes[row]; },
            [&](size_t k) { return dict.value(static_cast<uint32_t>(k)); },
            codes);
      } else {
        st = run_sparse([&](uint32_t row) { return codes[row]; },
                        [&](uint32_t k) { return dict.value(k); });
      }
      break;
    }
    case DataType::kInt64: {
      const int64_t* kd = keys.int64_data().data();
      bool dense = false;
      int64_t lo = 0;
      uint64_t span = 0;
      if (key_range.has_value() && key_range->first <= key_range->second) {
        lo = key_range->first;
        span = static_cast<uint64_t>(key_range->second) -
               static_cast<uint64_t>(lo) + 1;
        dense = span <= kDenseDomainLimit && span * num_morsels <= kDenseBudget;
      }
      if (dense) {
        st = run_dense(
            static_cast<size_t>(span),
            [&](uint32_t row) { return static_cast<size_t>(kd[row] - lo); },
            [&](size_t k) { return std::to_string(lo + static_cast<int64_t>(k)); },
            nullptr);
      } else {
        st = run_sparse([&](uint32_t row) { return kd[row]; },
                        [](int64_t k) { return std::to_string(k); });
      }
      break;
    }
    case DataType::kDouble: {
      const double* kd = keys.double_data().data();
      st = run_sparse([&](uint32_t row) { return DoubleKeyBits(kd[row]); },
                      [](uint64_t k) {
                        return Value(DoubleFromBits(k)).ToString();
                      });
      break;
    }
  }
  if (!st.ok()) return st;

  // Match the historical std::map<std::string, Acc> accumulator: groups
  // come out sorted by display key.
  std::sort(flat.begin(), flat.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out.reserve(flat.size());
  for (const auto& [key, acc] : flat) out.push_back({key, finish(acc)});
  return out;
}

}  // namespace

Result<std::vector<GroupValue>> HashGroupBy(
    const ColumnVector& keys, const ColumnVector* measure, AggKind kind,
    double confidence, const std::vector<uint32_t>& positions,
    std::optional<std::pair<int64_t, int64_t>> key_range,
    std::optional<std::pair<uint64_t, uint64_t>> sample,
    const ExecContext& ctx, ExecStats* stats) {
  if (!sample.has_value()) {
    return GroupRows<Acc>(
        keys, measure, positions, key_range, ctx, stats, [&](const Acc& a) {
          return ExactAggregate(kind, a.sum, a.count, confidence);
        });
  }
  return GroupRows<Moments>(
      keys, measure, positions, key_range, ctx, stats, [&](const Moments& m) {
        return EstimateAggregate(kind, m, sample->first, sample->second,
                                 confidence);
      });
}

}  // namespace exploredb
