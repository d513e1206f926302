#ifndef EXPLOREDB_SAMPLING_SAMPLER_H_
#define EXPLOREDB_SAMPLING_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "common/random.h"

namespace exploredb {

/// Streaming uniform sampler (Vitter's Algorithm R): maintains a uniform
/// k-subset of everything Add()ed so far without knowing the stream length.
/// Used for building AQP samples in one pass and by the online aggregator.
class ReservoirSampler {
 public:
  ReservoirSampler(size_t capacity, uint64_t seed = 42)
      : capacity_(capacity), rng_(seed) {}

  /// Offers stream element `row` to the reservoir.
  void Add(uint32_t row);

  /// The current uniform sample (size = min(capacity, items seen)).
  const std::vector<uint32_t>& sample() const { return reservoir_; }
  size_t items_seen() const { return items_seen_; }

 private:
  size_t capacity_;
  Random rng_;
  std::vector<uint32_t> reservoir_;
  size_t items_seen_ = 0;
};

/// Uniform sample of `k` distinct positions from [0, n) (Floyd's algorithm
/// when k << n, partial shuffle otherwise). Sorted ascending.
std::vector<uint32_t> SamplePositions(size_t n, size_t k, Random* rng);

/// Bernoulli sample of the rows [begin, end): appends each row to *out
/// independently with probability `fraction`, ascending. Costs
/// O((end - begin) * fraction): gaps between kept rows are drawn from a
/// geometric distribution. A NaN or non-positive fraction keeps no row; a
/// fraction >= 1 keeps every row.
void BernoulliSample(size_t begin, size_t end, double fraction, Random* rng,
                     std::vector<uint32_t>* out);

}  // namespace exploredb

#endif  // EXPLOREDB_SAMPLING_SAMPLER_H_
