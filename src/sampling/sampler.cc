#include "sampling/sampler.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace exploredb {

void ReservoirSampler::Add(uint32_t row) {
  ++items_seen_;
  if (reservoir_.size() < capacity_) {
    reservoir_.push_back(row);
    return;
  }
  size_t j = rng_.Uniform(items_seen_);
  if (j < capacity_) reservoir_[j] = row;
}

std::vector<uint32_t> SamplePositions(size_t n, size_t k, Random* rng) {
  k = std::min(k, n);
  std::vector<uint32_t> out;
  out.reserve(k);
  if (k * 4 < n) {
    // Floyd's algorithm: k iterations, expected O(k) set operations.
    std::unordered_set<uint32_t> chosen;
    chosen.reserve(k * 2);
    for (size_t j = n - k; j < n; ++j) {
      uint32_t t = static_cast<uint32_t>(rng->Uniform(j + 1));
      if (!chosen.insert(t).second) {
        chosen.insert(static_cast<uint32_t>(j));
      }
    }
    out.assign(chosen.begin(), chosen.end());
  } else {
    std::vector<uint32_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = static_cast<uint32_t>(i);
    // Partial Fisher-Yates: first k slots become the sample.
    for (size_t i = 0; i < k; ++i) {
      size_t j = i + rng->Uniform(n - i);
      std::swap(all[i], all[j]);
    }
    out.assign(all.begin(), all.begin() + k);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void BernoulliSample(size_t begin, size_t end, double fraction, Random* rng,
                     std::vector<uint32_t>* out) {
  if (!(fraction > 0.0)) return;  // also NaN
  if (fraction >= 1.0) {
    for (size_t row = begin; row < end; ++row) {
      out->push_back(static_cast<uint32_t>(row));
    }
    return;
  }
  // Skip sampling: the gap before the next kept row is Geometric(fraction),
  // drawn by inversion, so the cost is one draw per kept row rather than one
  // per row, and every row is still kept independently with probability
  // `fraction`.
  const double log_skip = std::log1p(-fraction);
  size_t next = begin;
  while (true) {
    const double gap = std::floor(std::log1p(-rng->NextDouble()) / log_skip);
    // Comparing in double first keeps an infinite or oversized gap (a
    // denormal fraction) away from the integer cast.
    if (!(gap < static_cast<double>(end - next))) break;
    next += static_cast<size_t>(gap);
    out->push_back(static_cast<uint32_t>(next));
    ++next;
  }
}

}  // namespace exploredb
