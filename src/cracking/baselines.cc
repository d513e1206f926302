#include "cracking/baselines.h"

#include <algorithm>
#include <numeric>

namespace exploredb {

std::vector<uint32_t> ScanSelector::RangeSelect(int64_t lo, int64_t hi) const {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < values_.size(); ++i) {
    if (values_[i] >= lo && values_[i] < hi) {
      out.push_back(static_cast<uint32_t>(i));
    }
  }
  return out;
}

size_t ScanSelector::RangeCount(int64_t lo, int64_t hi) const {
  size_t count = 0;
  for (int64_t v : values_) {
    count += (v >= lo && v < hi);
  }
  return count;
}

SortedIndex::SortedIndex(const std::vector<int64_t>& values)
    : sorted_values_(values), sorted_row_ids_(values.size()) {
  std::iota(sorted_row_ids_.begin(), sorted_row_ids_.end(), 0);
  std::sort(sorted_row_ids_.begin(), sorted_row_ids_.end(),
            [&values](uint32_t a, uint32_t b) {
              return values[a] < values[b];
            });
  std::sort(sorted_values_.begin(), sorted_values_.end());
}

std::vector<uint32_t> SortedIndex::RangeSelect(int64_t lo, int64_t hi) const {
  if (lo >= hi) return {};  // contradictory bounds: e would precede b
  auto b = std::lower_bound(sorted_values_.begin(), sorted_values_.end(), lo);
  auto e = std::lower_bound(sorted_values_.begin(), sorted_values_.end(), hi);
  return std::vector<uint32_t>(
      sorted_row_ids_.begin() + (b - sorted_values_.begin()),
      sorted_row_ids_.begin() + (e - sorted_values_.begin()));
}

size_t SortedIndex::RangeCount(int64_t lo, int64_t hi) const {
  if (lo >= hi) return 0;
  auto b = std::lower_bound(sorted_values_.begin(), sorted_values_.end(), lo);
  auto e = std::lower_bound(sorted_values_.begin(), sorted_values_.end(), hi);
  return static_cast<size_t>(e - b);
}

}  // namespace exploredb
