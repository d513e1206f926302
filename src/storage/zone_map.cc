#include "storage/zone_map.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <type_traits>

#include "storage/compression/compressed_column.h"

namespace exploredb {

namespace {

/// Can any value v with mn <= v <= mx satisfy `v op k`?
template <typename T>
bool BoundsMayMatch(T mn, T mx, CompareOp op, T k) {
  switch (op) {
    case CompareOp::kLt:
      return mn < k;
    case CompareOp::kLe:
      return mn <= k;
    case CompareOp::kGt:
      return mx > k;
    case CompareOp::kGe:
      return mx >= k;
    case CompareOp::kEq:
      return mn <= k && k <= mx;
    case CompareOp::kNe:
      return !(mn == k && mx == k);
  }
  return true;
}

template <typename T>
void BuildZones(const std::vector<T>& data, size_t zone_rows,
                std::vector<T>* mins, std::vector<T>* maxes) {
  const size_t n = data.size();
  const size_t zones = (n + zone_rows - 1) / zone_rows;
  mins->reserve(zones);
  maxes->reserve(zones);
  for (size_t z = 0; z < zones; ++z) {
    const size_t begin = z * zone_rows;
    const size_t end = std::min(n, begin + zone_rows);
    T mn = data[begin];
    T mx = data[begin];
    for (size_t i = begin + 1; i < end; ++i) {
      mn = std::min(mn, data[i]);
      mx = std::max(mx, data[i]);
    }
    mins->push_back(mn);
    maxes->push_back(mx);
  }
}

/// Kernel-dispatched variant of BuildZones. Validate() deliberately keeps
/// the std::min/std::max loop above as an independent oracle; the two agree
/// under BoundsEqual because the kernels preserve NaN-skip/NaN-seed
/// semantics and == ignores the sign of zero.
template <typename T, typename MinMaxFn>
void BuildZonesDispatched(const std::vector<T>& data, size_t zone_rows,
                          MinMaxFn minmax, std::vector<T>* mins,
                          std::vector<T>* maxes) {
  const size_t n = data.size();
  const size_t zones = (n + zone_rows - 1) / zone_rows;
  mins->reserve(zones);
  maxes->reserve(zones);
  for (size_t z = 0; z < zones; ++z) {
    const size_t begin = z * zone_rows;
    const size_t end = std::min(n, begin + zone_rows);
    T mn;
    T mx;
    minmax(data.data() + begin, end - begin, &mn, &mx);
    mins->push_back(mn);
    maxes->push_back(mx);
  }
}

}  // namespace

ZoneMap ZoneMap::Build(const ColumnVector& col, size_t zone_rows) {
  ZoneMap zm;
  zm.type_ = col.type();
  zm.zone_rows_ = std::max<size_t>(1, zone_rows);
  zm.num_rows_ = col.size();
  const simd::KernelTable& kt = simd::ActiveKernels();
  switch (col.type()) {
    case DataType::kInt64:
      BuildZonesDispatched(col.int64_data(), zm.zone_rows_, kt.minmax_i64,
                           &zm.min_i64_, &zm.max_i64_);
      break;
    case DataType::kDouble:
      BuildZonesDispatched(col.double_data(), zm.zone_rows_, kt.minmax_f64,
                           &zm.min_dbl_, &zm.max_dbl_);
      break;
    case DataType::kString:
      break;  // no synopsis: MayMatch stays conservative (always true)
  }
  return zm;
}

size_t ZoneMap::num_zones() const {
  return type_ == DataType::kInt64 ? min_i64_.size() : min_dbl_.size();
}

bool ZoneMap::MayMatch(const Condition& c, uint32_t begin, uint32_t end) const {
  if (begin >= end) return true;
  if (c.constant.is_string()) return true;
  const size_t zones = num_zones();
  if (zones == 0) return true;
  size_t z0 = begin / zone_rows_;
  size_t z1 = std::min(zones - 1, static_cast<size_t>(end - 1) / zone_rows_);
  for (size_t z = z0; z <= z1; ++z) {
    switch (type_) {
      case DataType::kInt64:
        if (c.constant.is_int64()) {
          // Exact integer bounds test — matches the int64 comparison the
          // scan kernel performs.
          if (BoundsMayMatch(min_i64_[z], max_i64_[z], c.op,
                             c.constant.int64())) {
            return true;
          }
        } else {
          // The kernel widens int64 cells to double for double constants;
          // the cast is monotone, so casting the bounds is sound.
          if (BoundsMayMatch(static_cast<double>(min_i64_[z]),
                             static_cast<double>(max_i64_[z]), c.op,
                             c.constant.AsDouble())) {
            return true;
          }
        }
        break;
      case DataType::kDouble:
        // NaN cells defeat min/max bounds (and always satisfy !=), so stay
        // conservative whenever the bounds are contaminated or the op is kNe.
        if (c.op == CompareOp::kNe || std::isnan(min_dbl_[z]) ||
            std::isnan(max_dbl_[z])) {
          return true;
        }
        if (BoundsMayMatch(min_dbl_[z], max_dbl_[z], c.op,
                           c.constant.AsDouble())) {
          return true;
        }
        break;
      case DataType::kString:
        return true;
    }
  }
  return false;
}

namespace {

/// Equality that treats two NaNs as equal (double zones keep NaN bounds).
template <typename T>
bool BoundsEqual(T a, T b) {
  if constexpr (std::is_floating_point_v<T>) {
    if (std::isnan(a) && std::isnan(b)) return true;
  }
  return a == b;
}

template <typename T>
Status ValidateZones(const std::vector<T>& data, size_t zone_rows,
                     const std::vector<T>& mins, const std::vector<T>& maxes) {
  std::vector<T> want_min;
  std::vector<T> want_max;
  BuildZones(data, zone_rows, &want_min, &want_max);
  for (size_t z = 0; z < mins.size(); ++z) {
    if (!BoundsEqual(mins[z], want_min[z]) ||
        !BoundsEqual(maxes[z], want_max[z])) {
      return Status::Internal("zone map: zone " + std::to_string(z) +
                              " bounds disagree with the column");
    }
  }
  return Status::OK();
}

}  // namespace

Status ZoneMap::Validate(const ColumnVector* col) const {
  if (zone_rows_ == 0) return Status::Internal("zone map: zero zone width");
  if (type_ == DataType::kString) {
    return Status::Internal("zone map: built over a string column");
  }
  const size_t zones = num_zones();
  const size_t want_zones = (num_rows_ + zone_rows_ - 1) / zone_rows_;
  if (zones != want_zones) {
    return Status::Internal("zone map: " + std::to_string(zones) +
                            " zones do not cover " +
                            std::to_string(num_rows_) + " rows (expected " +
                            std::to_string(want_zones) + ")");
  }
  // Min/max arrays of the active type are parallel; the other type's empty.
  const bool is_int = type_ == DataType::kInt64;
  const size_t active_min = is_int ? min_i64_.size() : min_dbl_.size();
  const size_t active_max = is_int ? max_i64_.size() : max_dbl_.size();
  const size_t inactive =
      is_int ? min_dbl_.size() + max_dbl_.size()
             : min_i64_.size() + max_i64_.size();
  if (active_min != zones || active_max != zones || inactive != 0) {
    return Status::Internal("zone map: bound arrays inconsistent with type");
  }
  for (size_t z = 0; z < zones; ++z) {
    if (is_int) {
      if (min_i64_[z] > max_i64_[z]) {
        return Status::Internal("zone map: zone " + std::to_string(z) +
                                " has min > max");
      }
    } else if (!(std::isnan(min_dbl_[z]) || std::isnan(max_dbl_[z])) &&
               min_dbl_[z] > max_dbl_[z]) {
      return Status::Internal("zone map: zone " + std::to_string(z) +
                              " has min > max");
    }
  }
  if (col != nullptr) {
    if (col->type() != type_ || col->size() != num_rows_) {
      return Status::Internal("zone map: column type/size changed since build");
    }
    if (is_int) {
      return ValidateZones(col->int64_data(), zone_rows_, min_i64_, max_i64_);
    }
    return ValidateZones(col->double_data(), zone_rows_, min_dbl_, max_dbl_);
  }
  return Status::OK();
}

double UniformSelectivityFraction(double mn, double mx, CompareOp op,
                                  double k) {
  if (std::isnan(mn) || std::isnan(mx) || std::isnan(k)) return 1.0;
  const double width = mx - mn;
  // P(v < k) and P(v <= k); the two differ only by the point mass at k,
  // which a capacity hint can ignore except in the degenerate zone.
  const auto frac_lt = [&](bool inclusive) {
    if (k < mn || (k == mn && !inclusive)) return 0.0;
    if (k > mx || (k == mx && inclusive)) return 1.0;
    // An infinite bound makes the width infinite, and inf / inf is NaN.
    return width > 0 && std::isfinite(width) ? (k - mn) / width : 0.5;
  };
  const auto frac_eq = [&] {
    if (k < mn || k > mx) return 0.0;
    return width > 0 ? 1.0 / (width + 1) : 1.0;
  };
  switch (op) {
    case CompareOp::kLt:
      return frac_lt(false);
    case CompareOp::kLe:
      return frac_lt(true);
    case CompareOp::kGt:
      return 1.0 - frac_lt(true);
    case CompareOp::kGe:
      return 1.0 - frac_lt(false);
    case CompareOp::kEq:
      return frac_eq();
    case CompareOp::kNe:
      return 1.0 - frac_eq();
  }
  return 1.0;
}

double ZoneMap::EstimateSelectivity(const Condition& c) const {
  if (type_ == DataType::kString || c.constant.is_string() || num_rows_ == 0) {
    return 1.0;
  }
  const size_t zones = num_zones();
  if (zones == 0) return 1.0;
  const double k = c.constant.AsDouble();
  double expected = 0;  // expected matching rows across all zones
  for (size_t z = 0; z < zones; ++z) {
    const size_t begin = z * zone_rows_;
    const size_t rows = std::min(num_rows_, begin + zone_rows_) - begin;
    const double mn = type_ == DataType::kInt64
                          ? static_cast<double>(min_i64_[z])
                          : min_dbl_[z];
    const double mx = type_ == DataType::kInt64
                          ? static_cast<double>(max_i64_[z])
                          : max_dbl_[z];
    expected +=
        UniformSelectivityFraction(mn, mx, c.op, k) * static_cast<double>(rows);
  }
  return std::clamp(expected / static_cast<double>(num_rows_), 0.0, 1.0);
}

double ZoneMap::EstimateSelectivity(const Condition& c,
                                    const CompressedInt64Column* comp) const {
  if (comp != nullptr && type_ == DataType::kInt64 && c.constant.is_int64()) {
    return comp->EstimateSelectivity(c.op, c.constant.int64());
  }
  return EstimateSelectivity(c);
}

std::optional<std::pair<int64_t, int64_t>> ZoneMap::Int64Range() const {
  if (type_ != DataType::kInt64 || min_i64_.empty()) return std::nullopt;
  int64_t mn = min_i64_[0];
  int64_t mx = max_i64_[0];
  for (size_t z = 1; z < min_i64_.size(); ++z) {
    mn = std::min(mn, min_i64_[z]);
    mx = std::max(mx, max_i64_[z]);
  }
  return std::make_pair(mn, mx);
}

}  // namespace exploredb
