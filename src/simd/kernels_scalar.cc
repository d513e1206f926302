// Scalar reference kernels. Every vector implementation must match these
// bit-for-bit; the floating-point reductions therefore follow the exact
// 8-lane-striped accumulation documented in simd.h rather than a naive
// left-to-right fold, so a 4-wide AVX2 register pair replays the same
// sequence of additions per lane.

#include <cmath>

#include "simd/kernels_internal.h"

namespace exploredb::simd::scalar {

namespace {

// Folds that match the x86 minpd/maxpd operand semantics exactly:
// min(src1=x, src2=m) returns m on ties and whenever either operand is NaN
// with x not strictly smaller — i.e. `x < m ? x : m`. Using the same rule in
// the scalar stripes keeps ±0 selection and NaN skipping identical.
inline double MinFold(double x, double m) { return x < m ? x : m; }
inline double MaxFold(double x, double m) { return x > m ? x : m; }

template <typename T, typename Pred>
uint32_t FilterImpl(const T* d, uint32_t begin, uint32_t end, Pred pred,
                    uint32_t* out) {
  uint32_t n = 0;
  for (uint32_t r = begin; r < end; ++r) {
    if (pred(d[r])) out[n++] = r;
  }
  return n;
}

template <typename T, typename Pred>
uint32_t RefineImpl(const T* d, const uint32_t* sel, uint32_t n, Pred pred,
                    uint32_t* out) {
  uint32_t kept = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t r = sel[i];
    if (pred(d[r])) out[kept++] = r;  // kept <= i, so out may alias sel
  }
  return kept;
}

// Applies `fn` with the predicate for `op` against constant `k`.
template <typename T, typename Fn>
auto WithPred(Cmp op, T k, Fn fn) {
  switch (op) {
    case Cmp::kLt:
      return fn([k](T v) { return v < k; });
    case Cmp::kLe:
      return fn([k](T v) { return v <= k; });
    case Cmp::kGt:
      return fn([k](T v) { return v > k; });
    case Cmp::kGe:
      return fn([k](T v) { return v >= k; });
    case Cmp::kEq:
      return fn([k](T v) { return v == k; });
    case Cmp::kNe:
    default:
      return fn([k](T v) { return v != k; });
  }
}

}  // namespace

uint32_t FilterI64Cmp(const int64_t* d, uint32_t begin, uint32_t end, Cmp op,
                      int64_t k, uint32_t* out) {
  return WithPred<int64_t>(op, k, [&](auto pred) {
    return FilterImpl(d, begin, end, pred, out);
  });
}

uint32_t FilterF64Cmp(const double* d, uint32_t begin, uint32_t end, Cmp op,
                      double k, uint32_t* out) {
  return WithPred<double>(op, k, [&](auto pred) {
    return FilterImpl(d, begin, end, pred, out);
  });
}

uint32_t FilterI64Range(const int64_t* d, uint32_t begin, uint32_t end,
                        int64_t lo, int64_t hi, uint32_t* out) {
  uint32_t n = 0;
  for (uint32_t r = begin; r < end; ++r) {
    if (d[r] >= lo && d[r] < hi) out[n++] = r;
  }
  return n;
}

uint32_t RefineI64Cmp(const int64_t* d, const uint32_t* sel, uint32_t n,
                      Cmp op, int64_t k, uint32_t* out) {
  return WithPred<int64_t>(op, k, [&](auto pred) {
    return RefineImpl(d, sel, n, pred, out);
  });
}

uint32_t RefineF64Cmp(const double* d, const uint32_t* sel, uint32_t n,
                      Cmp op, double k, uint32_t* out) {
  return WithPred<double>(op, k, [&](auto pred) {
    return RefineImpl(d, sel, n, pred, out);
  });
}

double SumF64Sel(const double* v, const uint32_t* sel, uint32_t n) {
  double lane[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  uint32_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int j = 0; j < 8; ++j) lane[j] += v[sel[i + j]];
  }
  for (; i < n; ++i) lane[i % 8] += v[sel[i]];
  const double b0 = lane[0] + lane[4];
  const double b1 = lane[1] + lane[5];
  const double b2 = lane[2] + lane[6];
  const double b3 = lane[3] + lane[7];
  return (b0 + b2) + (b1 + b3);
}

double SumI64Sel(const int64_t* v, const uint32_t* sel, uint32_t n) {
  double lane[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  uint32_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int j = 0; j < 8; ++j) lane[j] += static_cast<double>(v[sel[i + j]]);
  }
  for (; i < n; ++i) lane[i % 8] += static_cast<double>(v[sel[i]]);
  const double b0 = lane[0] + lane[4];
  const double b1 = lane[1] + lane[5];
  const double b2 = lane[2] + lane[6];
  const double b3 = lane[3] + lane[7];
  return (b0 + b2) + (b1 + b3);
}

void MinMaxI64(const int64_t* d, size_t n, int64_t* mn, int64_t* mx) {
  int64_t lo = d[0];
  int64_t hi = d[0];
  for (size_t i = 1; i < n; ++i) {
    if (d[i] < lo) lo = d[i];
    if (d[i] > hi) hi = d[i];
  }
  *mn = lo;
  *mx = hi;
}

void MinMaxF64(const double* d, size_t n, double* mn, double* mx) {
  // Striped with every lane seeded d[0]: idempotent for min/max, keeps an
  // all-NaN block's NaN bounds, and replays the AVX2 lane order exactly.
  double lo[8];
  double hi[8];
  for (int j = 0; j < 8; ++j) lo[j] = hi[j] = d[0];
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int j = 0; j < 8; ++j) {
      lo[j] = MinFold(d[i + j], lo[j]);
      hi[j] = MaxFold(d[i + j], hi[j]);
    }
  }
  for (; i < n; ++i) {
    lo[i % 8] = MinFold(d[i], lo[i % 8]);
    hi[i % 8] = MaxFold(d[i], hi[i % 8]);
  }
  const double l0 = MinFold(lo[0], lo[4]);
  const double l1 = MinFold(lo[1], lo[5]);
  const double l2 = MinFold(lo[2], lo[6]);
  const double l3 = MinFold(lo[3], lo[7]);
  *mn = MinFold(MinFold(l0, l2), MinFold(l1, l3));
  const double h0 = MaxFold(hi[0], hi[4]);
  const double h1 = MaxFold(hi[1], hi[5]);
  const double h2 = MaxFold(hi[2], hi[6]);
  const double h3 = MaxFold(hi[3], hi[7]);
  *mx = MaxFold(MaxFold(h0, h2), MaxFold(h1, h3));
}

void GatherU32(const uint32_t* src, const uint32_t* sel, uint32_t n,
               uint32_t* out) {
  for (uint32_t i = 0; i < n; ++i) out[i] = src[sel[i]];
}

void GatherF64(const double* src, const uint32_t* sel, uint32_t n,
               double* out) {
  for (uint32_t i = 0; i < n; ++i) out[i] = src[sel[i]];
}

void WidenI64F64(const int64_t* src, size_t n, double* dst) {
  for (size_t i = 0; i < n; ++i) dst[i] = static_cast<double>(src[i]);
}

namespace {

// Extracts the `width`-bit delta at index j from the little-endian packed
// stream. A delta straddles at most two words because width <= 64.
inline uint64_t ExtractDelta(const uint64_t* words, uint64_t j,
                             uint32_t width) {
  const uint64_t bit = j * width;
  const uint64_t w = bit >> 6;
  const uint32_t o = static_cast<uint32_t>(bit & 63);
  uint64_t v = words[w] >> o;
  if (o + width > 64) v |= words[w + 1] << (64 - o);
  const uint64_t mask =
      width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  return v & mask;
}

}  // namespace

void UnpackForI64(const uint64_t* words, uint32_t start, uint32_t n,
                  uint32_t width, int64_t frame, int64_t* out) {
  if (width == 0) {
    for (uint32_t i = 0; i < n; ++i) out[i] = frame;
    return;
  }
  const uint64_t base = static_cast<uint64_t>(frame);
  for (uint32_t i = 0; i < n; ++i) {
    out[i] = static_cast<int64_t>(base + ExtractDelta(words, start + i, width));
  }
}

uint32_t FilterPackedI64(const uint64_t* words, uint32_t start, uint32_t n,
                         uint32_t width, uint64_t lo, uint64_t hi,
                         uint32_t row_base, uint32_t* out) {
  uint32_t cnt = 0;
  if (width == 0) {
    // Every delta is zero: all rows match iff 0 is inside [lo, hi].
    if (lo != 0) return 0;
    for (uint32_t i = 0; i < n; ++i) out[cnt++] = row_base + i;
    return cnt;
  }
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t v = ExtractDelta(words, start + i, width);
    if (v >= lo && v <= hi) out[cnt++] = row_base + i;
  }
  return cnt;
}

}  // namespace exploredb::simd::scalar
