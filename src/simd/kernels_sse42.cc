// SSE4.2 kernels: 2-wide int64/double compares (PCMPGTQ is the SSE4.2
// instruction that makes the int64 path possible) with branch-free
// selection-vector compression via a 4-entry byte-shuffle LUT. Reductions
// that need gathers stay scalar at this tier (see dispatch.cc); min/max over
// contiguous data is vectorized here because it only needs loads.

#include "simd/kernels_internal.h"

#if defined(EXPLOREDB_SIMD_HAVE_SSE42)

#include <nmmintrin.h>

namespace exploredb::simd::sse42 {

namespace {

inline double MinFold(double x, double m) { return x < m ? x : m; }
inline double MaxFold(double x, double m) { return x > m ? x : m; }

// Byte-shuffle patterns compacting the set bits of a 2-bit mask: entry m
// moves the selected 4-byte lanes of a {r, r+1} position pair to the front.
alignas(16) constexpr uint8_t kCompress2[4][16] = {
    {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
     0x80, 0x80, 0x80, 0x80},
    {0, 1, 2, 3, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
     0x80, 0x80},
    {4, 5, 6, 7, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
     0x80, 0x80},
    {0, 1, 2, 3, 4, 5, 6, 7, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80},
};

// Writes the selected subset of positions {r, r+1} at out + n and returns
// the new count. The unconditional 8-byte store never leaves the filter
// output buffer: n <= r - begin and r <= end - 2.
inline uint32_t Emit2(uint32_t* out, uint32_t n, uint32_t r, int bits) {
  const __m128i pos = _mm_add_epi32(_mm_set1_epi32(static_cast<int>(r)),
                                    _mm_setr_epi32(0, 1, 0, 0));
  const __m128i packed = _mm_shuffle_epi8(
      pos, _mm_load_si128(reinterpret_cast<const __m128i*>(kCompress2[bits])));
  _mm_storel_epi64(reinterpret_cast<__m128i*>(out + n), packed);
  return n + static_cast<uint32_t>(_mm_popcnt_u32(static_cast<uint32_t>(bits)));
}

template <Cmp op>
inline int MaskBitsI64(__m128i v, __m128i kv) {
  __m128i m;
  if constexpr (op == Cmp::kLt || op == Cmp::kGe) {
    m = _mm_cmpgt_epi64(kv, v);
  } else if constexpr (op == Cmp::kGt || op == Cmp::kLe) {
    m = _mm_cmpgt_epi64(v, kv);
  } else {
    m = _mm_cmpeq_epi64(v, kv);
  }
  int bits = _mm_movemask_pd(_mm_castsi128_pd(m));
  if constexpr (op == Cmp::kGe || op == Cmp::kLe || op == Cmp::kNe) {
    bits ^= 0x3;
  }
  return bits;
}

template <Cmp op>
inline int MaskBitsF64(__m128d v, __m128d kv) {
  __m128d m;
  if constexpr (op == Cmp::kLt) {
    m = _mm_cmplt_pd(v, kv);
  } else if constexpr (op == Cmp::kLe) {
    m = _mm_cmple_pd(v, kv);
  } else if constexpr (op == Cmp::kGt) {
    m = _mm_cmpgt_pd(v, kv);
  } else if constexpr (op == Cmp::kGe) {
    m = _mm_cmpge_pd(v, kv);
  } else if constexpr (op == Cmp::kEq) {
    m = _mm_cmpeq_pd(v, kv);
  } else {
    m = _mm_cmpneq_pd(v, kv);  // unordered: NaN != k is true
  }
  return _mm_movemask_pd(m);
}

template <Cmp op>
uint32_t FilterI64CmpT(const int64_t* d, uint32_t begin, uint32_t end,
                       int64_t k, uint32_t* out) {
  const __m128i kv = _mm_set1_epi64x(k);
  uint32_t n = 0;
  uint32_t r = begin;
  for (; r + 2 <= end; r += 2) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(d + r));
    n = Emit2(out, n, r, MaskBitsI64<op>(v, kv));
  }
  for (; r < end; ++r) {
    if (MaskBitsI64<op>(_mm_set1_epi64x(d[r]), kv) & 1) out[n++] = r;
  }
  return n;
}

template <Cmp op>
uint32_t FilterF64CmpT(const double* d, uint32_t begin, uint32_t end, double k,
                       uint32_t* out) {
  const __m128d kv = _mm_set1_pd(k);
  uint32_t n = 0;
  uint32_t r = begin;
  for (; r + 2 <= end; r += 2) {
    n = Emit2(out, n, r, MaskBitsF64<op>(_mm_loadu_pd(d + r), kv));
  }
  for (; r < end; ++r) {
    if (MaskBitsF64<op>(_mm_set1_pd(d[r]), kv) & 1) out[n++] = r;
  }
  return n;
}

}  // namespace

uint32_t FilterI64Cmp(const int64_t* d, uint32_t begin, uint32_t end, Cmp op,
                      int64_t k, uint32_t* out) {
  switch (op) {
    case Cmp::kLt:
      return FilterI64CmpT<Cmp::kLt>(d, begin, end, k, out);
    case Cmp::kLe:
      return FilterI64CmpT<Cmp::kLe>(d, begin, end, k, out);
    case Cmp::kGt:
      return FilterI64CmpT<Cmp::kGt>(d, begin, end, k, out);
    case Cmp::kGe:
      return FilterI64CmpT<Cmp::kGe>(d, begin, end, k, out);
    case Cmp::kEq:
      return FilterI64CmpT<Cmp::kEq>(d, begin, end, k, out);
    case Cmp::kNe:
    default:
      return FilterI64CmpT<Cmp::kNe>(d, begin, end, k, out);
  }
}

uint32_t FilterF64Cmp(const double* d, uint32_t begin, uint32_t end, Cmp op,
                      double k, uint32_t* out) {
  switch (op) {
    case Cmp::kLt:
      return FilterF64CmpT<Cmp::kLt>(d, begin, end, k, out);
    case Cmp::kLe:
      return FilterF64CmpT<Cmp::kLe>(d, begin, end, k, out);
    case Cmp::kGt:
      return FilterF64CmpT<Cmp::kGt>(d, begin, end, k, out);
    case Cmp::kGe:
      return FilterF64CmpT<Cmp::kGe>(d, begin, end, k, out);
    case Cmp::kEq:
      return FilterF64CmpT<Cmp::kEq>(d, begin, end, k, out);
    case Cmp::kNe:
    default:
      return FilterF64CmpT<Cmp::kNe>(d, begin, end, k, out);
  }
}

uint32_t FilterI64Range(const int64_t* d, uint32_t begin, uint32_t end,
                        int64_t lo, int64_t hi, uint32_t* out) {
  const __m128i lov = _mm_set1_epi64x(lo);
  const __m128i hiv = _mm_set1_epi64x(hi);
  uint32_t n = 0;
  uint32_t r = begin;
  for (; r + 2 <= end; r += 2) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(d + r));
    // lo <= v  is  !(lo > v);  v < hi  is  hi > v.
    const __m128i m =
        _mm_andnot_si128(_mm_cmpgt_epi64(lov, v), _mm_cmpgt_epi64(hiv, v));
    n = Emit2(out, n, r, _mm_movemask_pd(_mm_castsi128_pd(m)));
  }
  for (; r < end; ++r) {
    if (d[r] >= lo && d[r] < hi) out[n++] = r;
  }
  return n;
}

uint32_t RefineI64Cmp(const int64_t* d, const uint32_t* sel, uint32_t n,
                      Cmp op, int64_t k, uint32_t* out) {
  // No vector gather at this tier: the scalar refine is already load-bound.
  return scalar::RefineI64Cmp(d, sel, n, op, k, out);
}

uint32_t RefineF64Cmp(const double* d, const uint32_t* sel, uint32_t n,
                      Cmp op, double k, uint32_t* out) {
  return scalar::RefineF64Cmp(d, sel, n, op, k, out);
}

void MinMaxI64(const int64_t* d, size_t n, int64_t* mn, int64_t* mx) {
  // Integer min/max is order-free, so lane layout needs no contract here.
  __m128i lo = _mm_set1_epi64x(d[0]);
  __m128i hi = lo;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(d + i));
    lo = _mm_blendv_epi8(lo, v, _mm_cmpgt_epi64(lo, v));
    hi = _mm_blendv_epi8(hi, v, _mm_cmpgt_epi64(v, hi));
  }
  alignas(16) int64_t lov[2];
  alignas(16) int64_t hiv[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(lov), lo);
  _mm_store_si128(reinterpret_cast<__m128i*>(hiv), hi);
  int64_t rlo = lov[0] < lov[1] ? lov[0] : lov[1];
  int64_t rhi = hiv[0] > hiv[1] ? hiv[0] : hiv[1];
  for (; i < n; ++i) {
    if (d[i] < rlo) rlo = d[i];
    if (d[i] > rhi) rhi = d[i];
  }
  *mn = rlo;
  *mx = rhi;
}

void MinMaxF64(const double* d, size_t n, double* mn, double* mx) {
  // Four 2-lane registers hold the 8 stripes of the shared contract:
  // acc[j] covers stripes {2j, 2j+1}. MINPD(src1=v, src2=acc) is exactly
  // the scalar MinFold, so the fold sequence matches scalar/AVX2 bit for
  // bit (see kernels_scalar.cc).
  __m128d lo[4];
  __m128d hi[4];
  for (auto& l : lo) l = _mm_set1_pd(d[0]);
  for (auto& h : hi) h = _mm_set1_pd(d[0]);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int j = 0; j < 4; ++j) {
      const __m128d v = _mm_loadu_pd(d + i + 2 * j);
      lo[j] = _mm_min_pd(v, lo[j]);
      hi[j] = _mm_max_pd(v, hi[j]);
    }
  }
  alignas(16) double lov[8];
  alignas(16) double hiv[8];
  for (int j = 0; j < 4; ++j) {
    _mm_store_pd(lov + 2 * j, lo[j]);
    _mm_store_pd(hiv + 2 * j, hi[j]);
  }
  for (; i < n; ++i) {
    lov[i % 8] = MinFold(d[i], lov[i % 8]);
    hiv[i % 8] = MaxFold(d[i], hiv[i % 8]);
  }
  const double l0 = MinFold(lov[0], lov[4]);
  const double l1 = MinFold(lov[1], lov[5]);
  const double l2 = MinFold(lov[2], lov[6]);
  const double l3 = MinFold(lov[3], lov[7]);
  *mn = MinFold(MinFold(l0, l2), MinFold(l1, l3));
  const double h0 = MaxFold(hiv[0], hiv[4]);
  const double h1 = MaxFold(hiv[1], hiv[5]);
  const double h2 = MaxFold(hiv[2], hiv[6]);
  const double h3 = MaxFold(hiv[3], hiv[7]);
  *mx = MaxFold(MaxFold(h0, h2), MaxFold(h1, h3));
}

}  // namespace exploredb::simd::sse42

#endif  // EXPLOREDB_SIMD_HAVE_SSE42
