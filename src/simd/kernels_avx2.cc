// AVX2 kernels: 4-wide int64/double compares with branch-free compression
// through a 16-entry byte-shuffle LUT, and vpgather-based
// refine/reduction/gather kernels. The floating-point reductions replay the
// 8-stripe accumulation contract from kernels_scalar.cc with two 4-lane
// registers (accA = stripes 0..3, accB = stripes 4..7), which is what keeps
// their results bit-identical to the scalar path.

#include "simd/kernels_internal.h"

#if defined(EXPLOREDB_SIMD_HAVE_AVX2)

#include <immintrin.h>

#include <limits>

namespace exploredb::simd::avx2 {

namespace {

inline double MinFold(double x, double m) { return x < m ? x : m; }
inline double MaxFold(double x, double m) { return x > m ? x : m; }

// Masked gathers with a full mask and a zeroed source: identical to the
// plain gather intrinsics, but without GCC's maybe-uninitialized warning
// from their _mm256_undefined_*() source operand.
inline __m256d GatherPd(const double* base, __m128i idx) {
  return _mm256_mask_i32gather_pd(
      _mm256_setzero_pd(), base, idx,
      _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
}

inline __m256i GatherEpi64(const int64_t* base, __m128i idx) {
  return _mm256_mask_i32gather_epi64(
      _mm256_setzero_si256(), reinterpret_cast<const long long*>(base), idx,
      _mm256_set1_epi64x(-1), 8);
}

inline __m256i GatherEpi32(const uint32_t* base, __m256i idx) {
  return _mm256_mask_i32gather_epi32(
      _mm256_setzero_si256(), reinterpret_cast<const int*>(base), idx,
      _mm256_set1_epi32(-1), 4);
}

// Byte-shuffle patterns compacting the set bits of a 4-bit mask: entry m
// moves the selected 4-byte lanes of a position quad to the front.
struct CompressLut {
  alignas(16) uint8_t b[16][16];
};

constexpr CompressLut MakeCompressLut() {
  CompressLut lut{};
  for (int m = 0; m < 16; ++m) {
    int o = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if ((m & (1 << lane)) != 0) {
        for (int byte = 0; byte < 4; ++byte) {
          lut.b[m][o * 4 + byte] = static_cast<uint8_t>(lane * 4 + byte);
        }
        ++o;
      }
    }
    for (; o < 4; ++o) {
      for (int byte = 0; byte < 4; ++byte) {
        lut.b[m][o * 4 + byte] = 0x80;  // zero-fill; overwritten by later emits
      }
    }
  }
  return lut;
}

constexpr CompressLut kCompress4 = MakeCompressLut();

// Compacts the selected lanes of `pos` (4 x uint32) to out + n and returns
// the new count. The unconditional 16-byte store stays inside a filter
// output buffer sized end - begin: n <= r - begin and r <= end - 4, so the
// last written slot n + 3 <= end - begin - 1.
inline uint32_t Emit4(uint32_t* out, uint32_t n, __m128i pos, int bits) {
  const __m128i packed = _mm_shuffle_epi8(
      pos,
      _mm_load_si128(reinterpret_cast<const __m128i*>(kCompress4.b[bits])));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out + n), packed);
  return n + static_cast<uint32_t>(_mm_popcnt_u32(static_cast<uint32_t>(bits)));
}

template <Cmp op>
inline int MaskBitsI64(__m256i v, __m256i kv) {
  __m256i m;
  if constexpr (op == Cmp::kLt || op == Cmp::kGe) {
    m = _mm256_cmpgt_epi64(kv, v);
  } else if constexpr (op == Cmp::kGt || op == Cmp::kLe) {
    m = _mm256_cmpgt_epi64(v, kv);
  } else {
    m = _mm256_cmpeq_epi64(v, kv);
  }
  int bits = _mm256_movemask_pd(_mm256_castsi256_pd(m));
  if constexpr (op == Cmp::kGe || op == Cmp::kLe || op == Cmp::kNe) {
    bits ^= 0xF;
  }
  return bits;
}

template <Cmp op>
constexpr int F64CmpImm() {
  if constexpr (op == Cmp::kLt) return _CMP_LT_OQ;
  if constexpr (op == Cmp::kLe) return _CMP_LE_OQ;
  if constexpr (op == Cmp::kGt) return _CMP_GT_OQ;
  if constexpr (op == Cmp::kGe) return _CMP_GE_OQ;
  if constexpr (op == Cmp::kEq) return _CMP_EQ_OQ;
  return _CMP_NEQ_UQ;  // unordered: NaN != k is true, matching scalar
}

template <Cmp op>
inline int MaskBitsF64(__m256d v, __m256d kv) {
  return _mm256_movemask_pd(_mm256_cmp_pd(v, kv, F64CmpImm<op>()));
}

template <typename T>
inline bool ScalarPred(Cmp op, T v, T k) {
  switch (op) {
    case Cmp::kLt:
      return v < k;
    case Cmp::kLe:
      return v <= k;
    case Cmp::kGt:
      return v > k;
    case Cmp::kGe:
      return v >= k;
    case Cmp::kEq:
      return v == k;
    case Cmp::kNe:
    default:
      return v != k;
  }
}

template <Cmp op>
uint32_t FilterI64CmpT(const int64_t* d, uint32_t begin, uint32_t end,
                       int64_t k, uint32_t* out) {
  const __m256i kv = _mm256_set1_epi64x(k);
  const __m128i iota = _mm_setr_epi32(0, 1, 2, 3);
  uint32_t n = 0;
  uint32_t r = begin;
  for (; r + 4 <= end; r += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + r));
    const __m128i pos =
        _mm_add_epi32(_mm_set1_epi32(static_cast<int>(r)), iota);
    n = Emit4(out, n, pos, MaskBitsI64<op>(v, kv));
  }
  for (; r < end; ++r) {
    if (ScalarPred<int64_t>(op, d[r], k)) out[n++] = r;
  }
  return n;
}

template <Cmp op>
uint32_t FilterF64CmpT(const double* d, uint32_t begin, uint32_t end, double k,
                       uint32_t* out) {
  const __m256d kv = _mm256_set1_pd(k);
  const __m128i iota = _mm_setr_epi32(0, 1, 2, 3);
  uint32_t n = 0;
  uint32_t r = begin;
  for (; r + 4 <= end; r += 4) {
    const __m128i pos =
        _mm_add_epi32(_mm_set1_epi32(static_cast<int>(r)), iota);
    n = Emit4(out, n, pos, MaskBitsF64<op>(_mm256_loadu_pd(d + r), kv));
  }
  for (; r < end; ++r) {
    if (ScalarPred<double>(op, d[r], k)) out[n++] = r;
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
  const __m256i lov = _mm256_set1_epi64x(lo);
  const __m256i hiv = _mm256_set1_epi64x(hi);
  const __m128i iota = _mm_setr_epi32(0, 1, 2, 3);
  uint32_t n = 0;
  uint32_t r = begin;
  for (; r + 4 <= end; r += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + r));
    // lo <= v  is  !(lo > v);  v < hi  is  hi > v.
    const __m256i m = _mm256_andnot_si256(_mm256_cmpgt_epi64(lov, v),
                                          _mm256_cmpgt_epi64(hiv, v));
    const __m128i pos =
        _mm_add_epi32(_mm_set1_epi32(static_cast<int>(r)), iota);
    n = Emit4(out, n, pos, _mm256_movemask_pd(_mm256_castsi256_pd(m)));
  }
  for (; r < end; ++r) {
    if (d[r] >= lo && d[r] < hi) out[n++] = r;
  }
  return n;
}

namespace {

template <Cmp op>
uint32_t RefineI64CmpT(const int64_t* d, const uint32_t* sel, uint32_t n,
                       int64_t k, uint32_t* out) {
  const __m256i kv = _mm256_set1_epi64x(k);
  uint32_t kept = 0;
  uint32_t i = 0;
  // In-place safe: the 16-byte store at out + kept touches slots kept..
  // kept + 3 <= i + 3, all already consumed by this or earlier loads.
  for (; i + 4 <= n; i += 4) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + i));
    const __m256i v = GatherEpi64(d, idx);
    kept = Emit4(out, kept, idx, MaskBitsI64<op>(v, kv));
  }
  for (; i < n; ++i) {
    const uint32_t r = sel[i];
    if (ScalarPred<int64_t>(op, d[r], k)) out[kept++] = r;
  }
  return kept;
}

template <Cmp op>
uint32_t RefineF64CmpT(const double* d, const uint32_t* sel, uint32_t n,
                       double k, uint32_t* out) {
  const __m256d kv = _mm256_set1_pd(k);
  uint32_t kept = 0;
  uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + i));
    const __m256d v = GatherPd(d, idx);
    kept = Emit4(out, kept, idx, MaskBitsF64<op>(v, kv));
  }
  for (; i < n; ++i) {
    const uint32_t r = sel[i];
    if (ScalarPred<double>(op, d[r], k)) out[kept++] = r;
  }
  return kept;
}

}  // namespace

uint32_t RefineI64Cmp(const int64_t* d, const uint32_t* sel, uint32_t n,
                      Cmp op, int64_t k, uint32_t* out) {
  switch (op) {
    case Cmp::kLt:
      return RefineI64CmpT<Cmp::kLt>(d, sel, n, k, out);
    case Cmp::kLe:
      return RefineI64CmpT<Cmp::kLe>(d, sel, n, k, out);
    case Cmp::kGt:
      return RefineI64CmpT<Cmp::kGt>(d, sel, n, k, out);
    case Cmp::kGe:
      return RefineI64CmpT<Cmp::kGe>(d, sel, n, k, out);
    case Cmp::kEq:
      return RefineI64CmpT<Cmp::kEq>(d, sel, n, k, out);
    case Cmp::kNe:
    default:
      return RefineI64CmpT<Cmp::kNe>(d, sel, n, k, out);
  }
}

uint32_t RefineF64Cmp(const double* d, const uint32_t* sel, uint32_t n,
                      Cmp op, double k, uint32_t* out) {
  switch (op) {
    case Cmp::kLt:
      return RefineF64CmpT<Cmp::kLt>(d, sel, n, k, out);
    case Cmp::kLe:
      return RefineF64CmpT<Cmp::kLe>(d, sel, n, k, out);
    case Cmp::kGt:
      return RefineF64CmpT<Cmp::kGt>(d, sel, n, k, out);
    case Cmp::kGe:
      return RefineF64CmpT<Cmp::kGe>(d, sel, n, k, out);
    case Cmp::kEq:
      return RefineF64CmpT<Cmp::kEq>(d, sel, n, k, out);
    case Cmp::kNe:
    default:
      return RefineF64CmpT<Cmp::kNe>(d, sel, n, k, out);
  }
}

double SumF64Sel(const double* v, const uint32_t* sel, uint32_t n) {
  // accA holds stripes 0..3, accB stripes 4..7 of the shared contract.
  __m256d acc_a = _mm256_setzero_pd();
  __m256d acc_b = _mm256_setzero_pd();
  uint32_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i idx_a =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + i));
    const __m128i idx_b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + i + 4));
    acc_a = _mm256_add_pd(acc_a, GatherPd(v, idx_a));
    acc_b = _mm256_add_pd(acc_b, GatherPd(v, idx_b));
  }
  alignas(32) double lane[8];
  _mm256_store_pd(lane, acc_a);
  _mm256_store_pd(lane + 4, acc_b);
  for (; i < n; ++i) lane[i % 8] += v[sel[i]];
  const double b0 = lane[0] + lane[4];
  const double b1 = lane[1] + lane[5];
  const double b2 = lane[2] + lane[6];
  const double b3 = lane[3] + lane[7];
  return (b0 + b2) + (b1 + b3);
}

void MinMaxI64(const int64_t* d, size_t n, int64_t* mn, int64_t* mx) {
  __m256i lo = _mm256_set1_epi64x(d[0]);
  __m256i hi = lo;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i));
    lo = _mm256_blendv_epi8(lo, v, _mm256_cmpgt_epi64(lo, v));
    hi = _mm256_blendv_epi8(hi, v, _mm256_cmpgt_epi64(v, hi));
  }
  alignas(32) int64_t lov[4];
  alignas(32) int64_t hiv[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lov), lo);
  _mm256_store_si256(reinterpret_cast<__m256i*>(hiv), hi);
  int64_t rlo = lov[0];
  int64_t rhi = hiv[0];
  for (int j = 1; j < 4; ++j) {
    if (lov[j] < rlo) rlo = lov[j];
    if (hiv[j] > rhi) rhi = hiv[j];
  }
  for (; i < n; ++i) {
    if (d[i] < rlo) rlo = d[i];
    if (d[i] > rhi) rhi = d[i];
  }
  *mn = rlo;
  *mx = rhi;
}

void MinMaxF64(const double* d, size_t n, double* mn, double* mx) {
  // accA = stripes 0..3, accB = stripes 4..7, seeded d[0] (idempotent for
  // min/max, keeps all-NaN blocks NaN) — the same order as the scalar path.
  __m256d lo_a = _mm256_set1_pd(d[0]);
  __m256d lo_b = lo_a;
  __m256d hi_a = lo_a;
  __m256d hi_b = lo_a;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d va = _mm256_loadu_pd(d + i);
    const __m256d vb = _mm256_loadu_pd(d + i + 4);
    lo_a = _mm256_min_pd(va, lo_a);
    lo_b = _mm256_min_pd(vb, lo_b);
    hi_a = _mm256_max_pd(va, hi_a);
    hi_b = _mm256_max_pd(vb, hi_b);
  }
  alignas(32) double lov[8];
  alignas(32) double hiv[8];
  _mm256_store_pd(lov, lo_a);
  _mm256_store_pd(lov + 4, lo_b);
  _mm256_store_pd(hiv, hi_a);
  _mm256_store_pd(hiv + 4, hi_b);
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

void GatherU32(const uint32_t* src, const uint32_t* sel, uint32_t n,
               uint32_t* out) {
  uint32_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sel + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        GatherEpi32(src, idx));
  }
  for (; i < n; ++i) out[i] = src[sel[i]];
}

void GatherF64(const double* src, const uint32_t* sel, uint32_t n,
               double* out) {
  uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + i));
    _mm256_storeu_pd(out + i, GatherPd(src, idx));
  }
  for (; i < n; ++i) out[i] = src[sel[i]];
}

namespace {

// Scalar tail extraction, identical to the scalar kernel's.
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

// Loads the 4 packed deltas at indices j..j+3. Each lane combines its word
// pair (lo >> o) | (hi << (64 - o)) with per-lane variable shifts; a 64-count
// vpsllvq yields 0, which is exactly what the o == 0 case needs. The hi-word
// gather at idx + 1 is unconditional — the stream's guard word keeps it in
// bounds.
inline __m256i LoadDeltas4(const uint64_t* words, uint64_t j, uint32_t width,
                           __m256i width_mask) {
  const uint64_t b0 = j * width;
  const uint64_t b1 = b0 + width;
  const uint64_t b2 = b1 + width;
  const uint64_t b3 = b2 + width;
  const __m128i idx = _mm_setr_epi32(
      static_cast<int>(b0 >> 6), static_cast<int>(b1 >> 6),
      static_cast<int>(b2 >> 6), static_cast<int>(b3 >> 6));
  const __m256i off = _mm256_setr_epi64x(
      static_cast<long long>(b0 & 63), static_cast<long long>(b1 & 63),
      static_cast<long long>(b2 & 63), static_cast<long long>(b3 & 63));
  const int64_t* base = reinterpret_cast<const int64_t*>(words);
  const __m256i lo_w = GatherEpi64(base, idx);
  const __m256i hi_w =
      GatherEpi64(base, _mm_add_epi32(idx, _mm_set1_epi32(1)));
  const __m256i v = _mm256_or_si256(
      _mm256_srlv_epi64(lo_w, off),
      _mm256_sllv_epi64(hi_w,
                        _mm256_sub_epi64(_mm256_set1_epi64x(64), off)));
  return _mm256_and_si256(v, width_mask);
}

inline __m256i WidthMask(uint32_t width) {
  return _mm256_set1_epi64x(
      width == 64 ? -1LL
                  : static_cast<long long>((uint64_t{1} << width) - 1));
}

}  // namespace

void UnpackForI64(const uint64_t* words, uint32_t start, uint32_t n,
                  uint32_t width, int64_t frame, int64_t* out) {
  if (width == 0) {
    scalar::UnpackForI64(words, start, n, width, frame, out);
    return;
  }
  const __m256i width_mask = WidthMask(width);
  const __m256i fv = _mm256_set1_epi64x(frame);
  uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i d =
        LoadDeltas4(words, uint64_t{start} + i, width, width_mask);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_add_epi64(fv, d));
  }
  const uint64_t base = static_cast<uint64_t>(frame);
  for (; i < n; ++i) {
    out[i] = static_cast<int64_t>(
        base + ExtractDelta(words, uint64_t{start} + i, width));
  }
}

uint32_t FilterPackedI64(const uint64_t* words, uint32_t start, uint32_t n,
                         uint32_t width, uint64_t lo, uint64_t hi,
                         uint32_t row_base, uint32_t* out) {
  if (width == 0) {
    return scalar::FilterPackedI64(words, start, n, width, lo, hi, row_base,
                                   out);
  }
  // vpcmpgtq is signed; XOR-ing the sign bit into both sides turns it into
  // the unsigned compare the delta domain needs.
  const __m256i bias = _mm256_set1_epi64x(std::numeric_limits<int64_t>::min());
  const __m256i lo_b = _mm256_set1_epi64x(
      static_cast<long long>(lo ^ (uint64_t{1} << 63)));
  const __m256i hi_b = _mm256_set1_epi64x(
      static_cast<long long>(hi ^ (uint64_t{1} << 63)));
  const __m256i width_mask = WidthMask(width);
  const __m128i iota = _mm_setr_epi32(0, 1, 2, 3);
  uint32_t cnt = 0;
  uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i d =
        LoadDeltas4(words, uint64_t{start} + i, width, width_mask);
    const __m256i vs = _mm256_xor_si256(d, bias);
    int bits = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(lo_b, vs)));
    bits |= _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(vs, hi_b)));
    bits ^= 0xF;  // inside [lo, hi]  ==  !(v < lo) && !(v > hi)
    const __m128i pos =
        _mm_add_epi32(_mm_set1_epi32(static_cast<int>(row_base + i)), iota);
    cnt = Emit4(out, cnt, pos, bits);
  }
  for (; i < n; ++i) {
    const uint64_t v = ExtractDelta(words, uint64_t{start} + i, width);
    if (v >= lo && v <= hi) out[cnt++] = row_base + i;
  }
  return cnt;
}

}  // namespace exploredb::simd::avx2

#endif  // EXPLOREDB_SIMD_HAVE_AVX2
