#ifndef EXPLOREDB_SIMD_SIMD_H_
#define EXPLOREDB_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace exploredb::simd {

/// Which instruction set a kernel table targets. Higher values strictly
/// extend lower ones; the dispatcher picks the best one the CPU supports
/// unless EXPLOREDB_SIMD=scalar|sse42|avx2 forces a specific table.
enum class SimdPath : int { kScalar = 0, kSse42 = 1, kAvx2 = 2 };

const char* SimdPathName(SimdPath path);

/// Comparison operator vocabulary of the kernels. Mirrors CompareOp in
/// storage/predicate.h (kept separate so the kernel library depends only on
/// common/). Double comparisons follow IEEE semantics: NaN fails every
/// operator except kNe, which it satisfies.
enum class Cmp : int { kLt, kLe, kGt, kGe, kEq, kNe };

/// One resolved set of kernel entry points. Every implementation — scalar,
/// SSE4.2, AVX2 — returns *bit-identical* results for identical inputs:
/// selection vectors are exact by construction, and floating-point
/// reductions all follow the same fixed 8-lane-striped accumulation order
/// (see sum_f64_sel), so swapping tables can never change a query answer.
///
/// Common contracts:
///  - Row ids / selection indices are uint32_t and must be < 2^31 (AVX2
///    gathers index with signed int32).
///  - `out` buffers for filter kernels must have room for (end - begin)
///    entries; for refine kernels, room for `n` entries. Kernels return the
///    number of entries actually written.
///  - Refine kernels allow out == sel (in-place compaction).
struct KernelTable {
  SimdPath path;

  // --- Filters: write the row ids r in [begin, end) with d[r] `op` k, in
  // row order, as a selection vector. The hot inner loop of every scan.
  uint32_t (*filter_i64_cmp)(const int64_t* d, uint32_t begin, uint32_t end,
                             Cmp op, int64_t k, uint32_t* out);
  uint32_t (*filter_f64_cmp)(const double* d, uint32_t begin, uint32_t end,
                             Cmp op, double k, uint32_t* out);
  /// The exploration-window idiom lo <= d[r] < hi, fused.
  uint32_t (*filter_i64_range)(const int64_t* d, uint32_t begin, uint32_t end,
                               int64_t lo, int64_t hi, uint32_t* out);

  // --- Refines: keep sel[i] where d[sel[i]] `op` k (conjunction step).
  uint32_t (*refine_i64_cmp)(const int64_t* d, const uint32_t* sel,
                             uint32_t n, Cmp op, int64_t k, uint32_t* out);
  uint32_t (*refine_f64_cmp)(const double* d, const uint32_t* sel, uint32_t n,
                             Cmp op, double k, uint32_t* out);

  // --- Masked reductions over a selection vector. Sums accumulate into 8
  // stripes (element i -> stripe i % 8, in increasing i) combined as
  // ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)) — the exact order every
  // implementation follows, which is what makes them bit-identical.
  double (*sum_f64_sel)(const double* v, const uint32_t* sel, uint32_t n);
  double (*sum_i64_sel)(const int64_t* v, const uint32_t* sel, uint32_t n);

  // --- Contiguous min/max over d[0, n), n >= 1 (zone-map construction).
  // f64 seeds with d[0] so an all-NaN block keeps NaN bounds.
  void (*minmax_i64)(const int64_t* d, size_t n, int64_t* mn, int64_t* mx);
  void (*minmax_f64)(const double* d, size_t n, double* mn, double* mx);

  // --- Gathers: out[i] = src[sel[i]] (dict-code / measure gather for the
  // dense GROUP BY path).
  void (*gather_u32)(const uint32_t* src, const uint32_t* sel, uint32_t n,
                     uint32_t* out);
  void (*gather_f64)(const double* src, const uint32_t* sel, uint32_t n,
                     double* out);

  // --- Widening copy dst[i] = double(src[i]) (online-agg input build).
  void (*widen_i64_f64)(const int64_t* src, size_t n, double* dst);

  // --- Packed frame-of-reference kernels (compressed columnar scans).
  // `words` is a little-endian bitstream of `width`-bit unsigned deltas
  // (width in [0, 64]); delta j occupies bits [j*width, (j+1)*width). The
  // stream must carry one guard word past the last touched word (AVX2 loads
  // word idx+1 unconditionally). width == 0 means every delta is zero and no
  // bits are consumed.
  /// out[i] = int64(uint64(frame) + delta(start + i)) for i in [0, n)
  /// (two's-complement wrap addition, so INT64_MIN..INT64_MAX frames work).
  void (*unpack_for_i64)(const uint64_t* words, uint32_t start, uint32_t n,
                         uint32_t width, int64_t frame, int64_t* out);
  /// Packed-domain range filter: writes row_base + j for each delta index j
  /// in [start, start + n) whose delta lies in the INCLUSIVE unsigned
  /// [lo, hi] (inclusive bounds cover the full uint64 domain without
  /// overflow), in row order. `out` must have room for n entries.
  uint32_t (*filter_packed_i64)(const uint64_t* words, uint32_t start,
                                uint32_t n, uint32_t width, uint64_t lo,
                                uint64_t hi, uint32_t row_base, uint32_t* out);
};

/// The table all engine call sites dispatch through. Resolved once, on first
/// use: the best path the CPU supports, unless EXPLOREDB_SIMD names a lower
/// one (an unsupported request clamps down to the best supported path).
const KernelTable& ActiveKernels();

/// Which path ActiveKernels() currently resolves to.
SimdPath ActivePath();

/// True when `path` was compiled in AND the running CPU can execute it.
/// kScalar is always supported.
bool PathSupported(SimdPath path);

/// Table for a specific path; `path` must satisfy PathSupported (unsupported
/// paths return the scalar table). Lets tests and benchmarks compare
/// implementations side by side within one process.
const KernelTable& KernelsFor(SimdPath path);

/// Swaps the active table (used by equivalence tests to run full queries
/// under every path in one process; production code uses the env var).
/// Returns false — and changes nothing — when the path is unsupported.
bool SetActivePathForTest(SimdPath path);

}  // namespace exploredb::simd

#endif  // EXPLOREDB_SIMD_SIMD_H_
