// Runtime kernel dispatch: one table per compiled ISA tier, resolved once on
// first use from CPUID (best supported tier wins) unless EXPLOREDB_SIMD
// forces a specific table. The active table lives behind a single atomic
// pointer, so dispatch after initialization is one relaxed load.

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "simd/kernels_internal.h"
#include "simd/simd.h"

namespace exploredb::simd {

namespace {

constexpr KernelTable kScalarTable = {
    SimdPath::kScalar,
    scalar::FilterI64Cmp,
    scalar::FilterF64Cmp,
    scalar::FilterI64Range,
    scalar::RefineI64Cmp,
    scalar::RefineF64Cmp,
    scalar::SumF64Sel,
    scalar::SumI64Sel,
    scalar::MinMaxI64,
    scalar::MinMaxF64,
    scalar::GatherU32,
    scalar::GatherF64,
    scalar::WidenI64F64,
    scalar::UnpackForI64,
    scalar::FilterPackedI64,
};

#if defined(EXPLOREDB_SIMD_HAVE_SSE42)
// SSE4.2 vectorizes the compare/compress and contiguous min/max loops;
// gather-dependent kernels and the shared striped sums stay scalar (there is
// no vector gather below AVX2, and sharing one sum keeps bits identical).
// The packed FOR kernels also stay scalar on this tier: they need per-lane
// variable shifts (vpsrlvq/vpsllvq), which first appear with AVX2.
constexpr KernelTable kSse42Table = {
    SimdPath::kSse42,
    sse42::FilterI64Cmp,
    sse42::FilterF64Cmp,
    sse42::FilterI64Range,
    sse42::RefineI64Cmp,
    sse42::RefineF64Cmp,
    scalar::SumF64Sel,
    scalar::SumI64Sel,
    sse42::MinMaxI64,
    sse42::MinMaxF64,
    scalar::GatherU32,
    scalar::GatherF64,
    scalar::WidenI64F64,
    scalar::UnpackForI64,
    scalar::FilterPackedI64,
};
#endif

#if defined(EXPLOREDB_SIMD_HAVE_AVX2)
// sum_i64_sel and widen_i64_f64 stay scalar on every tier: AVX2 has no
// int64 -> double conversion (that arrives with AVX-512 DQ).
constexpr KernelTable kAvx2Table = {
    SimdPath::kAvx2,
    avx2::FilterI64Cmp,
    avx2::FilterF64Cmp,
    avx2::FilterI64Range,
    avx2::RefineI64Cmp,
    avx2::RefineF64Cmp,
    avx2::SumF64Sel,
    scalar::SumI64Sel,
    avx2::MinMaxI64,
    avx2::MinMaxF64,
    avx2::GatherU32,
    avx2::GatherF64,
    scalar::WidenI64F64,
    avx2::UnpackForI64,
    avx2::FilterPackedI64,
};
#endif

bool CpuSupports(SimdPath path) {
  switch (path) {
    case SimdPath::kScalar:
      return true;
    case SimdPath::kSse42:
#if defined(EXPLOREDB_SIMD_HAVE_SSE42) && \
    (defined(__x86_64__) || defined(__i386__))
      return __builtin_cpu_supports("sse4.2") != 0;
#else
      return false;
#endif
    case SimdPath::kAvx2:
#if defined(EXPLOREDB_SIMD_HAVE_AVX2) && \
    (defined(__x86_64__) || defined(__i386__))
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

SimdPath BestSupported() {
  if (CpuSupports(SimdPath::kAvx2)) return SimdPath::kAvx2;
  if (CpuSupports(SimdPath::kSse42)) return SimdPath::kSse42;
  return SimdPath::kScalar;
}

/// EXPLOREDB_SIMD=scalar|sse42|avx2; anything else (or unset) means "best".
SimdPath RequestedPath() {
  const char* env = std::getenv("EXPLOREDB_SIMD");
  if (env == nullptr) return BestSupported();
  if (std::strcmp(env, "scalar") == 0) return SimdPath::kScalar;
  if (std::strcmp(env, "sse42") == 0) return SimdPath::kSse42;
  if (std::strcmp(env, "avx2") == 0) return SimdPath::kAvx2;
  return BestSupported();
}

std::atomic<const KernelTable*> g_active{nullptr};

const KernelTable* Resolve() {
  SimdPath want = RequestedPath();
  // An unsupported request (EXPLOREDB_SIMD=avx2 on SSE-only hardware) clamps
  // down to the best tier the machine can actually run.
  if (!CpuSupports(want)) want = BestSupported();
  return &KernelsFor(want);
}

void EnsureInitialized() {
  // Each racing thread resolves the same table, so a duplicated store is
  // benign; after this, dispatch is a single relaxed load.
  if (g_active.load(std::memory_order_acquire) == nullptr) {
    g_active.store(Resolve(), std::memory_order_release);
  }
}

}  // namespace

const char* SimdPathName(SimdPath path) {
  switch (path) {
    case SimdPath::kScalar:
      return "scalar";
    case SimdPath::kSse42:
      return "sse42";
    case SimdPath::kAvx2:
      return "avx2";
  }
  return "scalar";
}

const KernelTable& KernelsFor(SimdPath path) {
  switch (path) {
#if defined(EXPLOREDB_SIMD_HAVE_AVX2)
    case SimdPath::kAvx2:
      return kAvx2Table;
#endif
#if defined(EXPLOREDB_SIMD_HAVE_SSE42)
    case SimdPath::kSse42:
      return kSse42Table;
#endif
    default:
      return kScalarTable;
  }
}

bool PathSupported(SimdPath path) { return CpuSupports(path); }

const KernelTable& ActiveKernels() {
  EnsureInitialized();
  return *g_active.load(std::memory_order_acquire);
}

SimdPath ActivePath() { return ActiveKernels().path; }

bool SetActivePathForTest(SimdPath path) {
  if (!CpuSupports(path)) return false;
  g_active.store(&KernelsFor(path), std::memory_order_release);
  return true;
}

}  // namespace exploredb::simd
