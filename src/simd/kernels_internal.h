#ifndef EXPLOREDB_SIMD_KERNELS_INTERNAL_H_
#define EXPLOREDB_SIMD_KERNELS_INTERNAL_H_

// Per-ISA kernel entry points, one namespace per translation unit. Only
// dispatch.cc (which assembles the KernelTables) should include this header.
// The SSE4.2 and AVX2 namespaces declare just the kernels they specialize;
// everything else in their tables points at the scalar reference — notably
// sum_i64_sel and widen_i64_f64 stay scalar on every path because AVX2 has
// no int64->double conversion (that is AVX-512 DQ), and sharing one
// implementation is what guarantees bit-identical results for free.

#include <cstddef>
#include <cstdint>

#include "simd/simd.h"

namespace exploredb::simd {

namespace scalar {

uint32_t FilterI64Cmp(const int64_t* d, uint32_t begin, uint32_t end, Cmp op,
                      int64_t k, uint32_t* out);
uint32_t FilterF64Cmp(const double* d, uint32_t begin, uint32_t end, Cmp op,
                      double k, uint32_t* out);
uint32_t FilterI64Range(const int64_t* d, uint32_t begin, uint32_t end,
                        int64_t lo, int64_t hi, uint32_t* out);
uint32_t RefineI64Cmp(const int64_t* d, const uint32_t* sel, uint32_t n,
                      Cmp op, int64_t k, uint32_t* out);
uint32_t RefineF64Cmp(const double* d, const uint32_t* sel, uint32_t n,
                      Cmp op, double k, uint32_t* out);
double SumF64Sel(const double* v, const uint32_t* sel, uint32_t n);
double SumI64Sel(const int64_t* v, const uint32_t* sel, uint32_t n);
void MinMaxI64(const int64_t* d, size_t n, int64_t* mn, int64_t* mx);
void MinMaxF64(const double* d, size_t n, double* mn, double* mx);
void GatherU32(const uint32_t* src, const uint32_t* sel, uint32_t n,
               uint32_t* out);
void GatherF64(const double* src, const uint32_t* sel, uint32_t n,
               double* out);
void WidenI64F64(const int64_t* src, size_t n, double* dst);
void UnpackForI64(const uint64_t* words, uint32_t start, uint32_t n,
                  uint32_t width, int64_t frame, int64_t* out);
uint32_t FilterPackedI64(const uint64_t* words, uint32_t start, uint32_t n,
                         uint32_t width, uint64_t lo, uint64_t hi,
                         uint32_t row_base, uint32_t* out);

}  // namespace scalar

#if defined(EXPLOREDB_SIMD_HAVE_SSE42)
namespace sse42 {

uint32_t FilterI64Cmp(const int64_t* d, uint32_t begin, uint32_t end, Cmp op,
                      int64_t k, uint32_t* out);
uint32_t FilterF64Cmp(const double* d, uint32_t begin, uint32_t end, Cmp op,
                      double k, uint32_t* out);
uint32_t FilterI64Range(const int64_t* d, uint32_t begin, uint32_t end,
                        int64_t lo, int64_t hi, uint32_t* out);
uint32_t RefineI64Cmp(const int64_t* d, const uint32_t* sel, uint32_t n,
                      Cmp op, int64_t k, uint32_t* out);
uint32_t RefineF64Cmp(const double* d, const uint32_t* sel, uint32_t n,
                      Cmp op, double k, uint32_t* out);
void MinMaxI64(const int64_t* d, size_t n, int64_t* mn, int64_t* mx);
void MinMaxF64(const double* d, size_t n, double* mn, double* mx);

}  // namespace sse42
#endif  // EXPLOREDB_SIMD_HAVE_SSE42

#if defined(EXPLOREDB_SIMD_HAVE_AVX2)
namespace avx2 {

uint32_t FilterI64Cmp(const int64_t* d, uint32_t begin, uint32_t end, Cmp op,
                      int64_t k, uint32_t* out);
uint32_t FilterF64Cmp(const double* d, uint32_t begin, uint32_t end, Cmp op,
                      double k, uint32_t* out);
uint32_t FilterI64Range(const int64_t* d, uint32_t begin, uint32_t end,
                        int64_t lo, int64_t hi, uint32_t* out);
uint32_t RefineI64Cmp(const int64_t* d, const uint32_t* sel, uint32_t n,
                      Cmp op, int64_t k, uint32_t* out);
uint32_t RefineF64Cmp(const double* d, const uint32_t* sel, uint32_t n,
                      Cmp op, double k, uint32_t* out);
double SumF64Sel(const double* v, const uint32_t* sel, uint32_t n);
void MinMaxI64(const int64_t* d, size_t n, int64_t* mn, int64_t* mx);
void MinMaxF64(const double* d, size_t n, double* mn, double* mx);
void GatherU32(const uint32_t* src, const uint32_t* sel, uint32_t n,
               uint32_t* out);
void GatherF64(const double* src, const uint32_t* sel, uint32_t n,
               double* out);
void UnpackForI64(const uint64_t* words, uint32_t start, uint32_t n,
                  uint32_t width, int64_t frame, int64_t* out);
uint32_t FilterPackedI64(const uint64_t* words, uint32_t start, uint32_t n,
                         uint32_t width, uint64_t lo, uint64_t hi,
                         uint32_t row_base, uint32_t* out);

}  // namespace avx2
#endif  // EXPLOREDB_SIMD_HAVE_AVX2

}  // namespace exploredb::simd

#endif  // EXPLOREDB_SIMD_KERNELS_INTERNAL_H_
