// Fixed-order reduction kernels over contiguous SoA spans.
//
// Floating-point addition is not associative, so a reduction's result is
// defined by its association order, and this simulator's byte-identity
// contract (docs/performance.md) requires every consumer to pick ONE order
// and use it everywhere.
// Two orders live here:
//
//   * SumSequential — strict left-to-right: ((x0 + x1) + x2) + ...
//     This is the historical order baked into the committed goldens; every
//     aggregate a golden observes (telemetry rack/row sums, the periodic
//     exact resummation) must keep using it.
//
//   * SumBlocked4 — a fixed 4-lane blocked (pairwise-style) reduction:
//     lane j accumulates x[4i + j] left-to-right, the four lanes combine as
//     (l0 + l1) + (l2 + l3), and the tail (n % 4 elements) folds
//     left-to-right into that total. The order is a pure function of n, so
//     it is exactly as deterministic as the sequential order, and it maps
//     1:1 onto a 4-lane SIMD add: the AVX2 path below IS this association
//     (vaddpd performs four independent IEEE adds), which is why the
//     intrinsic and portable variants are bit-identical and a build with or
//     without -mavx2 produces the same bytes. Used by bulk mutation paths
//     (row capping) whose aggregates no golden pins to the sequential order.
//
// All kernels are allocation-free and take restrict-qualified pointers so
// the compiler can vectorize without alias analysis giving up.

#ifndef SRC_COMMON_SPAN_KERNELS_H_
#define SRC_COMMON_SPAN_KERNELS_H_

#include <cstddef>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace ampere {
namespace span_kernels {

// Strict left-to-right sum — the golden order. The serial dependence chain
// cannot vectorize, but the restrict-qualified flat loop still unrolls and
// schedules well.
inline double SumSequential(const double* __restrict x, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += x[i];
  }
  return sum;
}

// Portable fixed 4-lane blocked reduction (see the header comment for the
// exact association). Auto-vectorizes to one vector accumulator at -O3.
inline double SumBlocked4Portable(const double* __restrict x, size_t n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  const size_t main = n & ~size_t{3};
  for (size_t i = 0; i < main; i += 4) {
    l0 += x[i];
    l1 += x[i + 1];
    l2 += x[i + 2];
    l3 += x[i + 3];
  }
  double sum = (l0 + l1) + (l2 + l3);
  for (size_t i = main; i < n; ++i) {
    sum += x[i];
  }
  return sum;
}

#if defined(__AVX2__)
// Intrinsic variant of the same association: one vaddpd per 4 elements is
// four independent IEEE adds, lane j seeing exactly the elements lane j of
// the portable kernel sees, and the horizontal combine spells out the same
// (l0 + l1) + (l2 + l3). Bit-identical to SumBlocked4Portable by
// construction; the identity is pinned by tests/parallel_determinism_test.
inline double SumBlocked4Avx2(const double* __restrict x, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  const size_t main = n & ~size_t{3};
  for (size_t i = 0; i < main; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(x + i));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (size_t i = main; i < n; ++i) {
    sum += x[i];
  }
  return sum;
}
#endif

// The blocked reduction the bulk paths call: the intrinsic body when the
// translation unit is compiled with AVX2, the portable body otherwise.
// Same bits either way (see above), so mixing TUs is safe.
inline double SumBlocked4(const double* __restrict x, size_t n) {
#if defined(__AVX2__)
  return SumBlocked4Avx2(x, n);
#else
  return SumBlocked4Portable(x, n);
#endif
}

}  // namespace span_kernels
}  // namespace ampere

#endif  // SRC_COMMON_SPAN_KERNELS_H_
