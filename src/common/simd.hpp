// Portable SIMD layer: a fixed virtual lane width of W = 4 doubles in the
// thin-wrapper idiom, built on GCC/Clang vector extensions
// (__attribute__((vector_size))) with a bit-exact scalar fallback.
//
// Why a *virtual* width: every kernel is written against W = 4 regardless of
// what the target ISA offers. On SSE2 each 4-lane op runs as two explicit
// 2-lane ops, on AVX it is one 4-lane op — per lane these are the same
// IEEE-754 double operations in the same order, so results are bitwise
// identical across scalar/SSE/AVX2 builds. The build pins
// -ffp-contract=off (CMakeLists.txt) so no target may fuse the mul+add pairs
// below into FMAs, which would change rounding.
//
// Determinism contract (docs/parallelism.md, "SIMD and the determinism
// contract"): reductions accumulate into 4 independent lane accumulators —
// lane l takes elements i with (i - lo) mod 4 == l — and combine them in the
// fixed order (l0 + l1) + (l2 + l3), then fold any tail elements serially
// left-to-right onto that sum. This composes with the kReduceGrain chunking
// in parallel/parallel.hpp: the lane split happens *inside* each fixed
// chunk, so chunk partials (and therefore full reductions) stay bitwise
// reproducible per thread count. The ESRP_FORCE_SCALAR fallback simulates
// the identical lane order with plain scalar code, so a forced-scalar build
// reproduces the vectorized build bit-for-bit (pinned by
// tests/common/simd_kernels_test.cpp and the force-scalar CI job).
//
// Every lane-ordered reduction in the library routes through
// simd_dot_chunk / simd_dot_chunk_at / simd_dist2_chunk or hand-rolled
// loops using Vec4 + lane_ordered_sum with the same shape — keeping the
// order defined in exactly one place.
#pragma once

#include <cstring>

#include "common/types.hpp"

namespace esrp {

/// The virtual lane count. Fixed at 4 independent of the target ISA — part
/// of the reduction-order contract, not a tuning knob.
inline constexpr index_t kSimdLanes = 4;

#if defined(__GNUC__) && !defined(ESRP_FORCE_SCALAR)
#if defined(__AVX__)

/// 4 doubles as one 32-byte native vector (AVX and wider): every operator
/// is a single 4-lane instruction. All arithmetic is per-lane IEEE-754
/// double math — identical to the two-half and scalar variants lane by
/// lane.
struct Vec4 {
  typedef real_t native_t __attribute__((vector_size(4 * sizeof(real_t))));
  native_t v;

  static Vec4 zero() { return Vec4{native_t{0, 0, 0, 0}}; }
  static Vec4 broadcast(real_t a) { return Vec4{native_t{a, a, a, a}}; }
  /// Unaligned load of p[0..3].
  static Vec4 load(const real_t* p) {
    Vec4 r;
    std::memcpy(&r.v, p, sizeof(native_t));
    return r;
  }
  /// Unaligned store to p[0..3].
  void store(real_t* p) const { std::memcpy(p, &v, sizeof(native_t)); }

  real_t lane(int l) const { return v[l]; }

  friend Vec4 operator+(Vec4 a, Vec4 b) { return Vec4{a.v + b.v}; }
  friend Vec4 operator-(Vec4 a, Vec4 b) { return Vec4{a.v - b.v}; }
  friend Vec4 operator*(Vec4 a, Vec4 b) { return Vec4{a.v * b.v}; }
};

#else

/// 4 doubles as two 16-byte native vectors (SSE2 baseline). A single
/// 32-byte generic vector would be split in half by the compiler anyway,
/// but GCC's lowering of oversized vectors keeps the value in stack slots —
/// the hot-loop accumulators bounce through memory every iteration.
/// Spelling the two halves out produces the same per-lane instructions with
/// register-resident accumulators. Each operator performs the identical 4
/// IEEE-754 lane operations as the AVX and scalar variants, so results are
/// bitwise identical.
struct Vec4 {
  typedef real_t half_t __attribute__((vector_size(2 * sizeof(real_t))));
  half_t lo, hi;

  static Vec4 zero() { return Vec4{half_t{0, 0}, half_t{0, 0}}; }
  static Vec4 broadcast(real_t a) { return Vec4{half_t{a, a}, half_t{a, a}}; }
  /// Unaligned load of p[0..3].
  static Vec4 load(const real_t* p) {
    Vec4 r;
    std::memcpy(&r.lo, p, sizeof(half_t));
    std::memcpy(&r.hi, p + 2, sizeof(half_t));
    return r;
  }
  /// Unaligned store to p[0..3].
  void store(real_t* p) const {
    std::memcpy(p, &lo, sizeof(half_t));
    std::memcpy(p + 2, &hi, sizeof(half_t));
  }

  real_t lane(int l) const { return l < 2 ? lo[l] : hi[l - 2]; }

  friend Vec4 operator+(Vec4 a, Vec4 b) {
    return Vec4{a.lo + b.lo, a.hi + b.hi};
  }
  friend Vec4 operator-(Vec4 a, Vec4 b) {
    return Vec4{a.lo - b.lo, a.hi - b.hi};
  }
  friend Vec4 operator*(Vec4 a, Vec4 b) {
    return Vec4{a.lo * b.lo, a.hi * b.hi};
  }
};

#endif
#else

/// Scalar fallback (ESRP_FORCE_SCALAR or a non-GNU compiler): simulates the
/// vector type lane by lane. Each operator performs the same 4 IEEE-754
/// operations as the vector build, so results are bitwise identical.
struct Vec4 {
  real_t l[4];

  static Vec4 zero() { return Vec4{{0, 0, 0, 0}}; }
  static Vec4 broadcast(real_t a) { return Vec4{{a, a, a, a}}; }
  static Vec4 load(const real_t* p) { return Vec4{{p[0], p[1], p[2], p[3]}}; }
  void store(real_t* p) const { std::memcpy(p, l, sizeof(l)); }

  real_t lane(int i) const { return l[i]; }

  friend Vec4 operator+(Vec4 a, Vec4 b) {
    return Vec4{{a.l[0] + b.l[0], a.l[1] + b.l[1], a.l[2] + b.l[2],
                 a.l[3] + b.l[3]}};
  }
  friend Vec4 operator-(Vec4 a, Vec4 b) {
    return Vec4{{a.l[0] - b.l[0], a.l[1] - b.l[1], a.l[2] - b.l[2],
                 a.l[3] - b.l[3]}};
  }
  friend Vec4 operator*(Vec4 a, Vec4 b) {
    return Vec4{{a.l[0] * b.l[0], a.l[1] * b.l[1], a.l[2] * b.l[2],
                 a.l[3] * b.l[3]}};
  }
};

#endif

/// The fixed lane-combine order of every reduction: (l0 + l1) + (l2 + l3).
/// Changing this order re-versions every golden trajectory — don't.
inline real_t lane_ordered_sum(Vec4 a) {
  return (a.lane(0) + a.lane(1)) + (a.lane(2) + a.lane(3));
}

/// Lane-ordered dot product of x[lo..hi) · y[lo..hi): 4 lane accumulators
/// over the stride-4 main loop, combined by lane_ordered_sum, then the tail
/// (hi - lo) mod 4 elements folded serially onto the sum. This is THE
/// canonical reduction kernel — vec_dot, vec_dot2/3 and
/// CsrMatrix::spmv_dot all produce their per-chunk partials with exactly
/// this function (or this shape), which is what makes them mutually bitwise
/// consistent.
inline real_t simd_dot_chunk(const real_t* x, const real_t* y, index_t lo,
                             index_t hi) {
  Vec4 acc = Vec4::zero();
  index_t i = lo;
  for (; i + kSimdLanes <= hi; i += kSimdLanes)
    acc = acc + Vec4::load(x + i) * Vec4::load(y + i);
  real_t s = lane_ordered_sum(acc);
  for (; i < hi; ++i) s += x[i] * y[i];
  return s;
}

/// Lane-ordered squared distance: sum over (x[i] - y[i])^2 with the same
/// lane split, combine order, and serial tail as simd_dot_chunk.
inline real_t simd_dist2_chunk(const real_t* x, const real_t* y, index_t lo,
                               index_t hi) {
  Vec4 acc = Vec4::zero();
  index_t i = lo;
  for (; i + kSimdLanes <= hi; i += kSimdLanes) {
    const Vec4 d = Vec4::load(x + i) - Vec4::load(y + i);
    acc = acc + d * d;
  }
  real_t s = lane_ordered_sum(acc);
  for (; i < hi; ++i) {
    const real_t d = x[i] - y[i];
    s += d * d;
  }
  return s;
}

} // namespace esrp
