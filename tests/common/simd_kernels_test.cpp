// SIMD-vs-scalar-reference parity for every vectorized kernel. The
// reference below re-implements the documented lane-order contract
// (common/simd.hpp: 4 lane accumulators, lane l taking indices i ≡ l mod 4,
// combined as (l0 + l1) + (l2 + l3), serial tail; chunked by kReduceGrain
// with the single-chunk serial path at one thread) in plain scalar code
// that never touches the SIMD layer. The vectorized build must match it
// bitwise — and so must the ESRP_FORCE_SCALAR fallback build, which CI runs
// over this same suite: both matching the one reference proves vectorized
// and forced-scalar builds are bitwise identical to each other.
#include "common/simd.hpp"

#include <gtest/gtest.h>

#include "../parallel/thread_count_guard.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/fused.hpp"
#include "common/rng.hpp"
#include "common/vec.hpp"
#include "parallel/parallel.hpp"
#include "sparse/generators.hpp"

namespace esrp {
namespace {

Vector random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  for (real_t& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

::testing::AssertionResult bits_eq(real_t a, real_t b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << std::hexfloat << a << " != " << b << " (bitwise)";
}

void expect_bits_eq(std::span<const real_t> a, std::span<const real_t> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_TRUE(bits_eq(a[i], b[i])) << "index " << i;
}

/// The contract's per-chunk dot, written without the SIMD layer.
real_t ref_dot_chunk(const real_t* x, const real_t* y, index_t lo,
                     index_t hi) {
  real_t lane[4] = {0, 0, 0, 0};
  index_t i = lo;
  for (; i + 4 <= hi; i += 4)
    for (int l = 0; l < 4; ++l) lane[l] += x[i + l] * y[i + l];
  real_t s = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (; i < hi; ++i) s += x[i] * y[i];
  return s;
}

real_t ref_dist2_chunk(const real_t* x, const real_t* y, index_t lo,
                       index_t hi) {
  real_t lane[4] = {0, 0, 0, 0};
  index_t i = lo;
  for (; i + 4 <= hi; i += 4)
    for (int l = 0; l < 4; ++l) {
      const real_t d = x[i + l] - y[i + l];
      lane[l] += d * d;
    }
  real_t s = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (; i < hi; ++i) {
    const real_t d = x[i] - y[i];
    s += d * d;
  }
  return s;
}

/// parallel_reduce's exact combination semantics, serially: a single chunk
/// at one thread (or when the range fits one grain), else fixed kReduceGrain
/// chunks combined in index order starting from +0.0.
template <class ChunkFn>
real_t ref_reduce(index_t n, int threads, ChunkFn&& chunk) {
  if (threads == 1 || n <= kReduceGrain) return real_t{0} + chunk(0, n);
  real_t acc = 0;
  for (index_t lo = 0; lo < n; lo += kReduceGrain)
    acc = acc + chunk(lo, std::min(n, lo + kReduceGrain));
  return acc;
}

// Sizes: bigger than one grain with a non-multiple-of-4 tail, and a tiny
// odd size that is all tail.
constexpr std::size_t kBig = (1u << 15) + 3u;
constexpr std::size_t kTiny = 7;

TEST(SimdKernels, VecDotMatchesLaneOrderedReference) {
  ThreadCountGuard guard;
  for (const std::size_t n : {kTiny, kBig}) {
    const Vector x = random_vector(n, 1);
    const Vector y = random_vector(n, 2);
    for (const int threads : {1, 2, 4}) {
      set_num_threads(threads);
      const real_t expected =
          ref_reduce(static_cast<index_t>(n), threads,
                     [&](index_t lo, index_t hi) {
                       return ref_dot_chunk(x.data(), y.data(), lo, hi);
                     });
      ASSERT_TRUE(bits_eq(vec_dot(x, y), expected))
          << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(SimdKernels, VecNorm2AndDist2MatchReference) {
  ThreadCountGuard guard;
  const Vector x = random_vector(kBig, 3);
  const Vector y = random_vector(kBig, 4);
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    const real_t dot = ref_reduce(static_cast<index_t>(kBig), threads,
                                  [&](index_t lo, index_t hi) {
                                    return ref_dot_chunk(x.data(), x.data(),
                                                         lo, hi);
                                  });
    ASSERT_TRUE(bits_eq(vec_norm2(x), std::sqrt(dot))) << threads;
    const real_t d2 = ref_reduce(static_cast<index_t>(kBig), threads,
                                 [&](index_t lo, index_t hi) {
                                   return ref_dist2_chunk(x.data(), y.data(),
                                                          lo, hi);
                                 });
    ASSERT_TRUE(bits_eq(vec_dist2(x, y), std::sqrt(d2))) << threads;
  }
}

TEST(SimdKernels, MultiDotsMatchPerComponentReference) {
  ThreadCountGuard guard;
  const Vector x1 = random_vector(kBig, 5);
  const Vector y1 = random_vector(kBig, 6);
  const Vector x2 = random_vector(kBig, 7);
  const Vector y2 = random_vector(kBig, 8);
  const Vector x3 = random_vector(kBig, 9);
  const Vector y3 = random_vector(kBig, 10);
  const auto ref = [&](const Vector& x, const Vector& y, int threads) {
    return ref_reduce(static_cast<index_t>(kBig), threads,
                      [&](index_t lo, index_t hi) {
                        return ref_dot_chunk(x.data(), y.data(), lo, hi);
                      });
  };
  for (const int threads : {1, 2, 4}) {
    set_num_threads(threads);
    const auto [d1, d2] = vec_dot2(x1, y1, x2, y2);
    ASSERT_TRUE(bits_eq(d1, ref(x1, y1, threads))) << threads;
    ASSERT_TRUE(bits_eq(d2, ref(x2, y2, threads))) << threads;
    const auto t = vec_dot3(x1, y1, x2, y2, x3, y3);
    ASSERT_TRUE(bits_eq(t[0], ref(x1, y1, threads))) << threads;
    ASSERT_TRUE(bits_eq(t[1], ref(x2, y2, threads))) << threads;
    ASSERT_TRUE(bits_eq(t[2], ref(x3, y3, threads))) << threads;
  }
}

TEST(SimdKernels, SpmvAndSpmvDotMatchScalarRowReference) {
  ThreadCountGuard guard;
  // 22500 rows: several kReduceGrain chunks plus a partial one.
  const CsrMatrix a = poisson2d(150, 150);
  const auto n = static_cast<std::size_t>(a.rows());
  const Vector x = random_vector(n, 11);
  // The per-row reference: the plain serial CSR loop.
  Vector y_ref(n, 0);
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    real_t acc = 0;
    for (std::size_t k = 0; k < cols.size(); ++k)
      acc += vals[k] * x[static_cast<std::size_t>(cols[k])];
    y_ref[static_cast<std::size_t>(i)] = acc;
  }
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    Vector y(n, 0);
    a.spmv(x, y);
    expect_bits_eq(y, y_ref);
    const real_t expected =
        ref_reduce(a.rows(), threads, [&](index_t lo, index_t hi) {
          return ref_dot_chunk(x.data(), y_ref.data(), lo, hi);
        });
    Vector y2(n, 0);
    ASSERT_TRUE(bits_eq(a.spmv_dot(x, y2), expected)) << threads;
    expect_bits_eq(y2, y_ref);
  }
}

TEST(SimdKernels, ElementwiseKernelsMatchScalarLoops) {
  ThreadCountGuard guard;
  const std::size_t n = kBig;
  const Vector x = random_vector(n, 30);
  const Vector w = random_vector(n, 31);
  for (const int threads : {1, 4}) {
    set_num_threads(threads);

    Vector a = random_vector(n, 32), a_ref = a;
    vec_axpy(a, 0.37, x);
    for (std::size_t i = 0; i < n; ++i) a_ref[i] += 0.37 * x[i];
    expect_bits_eq(a, a_ref);

    Vector b = random_vector(n, 33), b_ref = b;
    vec_xpby(b, x, -1.25);
    for (std::size_t i = 0; i < n; ++i) b_ref[i] = x[i] + -1.25 * b_ref[i];
    expect_bits_eq(b, b_ref);

    Vector c = random_vector(n, 34), c_ref = c;
    vec_scale(c, 1.0 / 3.0);
    for (std::size_t i = 0; i < n; ++i) c_ref[i] *= 1.0 / 3.0;
    expect_bits_eq(c, c_ref);

    Vector d(n, 0), d_ref(n, 0);
    vec_pointwise_mul(x, w, d);
    for (std::size_t i = 0; i < n; ++i) d_ref[i] = x[i] * w[i];
    expect_bits_eq(d, d_ref);

    Vector e(n, 0), e_ref(n, 0);
    vec_sub(x, w, e);
    for (std::size_t i = 0; i < n; ++i) e_ref[i] = x[i] - w[i];
    expect_bits_eq(e, e_ref);
  }
}

TEST(SimdKernels, FusedUpdatesMatchScalarLoops) {
  ThreadCountGuard guard;
  const std::size_t n = kBig;
  const Vector x1 = random_vector(n, 40);
  for (const int threads : {1, 4}) {
    set_num_threads(threads);

    // fused_axpy2 with the x2-aliases-y1 pattern the contract names.
    Vector y1 = random_vector(n, 41), y1_ref = y1;
    Vector y2 = random_vector(n, 42), y2_ref = y2;
    fused_axpy2(y1, 0.7, x1, y2, -0.3, y1);
    for (std::size_t i = 0; i < n; ++i) {
      y1_ref[i] += 0.7 * x1[i];
      y2_ref[i] += -0.3 * y1_ref[i];
    }
    expect_bits_eq(y1, y1_ref);
    expect_bits_eq(y2, y2_ref);

    // fused_pipelined_update: all 10 operands, both scalars.
    std::array<Vector, 10> v;
    std::array<Vector, 10> ref;
    for (std::size_t k = 0; k < v.size(); ++k) {
      v[k] = random_vector(n, 50 + k);
      ref[k] = v[k];
    }
    auto& [z, nv, q, m, s, w2, p, u, xx, r] = v;
    fused_pipelined_update(z, nv, q, m, s, w2, p, u, xx, r, 0.21, -0.83);
    auto& [rz, rnv, rq, rm, rs, rw, rp, ru, rx, rr] = ref;
    for (std::size_t i = 0; i < n; ++i) {
      rz[i] = rnv[i] + -0.83 * rz[i];
      rq[i] = rm[i] + -0.83 * rq[i];
      rs[i] = rw[i] + -0.83 * rs[i];
      rp[i] = ru[i] + -0.83 * rp[i];
      rx[i] += 0.21 * rp[i];
      rr[i] -= 0.21 * rs[i];
      ru[i] -= 0.21 * rq[i];
      rw[i] -= 0.21 * rz[i];
    }
    for (std::size_t k = 0; k < v.size(); ++k) expect_bits_eq(v[k], ref[k]);
  }
}

} // namespace
} // namespace esrp
