// Parity suite for the fused iteration kernels (common/fused.hpp,
// CsrMatrix::spmv_dot): every fused kernel must be bitwise identical to the
// sequential composition of the unfused kernels it replaces, at 1, 2, and 4
// threads. "Bitwise" is EXPECT_EQ on doubles / memcmp on vectors — no
// tolerances — because the solvers rely on fusion being a pure sweep-count
// optimization that cannot perturb a trajectory.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "../parallel/thread_count_guard.hpp"
#include "common/fused.hpp"
#include "common/rng.hpp"
#include "parallel/parallel.hpp"
#include "sparse/generators.hpp"

namespace esrp {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4};

/// Sizes straddling the serial cutoff and the fixed reduction grain: serial
/// floor, one exact grain, and a multi-chunk range with a ragged tail.
const std::size_t kSizes[] = {100, static_cast<std::size_t>(kReduceGrain),
                              static_cast<std::size_t>(3 * kReduceGrain) + 17};

Vector random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  for (real_t& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

void expect_bitwise_equal(const Vector& a, const Vector& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (a.empty()) return; // data() may be null: memcmp(null, ..) is UB
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)))
      << what << " differs from the unfused composition";
}

TEST(FusedKernels, Dot2MatchesTwoDots) {
  ThreadCountGuard guard;
  for (const std::size_t n : kSizes) {
    const Vector x1 = random_vector(n, 1), y1 = random_vector(n, 2);
    const Vector x2 = random_vector(n, 3), y2 = random_vector(n, 4);
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " threads=" << threads);
      set_num_threads(threads);
      const auto [a, b] = vec_dot2(x1, y1, x2, y2);
      EXPECT_EQ(a, vec_dot(x1, y1));
      EXPECT_EQ(b, vec_dot(x2, y2));
    }
  }
}

TEST(FusedKernels, Dot3MatchesThreeDots) {
  ThreadCountGuard guard;
  for (const std::size_t n : kSizes) {
    const Vector x1 = random_vector(n, 5), y1 = random_vector(n, 6);
    const Vector x2 = random_vector(n, 7), y2 = random_vector(n, 8);
    const Vector x3 = random_vector(n, 9), y3 = random_vector(n, 10);
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " threads=" << threads);
      set_num_threads(threads);
      const auto [a, b, c] = vec_dot3(x1, y1, x2, y2, x3, y3);
      EXPECT_EQ(a, vec_dot(x1, y1));
      EXPECT_EQ(b, vec_dot(x2, y2));
      EXPECT_EQ(c, vec_dot(x3, y3));
    }
  }
}

TEST(FusedKernels, Dot3AliasedOperandsMatchSolverUsage) {
  // The solvers call vec_dot3(r, u, w, u, r, r) — operands alias heavily.
  ThreadCountGuard guard;
  const std::size_t n = kSizes[2];
  const Vector r = random_vector(n, 11), u = random_vector(n, 12),
               w = random_vector(n, 13);
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    set_num_threads(threads);
    const auto [gamma, delta, rr] = vec_dot3(r, u, w, u, r, r);
    EXPECT_EQ(gamma, vec_dot(r, u));
    EXPECT_EQ(delta, vec_dot(w, u));
    EXPECT_EQ(rr, vec_dot(r, r));
  }
}

TEST(FusedKernels, VecSubMatchesElementwise) {
  ThreadCountGuard guard;
  for (const std::size_t n : kSizes) {
    const Vector x = random_vector(n, 14), y = random_vector(n, 15);
    Vector expected(n);
    for (std::size_t k = 0; k < n; ++k) expected[k] = x[k] - y[k];
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " threads=" << threads);
      set_num_threads(threads);
      Vector z(n, 0);
      vec_sub(x, y, z);
      expect_bitwise_equal(expected, z, "vec_sub");
      // In-place form used by the residual kernels: r = b - r.
      Vector r = y;
      vec_sub(x, r, r);
      expect_bitwise_equal(expected, r, "vec_sub in-place");
    }
  }
}

TEST(FusedKernels, Axpy2MatchesTwoAxpys) {
  ThreadCountGuard guard;
  for (const std::size_t n : kSizes) {
    const Vector p = random_vector(n, 16), ap = random_vector(n, 17);
    const Vector x0 = random_vector(n, 18), r0 = random_vector(n, 19);
    const real_t alpha = 0.731;
    Vector x_ref = x0, r_ref = r0;
    vec_axpy(x_ref, alpha, p);
    vec_axpy(r_ref, -alpha, ap);
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " threads=" << threads);
      set_num_threads(threads);
      Vector x = x0, r = r0;
      fused_axpy2(x, alpha, p, r, -alpha, ap);
      expect_bitwise_equal(x_ref, x, "x");
      expect_bitwise_equal(r_ref, r, "r");
    }
  }
}

TEST(FusedKernels, Axpy2SecondInputMayAliasFirstOutput) {
  // y2 += a2 * y1 must see the already-updated y1, exactly as the
  // sequential pair does.
  ThreadCountGuard guard;
  const std::size_t n = kSizes[2];
  const Vector x1 = random_vector(n, 20);
  const Vector y1_0 = random_vector(n, 21), y2_0 = random_vector(n, 22);
  Vector y1_ref = y1_0, y2_ref = y2_0;
  vec_axpy(y1_ref, 0.5, x1);
  vec_axpy(y2_ref, -0.25, y1_ref);
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    set_num_threads(threads);
    Vector y1 = y1_0, y2 = y2_0;
    fused_axpy2(y1, 0.5, x1, y2, -0.25, y1);
    expect_bitwise_equal(y1_ref, y1, "y1");
    expect_bitwise_equal(y2_ref, y2, "y2");
  }
}

TEST(FusedKernels, PipelinedUpdateMatchesEightKernelSequence) {
  ThreadCountGuard guard;
  for (const std::size_t n : kSizes) {
    const Vector nv = random_vector(n, 23), m = random_vector(n, 24);
    const Vector z0 = random_vector(n, 25), q0 = random_vector(n, 26),
                 s0 = random_vector(n, 27), p0 = random_vector(n, 28),
                 x0 = random_vector(n, 29), r0 = random_vector(n, 30),
                 u0 = random_vector(n, 31), w0 = random_vector(n, 32);
    const real_t alpha = 0.391, beta = 0.274;

    Vector z_ref = z0, q_ref = q0, s_ref = s0, p_ref = p0;
    Vector x_ref = x0, r_ref = r0, u_ref = u0, w_ref = w0;
    vec_xpby(z_ref, nv, beta);
    vec_xpby(q_ref, m, beta);
    vec_xpby(s_ref, w_ref, beta);
    vec_xpby(p_ref, u_ref, beta);
    vec_axpy(x_ref, alpha, p_ref);
    vec_axpy(r_ref, -alpha, s_ref);
    vec_axpy(u_ref, -alpha, q_ref);
    vec_axpy(w_ref, -alpha, z_ref);

    for (const int threads : kThreadCounts) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " threads=" << threads);
      set_num_threads(threads);
      Vector z = z0, q = q0, s = s0, p = p0;
      Vector x = x0, r = r0, u = u0, w = w0;
      fused_pipelined_update(z, nv, q, m, s, w, p, u, x, r, alpha, beta);
      expect_bitwise_equal(z_ref, z, "z");
      expect_bitwise_equal(q_ref, q, "q");
      expect_bitwise_equal(s_ref, s, "s");
      expect_bitwise_equal(p_ref, p, "p");
      expect_bitwise_equal(x_ref, x, "x");
      expect_bitwise_equal(r_ref, r, "r");
      expect_bitwise_equal(u_ref, u, "u");
      expect_bitwise_equal(w_ref, w, "w");
    }
  }
}

TEST(FusedKernels, SpmvDotMatchesSpmvThenDot) {
  ThreadCountGuard guard;
  // 22500 rows: above kReduceGrain, so the >= 2-thread runs exercise the
  // multi-chunk reduction path; 256 rows stays on the serial path.
  const CsrMatrix small = poisson2d(16, 16);
  const CsrMatrix large = poisson2d(150, 150);
  for (const CsrMatrix* a : {&small, &large}) {
    const auto n = static_cast<std::size_t>(a->rows());
    const Vector p = random_vector(n, 33);
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE(testing::Message() << "rows=" << n << " threads=" << threads);
      set_num_threads(threads);
      // Reference at the SAME thread count: a chunked reduction matches its
      // serial sum only below the grain, so the contract is per-count parity.
      Vector y_ref(n);
      a->spmv(p, y_ref);
      const real_t pap_ref = vec_dot(p, y_ref);
      Vector y(n, 0);
      const real_t pap = a->spmv_dot(p, y);
      EXPECT_EQ(pap_ref, pap);
      expect_bitwise_equal(y_ref, y, "y");
    }
  }
}

TEST(FusedKernels, DotSegmentsMatchVecDotPerSegment) {
  ThreadCountGuard guard;
  // Absolute bounds starting past 0, as a task's partition offsets do:
  // two empty segments, short ragged ones, one whose products are all -0,
  // and one past kReduceGrain that takes vec_dot's chunked path.
  const index_t g = kReduceGrain;
  const std::vector<index_t> bounds = {7,  7,  10, 75, 75,
                                       83, 84, 84 + 2 * g + 5, 84 + 2 * g + 18};
  const index_t neg_lo = 75 - 7, neg_hi = 83 - 7; // the -0 segment
  const auto n = static_cast<std::size_t>(bounds.back() - bounds.front());
  Vector x = random_vector(n, 35), y = random_vector(n, 36);
  for (index_t i = neg_lo; i < neg_hi; ++i) {
    x[static_cast<std::size_t>(i)] = -0.0;
    y[static_cast<std::size_t>(i)] = 1.0;
  }
  const std::size_t segments = bounds.size() - 1;
  // Pair 0 reads x.y, pair 1 aliases x with itself.
  const DotOperands pairs[] = {{x, y}, {x, x}};
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    set_num_threads(threads);
    std::vector<real_t> partials(segments * 2, -1);
    vec_dot_segments(pairs, bounds, partials);
    for (std::size_t s = 0; s < segments; ++s) {
      const auto at = static_cast<std::size_t>(bounds[s] - bounds[0]);
      const auto len = static_cast<std::size_t>(bounds[s + 1] - bounds[s]);
      const std::span<const real_t> xs = std::span(x).subspan(at, len);
      const std::span<const real_t> ys = std::span(y).subspan(at, len);
      SCOPED_TRACE(testing::Message() << "segment " << s << " len " << len);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(partials[2 * s]),
                std::bit_cast<std::uint64_t>(vec_dot(xs, ys)));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(partials[2 * s + 1]),
                std::bit_cast<std::uint64_t>(vec_dot(xs, xs)));
    }
    // Empty segments give +0, and all -0 products sum to +0 as in vec_dot.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(partials[0]), 0u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(partials[2 * 3]), 0u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(partials[2 * 4]), 0u);
  }
}

TEST(FusedKernels, ParallelCopyAndZeroMatchSerial) {
  ThreadCountGuard guard;
  for (const std::size_t n : kSizes) {
    const Vector x = random_vector(n, 34);
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " threads=" << threads);
      set_num_threads(threads);
      Vector y(n, -1);
      vec_copy(x, y);
      expect_bitwise_equal(x, y, "copy");
      vec_zero(y);
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_EQ(real_t{0}, y[k]) << "zero at " << k;
      }
    }
  }
}

} // namespace
} // namespace esrp
