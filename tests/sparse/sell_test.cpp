// CSR <-> SELL-C-σ parity: the mirror's spmv / spmv_dot must be bitwise
// equal to the CSR kernels across sorting windows, ragged and empty rows,
// non-multiple-of-C row counts, and thread counts — that equality is what
// lets CsrMatrix route through an attached mirror without re-versioning any
// golden trajectory (sparse/sell.hpp).
#include "sparse/sell.hpp"

#include <gtest/gtest.h>

#include "../parallel/thread_count_guard.hpp"

#include <bit>
#include <cstdint>
#include <vector>

#include "api/registry.hpp"
#include "common/rng.hpp"
#include "sparse/generators.hpp"

namespace esrp {
namespace {

Vector random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  for (real_t& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

void expect_bits_eq(std::span<const real_t> a, std::span<const real_t> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "index " << i;
}

/// Deterministic ragged matrix: row i holds `i*i % 9` consecutive columns
/// (so lengths 0..8 cycle irregularly — empty rows included) starting at a
/// row-dependent offset, with LCG values.
CsrMatrix ragged_matrix(index_t rows, index_t cols) {
  Rng rng(1234);
  std::vector<index_t> row_ptr{0};
  std::vector<index_t> col_idx;
  std::vector<real_t> values;
  for (index_t i = 0; i < rows; ++i) {
    const index_t len = std::min<index_t>((i * i) % 9, cols);
    const index_t start = (i * 7) % std::max<index_t>(1, cols - len + 1);
    for (index_t t = 0; t < len; ++t) {
      col_idx.push_back(start + t);
      values.push_back(rng.uniform(-2.0, 2.0));
    }
    row_ptr.push_back(static_cast<index_t>(col_idx.size()));
  }
  return CsrMatrix(rows, cols, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

void expect_spmv_parity(const CsrMatrix& a, index_t sigma) {
  ThreadCountGuard guard;
  const SellMatrix sell(a, sigma);
  EXPECT_EQ(sell.rows(), a.rows());
  EXPECT_EQ(sell.cols(), a.cols());
  EXPECT_EQ(sell.nnz(), a.nnz());
  EXPECT_GE(sell.padded_entries(), a.nnz());
  const Vector x = random_vector(static_cast<std::size_t>(a.cols()), 99);
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    Vector y_csr(static_cast<std::size_t>(a.rows()), 0);
    Vector y_sell(static_cast<std::size_t>(a.rows()), 0);
    a.spmv(x, y_csr); // no mirror attached: the plain CSR kernel
    sell.spmv(x, y_sell);
    expect_bits_eq(y_sell, y_csr);
    if (a.rows() == a.cols()) {
      Vector yd_csr(static_cast<std::size_t>(a.rows()), 0);
      Vector yd_sell(static_cast<std::size_t>(a.rows()), 0);
      const real_t d_csr = a.spmv_dot(x, yd_csr);
      const real_t d_sell = sell.spmv_dot(x, yd_sell);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(d_csr),
                std::bit_cast<std::uint64_t>(d_sell))
          << "sigma=" << sigma << " threads=" << threads;
      expect_bits_eq(yd_sell, yd_csr);
    }
  }
}

TEST(SellMatrix, BitwiseSpmvParityAcrossSigmaWindows) {
  const CsrMatrix a = ragged_matrix(1021, 1021); // not a multiple of C
  for (const index_t sigma : {index_t{1}, index_t{3}, index_t{4}, index_t{64},
                              index_t{100000}}) {
    SCOPED_TRACE(sigma);
    expect_spmv_parity(a, sigma);
  }
}

TEST(SellMatrix, BitwiseParityOnStencilMatrix) {
  expect_spmv_parity(poisson2d(48, 48), kDefaultSellSigma);
}

TEST(SellMatrix, BitwiseParityOnRectangularMatrix) {
  expect_spmv_parity(ragged_matrix(257, 64), 16);
}

TEST(SellMatrix, StencilMatrixUsesPackedColumnRuns) {
  // On a stencil operator most chunks hold four consecutive rows whose t-th
  // columns are four consecutive indices, so they store one base column per
  // position. The compression is the whole point of the format here: the
  // SpMV is bandwidth-bound, and the column stream shrinks ~4x.
  const CsrMatrix a = poisson2d(64, 64);
  const SellMatrix sell(a, kDefaultSellSigma);
  EXPECT_GT(sell.packed_chunks(), sell.chunk_count() / 2);
  EXPECT_LT(sell.col_stream_entries(), sell.padded_entries() / 2);
  // Ragged rows break both run conditions; everything stays generic with
  // the full 4-wide column tuples.
  const CsrMatrix r = ragged_matrix(256, 256);
  const SellMatrix rsell(r, 16);
  EXPECT_EQ(rsell.col_stream_entries(), rsell.padded_entries());
}

TEST(SellMatrix, SigmaWindowsNeverCrossReduceGrainBoundaries) {
  // > kReduceGrain rows with a window size that would straddle the grain
  // boundary if not clipped: spmv_dot's per-chunk scatter/dot stays
  // self-contained only because of the clipping, so bitwise parity on this
  // matrix is the regression test for it.
  const CsrMatrix a = poisson2d(150, 150); // 22500 rows > 16384
  expect_spmv_parity(a, index_t{10000});
  const SellMatrix sell(a, 10000);
  // The permutation never maps a row across its kReduceGrain block.
  const auto perm = sell.perm();
  for (index_t s = 0; s < a.rows(); ++s)
    ASSERT_EQ(s / kReduceGrain, perm[static_cast<std::size_t>(s)] / kReduceGrain)
        << "slot " << s;
}

TEST(SellMatrix, PermutationSortsByDescendingLengthWithinWindows) {
  const CsrMatrix a = ragged_matrix(300, 300);
  const index_t sigma = 32;
  const SellMatrix sell(a, sigma);
  const auto perm = sell.perm();
  std::vector<bool> seen(static_cast<std::size_t>(a.rows()), false);
  const auto len = [&](index_t r) {
    return a.row_ptr()[static_cast<std::size_t>(r) + 1] -
           a.row_ptr()[static_cast<std::size_t>(r)];
  };
  for (index_t s = 0; s < a.rows(); ++s) {
    const index_t row = perm[static_cast<std::size_t>(s)];
    ASSERT_FALSE(seen[static_cast<std::size_t>(row)]);
    seen[static_cast<std::size_t>(row)] = true;
    // Window-local: a slot's row comes from its own sigma window.
    EXPECT_EQ(s / sigma, row / sigma);
    // Descending lengths within the window.
    if (s % sigma != 0) {
      EXPECT_GE(len(perm[static_cast<std::size_t>(s) - 1]), len(row));
    }
  }
}

TEST(SellMatrix, FormatSellSpecAttachesMirrorAndKeepsSolveBitsIdentical) {
  ThreadCountGuard guard;
  set_num_threads(2);
  TestProblem csr_prob = resolve_matrix("poisson2d:48,48");
  TestProblem sell_prob = resolve_matrix("poisson2d:48,48;format=sell;sigma=128");
  ASSERT_EQ(csr_prob.matrix.sell(), nullptr);
  ASSERT_NE(sell_prob.matrix.sell(), nullptr);
  EXPECT_EQ(sell_prob.matrix.sell()->sigma(), 128);

  // Routed kernels: the attached matrix must produce bitwise identical
  // spmv / spmv_dot results.
  const auto n = static_cast<std::size_t>(csr_prob.matrix.rows());
  const Vector x = random_vector(n, 7);
  Vector y_csr(n, 0), y_sell(n, 0);
  const real_t d_csr = csr_prob.matrix.spmv_dot(x, y_csr);
  const real_t d_sell = sell_prob.matrix.spmv_dot(x, y_sell);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(d_csr),
            std::bit_cast<std::uint64_t>(d_sell));
  expect_bits_eq(y_sell, y_csr);
}

TEST(SellMatrix, ValuesMutDetachesTheMirror) {
  TestProblem prob = resolve_matrix("poisson2d:12,12;format=sell");
  ASSERT_NE(prob.matrix.sell(), nullptr);
  prob.matrix.values_mut()[0] += 1.0;
  // The mirror copied the old values; serving it now would be stale.
  EXPECT_EQ(prob.matrix.sell(), nullptr);
}

TEST(SellMatrix, SpecOptionErrorsAreActionable) {
  EXPECT_THROW(resolve_matrix("poisson2d:8,8;format=hyb"), Error);
  EXPECT_THROW(resolve_matrix("poisson2d:8,8;sigma=64"), Error); // needs sell
  EXPECT_THROW(resolve_matrix("poisson2d:8,8;format=sell;sigma=0"), Error);
  EXPECT_THROW(check_matrix_key("poisson2d:8,8;format=hyb"), Error);
  EXPECT_NO_THROW(check_matrix_key("poisson2d:8,8;format=sell;sigma=64"));
  EXPECT_NO_THROW(resolve_matrix("poisson2d:8,8;format=csr"));
}

} // namespace
} // namespace esrp
