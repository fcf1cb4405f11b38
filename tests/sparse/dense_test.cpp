#include "sparse/dense.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sparse/generators.hpp"

namespace esrp {
namespace {

DenseMatrix spd3() {
  // A = [[4,1,0],[1,3,1],[0,1,2]] (diagonally dominant symmetric -> SPD).
  DenseMatrix a(3, 3);
  a(0, 0) = 4; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 3; a(1, 2) = 1;
  a(2, 1) = 1; a(2, 2) = 2;
  return a;
}

TEST(DenseMatrix, IdentityAndIndexing) {
  const DenseMatrix eye = DenseMatrix::identity(3);
  EXPECT_DOUBLE_EQ(eye(0, 0), 1);
  EXPECT_DOUBLE_EQ(eye(0, 1), 0);
}

TEST(DenseMatrix, FromCsrRoundTrip) {
  const CsrMatrix a = laplace1d(4);
  const DenseMatrix d = DenseMatrix::from_csr(a);
  for (index_t i = 0; i < 4; ++i)
    for (index_t j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(d(i, j), a.at(i, j));
}

TEST(DenseMatrix, MatvecMatchesManual) {
  DenseMatrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  Vector y(2);
  a.matvec(Vector{1, 1, 1}, y);
  EXPECT_EQ(y, (Vector{6, 15}));
}

TEST(DenseMatrix, TransposeAndMultiply) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 3; a(1, 1) = 4;
  const DenseMatrix at = a.transpose();
  EXPECT_DOUBLE_EQ(at(0, 1), 3);
  const DenseMatrix prod = a.multiply(at);
  EXPECT_DOUBLE_EQ(prod(0, 0), 5);
  EXPECT_DOUBLE_EQ(prod(0, 1), 11);
  EXPECT_TRUE(prod.is_symmetric());
}

TEST(DenseMatrix, IsSymmetricDetectsAsymmetry) {
  DenseMatrix a(2, 2);
  a(0, 1) = 1;
  EXPECT_FALSE(a.is_symmetric());
  a(1, 0) = 1;
  EXPECT_TRUE(a.is_symmetric());
}

TEST(Cholesky, SolveRecoversKnownSolution) {
  const DenseMatrix a = spd3();
  const Vector x_true{1, -2, 3};
  Vector b(3);
  a.matvec(x_true, b);
  const Vector x = Cholesky(a).solve(b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-12);
}

TEST(Cholesky, InverseTimesMatrixIsIdentity) {
  const DenseMatrix a = spd3();
  const DenseMatrix inv = Cholesky(a).inverse();
  const DenseMatrix prod = a.multiply(inv);
  EXPECT_LT(prod.max_abs_diff(DenseMatrix::identity(3)), 1e-12);
}

TEST(Cholesky, InverseColumnsEqualSolvesBitwise) {
  Rng rng(18);
  for (index_t n = 1; n <= 12; ++n) {
    // A = G^T G + n I with random G: SPD with a generic, dense factor.
    DenseMatrix g(n, n);
    for (index_t i = 0; i < n; ++i)
      for (index_t j = 0; j < n; ++j) g(i, j) = rng.uniform(-1, 1);
    DenseMatrix a = g.transpose().multiply(g);
    for (index_t i = 0; i < n; ++i) a(i, i) += static_cast<real_t>(n);
    const Cholesky chol(a);
    const DenseMatrix inv = chol.inverse();
    Vector e(static_cast<std::size_t>(n), 0);
    for (index_t j = 0; j < n; ++j) {
      e[static_cast<std::size_t>(j)] = 1;
      const Vector col = chol.solve(e);
      e[static_cast<std::size_t>(j)] = 0;
      for (index_t i = 0; i < n; ++i)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(inv(i, j)),
                  std::bit_cast<std::uint64_t>(col[static_cast<std::size_t>(i)]))
            << "n=" << n << " (" << i << ", " << j << ")";
    }
  }
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 2; a(1, 1) = 1; // eigenvalues 3 and -1
  EXPECT_THROW(Cholesky{a}, Error);
}

TEST(Cholesky, LogDetOfDiagonalMatrix) {
  DenseMatrix a(2, 2);
  a(0, 0) = 4; a(1, 1) = 9;
  EXPECT_NEAR(Cholesky(a).log_det(), std::log(36.0), 1e-12);
}

TEST(DenseSolve, PartialPivotingHandlesZeroLeadingPivot) {
  DenseMatrix a(2, 2);
  a(0, 0) = 0; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 0;
  const Vector x = dense_solve(a, Vector{3, 7});
  EXPECT_NEAR(x[0], 7, 1e-14);
  EXPECT_NEAR(x[1], 3, 1e-14);
}

TEST(DenseSolve, RandomSystemResidualIsTiny) {
  Rng rng(41);
  const index_t n = 20;
  DenseMatrix a(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1, 1);
    a(i, i) += 5; // keep well-conditioned
  }
  Vector b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform(-1, 1);
  const Vector x = dense_solve(a, b);
  Vector ax(static_cast<std::size_t>(n));
  a.matvec(x, ax);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(ax[i], b[i], 1e-10);
}

TEST(DenseSolve, SingularMatrixThrows) {
  DenseMatrix a(2, 2); // all zeros
  EXPECT_THROW(dense_solve(a, Vector{1, 1}), Error);
}

} // namespace
} // namespace esrp
