// Submatrix extraction gives the Alg. 2 blocks (A_{I_f,I_f}, and
// A_{I_f,I\I_f} as extract(I_f, set_complement(I_f, n))); verify it against
// dense indexing. The reconstruction's in-place lost-row product is tested
// with reconstruct_row_product (tests/core/reconstruction_test).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "partition/index_set.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "sparse/generators.hpp"

namespace esrp {
namespace {

TEST(Extract, PrincipalSubmatrixOfLaplacian) {
  const CsrMatrix a = laplace1d(5);
  const IndexSet rows{1, 2, 3};
  const CsrMatrix sub = a.extract(rows, rows);
  EXPECT_EQ(sub.rows(), 3);
  EXPECT_EQ(sub.cols(), 3);
  // tridiag(-1, 2, -1) restricted to interior indices is again tridiagonal.
  EXPECT_DOUBLE_EQ(sub.at(0, 0), 2);
  EXPECT_DOUBLE_EQ(sub.at(0, 1), -1);
  EXPECT_DOUBLE_EQ(sub.at(1, 2), -1);
  EXPECT_DOUBLE_EQ(sub.at(0, 2), 0);
}

TEST(Extract, NonContiguousSelection) {
  const CsrMatrix a = laplace1d(6);
  const IndexSet rows{0, 3, 5};
  const CsrMatrix sub = a.extract(rows, rows);
  // No pair of {0, 3, 5} is adjacent, so only diagonals survive.
  EXPECT_EQ(sub.nnz(), 3);
  for (index_t k = 0; k < 3; ++k) EXPECT_DOUBLE_EQ(sub.at(k, k), 2);
}

TEST(Extract, RectangularSelection) {
  const CsrMatrix a = laplace1d(4);
  const IndexSet rows{1};
  const IndexSet cols{0, 2};
  const CsrMatrix sub = a.extract(rows, cols);
  EXPECT_EQ(sub.rows(), 1);
  EXPECT_EQ(sub.cols(), 2);
  EXPECT_DOUBLE_EQ(sub.at(0, 0), -1); // A(1,0)
  EXPECT_DOUBLE_EQ(sub.at(0, 1), -1); // A(1,2)
}

TEST(Extract, NonIncreasingIndexSetThrows) {
  const CsrMatrix a = laplace1d(4);
  const IndexSet bad{2, 1};
  const IndexSet ok{0};
  EXPECT_THROW(a.extract(bad, ok), Error);
  EXPECT_THROW(a.extract(ok, bad), Error);
}

TEST(ExtractExcludingCols, ComplementSelection) {
  const CsrMatrix a = laplace1d(5);
  const IndexSet lost{1, 2}; // extract rows {1,2}, columns NOT in {1,2}
  const CsrMatrix sub = a.extract(lost, set_complement(lost, a.cols()));
  EXPECT_EQ(sub.rows(), 2);
  EXPECT_EQ(sub.cols(), 3); // remaining columns {0, 3, 4} -> local 0,1,2
  EXPECT_DOUBLE_EQ(sub.at(0, 0), -1); // A(1,0)
  EXPECT_DOUBLE_EQ(sub.at(1, 1), -1); // A(2,3) -> local col 1
  EXPECT_DOUBLE_EQ(sub.at(0, 1), 0);
}

TEST(ExtractExcludingCols, AgreesWithDenseReference) {
  const CsrMatrix a = banded_spd(40, 6, 0.6, /*seed=*/3);
  const IndexSet lost{5, 6, 7, 20, 33};
  const CsrMatrix fc = a.extract(lost, set_complement(lost, a.cols()));
  const DenseMatrix dense = DenseMatrix::from_csr(a);
  // Build the reference by dense double-loop over kept columns.
  IndexSet kept;
  for (index_t j = 0; j < 40; ++j)
    if (!std::binary_search(lost.begin(), lost.end(), j)) kept.push_back(j);
  ASSERT_EQ(fc.cols(), static_cast<index_t>(kept.size()));
  for (std::size_t r = 0; r < lost.size(); ++r)
    for (std::size_t c = 0; c < kept.size(); ++c)
      EXPECT_DOUBLE_EQ(fc.at(static_cast<index_t>(r), static_cast<index_t>(c)),
                       dense(lost[r], kept[c]));
}

TEST(Extract, SplitMatvecReassemblesFullProduct) {
  // A x = [A_{f,f} A_{f,c}] [x_f; x_c] restricted to rows f: the identity
  // the reconstruction relies on (Alg. 2 line 7).
  const CsrMatrix a = banded_spd(30, 4, 0.7, /*seed=*/9);
  const IndexSet lost{3, 4, 11, 12, 13, 28};
  const CsrMatrix ff = a.extract(lost, lost);
  const CsrMatrix fc = a.extract(lost, set_complement(lost, a.cols()));

  Rng rng(17);
  Vector x(30);
  for (auto& v : x) v = rng.uniform(-1, 1);

  Vector x_f, x_c;
  for (index_t j = 0; j < 30; ++j) {
    if (std::binary_search(lost.begin(), lost.end(), j))
      x_f.push_back(x[static_cast<std::size_t>(j)]);
    else
      x_c.push_back(x[static_cast<std::size_t>(j)]);
  }

  Vector full(30);
  a.spmv(x, full);
  Vector part1(lost.size()), part2(lost.size());
  ff.spmv(x_f, part1);
  fc.spmv(x_c, part2);
  for (std::size_t k = 0; k < lost.size(); ++k)
    EXPECT_NEAR(part1[k] + part2[k], full[static_cast<std::size_t>(lost[k])],
                1e-12);
}

TEST(Extract, EmptyRowSetGivesEmptyMatrix) {
  const CsrMatrix a = laplace1d(4);
  const IndexSet none;
  const IndexSet all{0, 1, 2, 3};
  const CsrMatrix sub = a.extract(none, all);
  EXPECT_EQ(sub.rows(), 0);
  EXPECT_EQ(sub.nnz(), 0);
}

} // namespace
} // namespace esrp
