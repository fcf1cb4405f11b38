#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"

namespace esrp {
namespace {

CsrMatrix small_example() {
  // [ 2 -1  0 ]
  // [-1  2 -1 ]
  // [ 0 -1  2 ]
  CooBuilder b(3, 3);
  b.add(0, 0, 2);
  b.add(0, 1, -1);
  b.add(1, 0, -1);
  b.add(1, 1, 2);
  b.add(1, 2, -1);
  b.add(2, 1, -1);
  b.add(2, 2, 2);
  return b.to_csr();
}

TEST(CooBuilder, BuildsExpectedCsr) {
  const CsrMatrix a = small_example();
  EXPECT_EQ(a.rows(), 3);
  EXPECT_EQ(a.cols(), 3);
  EXPECT_EQ(a.nnz(), 7);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 2);
  EXPECT_DOUBLE_EQ(a.at(1, 0), -1);
  EXPECT_DOUBLE_EQ(a.at(0, 2), 0);
}

TEST(CooBuilder, DuplicatesAreSummed) {
  CooBuilder b(2, 2);
  b.add(0, 0, 1);
  b.add(0, 0, 2.5);
  const CsrMatrix a = b.to_csr();
  EXPECT_EQ(a.nnz(), 1);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 3.5);
}

TEST(CooBuilder, CancellingDuplicatesAreDropped) {
  CooBuilder b(2, 2);
  b.add(1, 1, 4);
  b.add(1, 1, -4);
  b.add(0, 1, 1);
  const CsrMatrix a = b.to_csr();
  EXPECT_EQ(a.nnz(), 1);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 0);
}

TEST(CooBuilder, AddSymAddsMirrorEntry) {
  CooBuilder b(3, 3);
  b.add_sym(0, 2, 5);
  b.add_sym(1, 1, 7); // diagonal: added once
  const CsrMatrix a = b.to_csr();
  EXPECT_DOUBLE_EQ(a.at(0, 2), 5);
  EXPECT_DOUBLE_EQ(a.at(2, 0), 5);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 7);
  EXPECT_EQ(a.nnz(), 3);
}

TEST(CooBuilder, OutOfRangeTripletThrows) {
  CooBuilder b(2, 2);
  EXPECT_THROW(b.add(2, 0, 1), Error);
  EXPECT_THROW(b.add(0, -1, 1), Error);
}

TEST(CooBuilder, ConsumingToCsrMatchesCopyingBitwise) {
  // Shuffled triplets with duplicates and a cancelling pair: both overloads
  // sort the same sequence, so they sum duplicates in the same order.
  Rng rng(3);
  CooBuilder b(40, 40);
  for (int k = 0; k < 600; ++k)
    b.add(static_cast<index_t>(rng.next_double() * 40),
          static_cast<index_t>(rng.next_double() * 40), rng.uniform(-1, 1));
  b.add(7, 9, 0.25);
  b.add(7, 9, -0.25);
  b.reserve(2 * b.triplet_count()); // reserving keeps the triplets
  const CsrMatrix copied = b.to_csr();
  EXPECT_EQ(b.triplet_count(), 602u);
  const CsrMatrix consumed = std::move(b).to_csr();
  EXPECT_TRUE(std::ranges::equal(consumed.row_ptr(), copied.row_ptr()));
  EXPECT_TRUE(std::ranges::equal(consumed.col_idx(), copied.col_idx()));
  ASSERT_EQ(consumed.nnz(), copied.nnz());
  for (std::size_t k = 0; k < consumed.values().size(); ++k)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(consumed.values()[k]),
              std::bit_cast<std::uint64_t>(copied.values()[k]));
}

TEST(CooBuilder, RejectsColumnsBeyondColT) {
  constexpr index_t kMax = std::numeric_limits<col_t>::max();
  EXPECT_THROW(CooBuilder(1, kMax + 1), Error);
  // At the edge: INT32_MAX columns, one entry in the last column.
  CooBuilder b(1, kMax);
  b.add(0, kMax - 1, 2.5);
  const CsrMatrix a = std::move(b).to_csr();
  EXPECT_EQ(a.cols(), kMax);
  EXPECT_EQ(a.at(0, kMax - 1), 2.5);
}

TEST(CooBuilder, EmptyMatrixProducesValidCsr) {
  CooBuilder b(4, 4);
  const CsrMatrix a = b.to_csr();
  EXPECT_EQ(a.nnz(), 0);
  EXPECT_EQ(a.rows(), 4);
}

TEST(Csr, RowAccessorsAreSortedAndConsistent) {
  const CsrMatrix a = small_example();
  const auto cols = a.row_cols(1);
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_TRUE(std::is_sorted(cols.begin(), cols.end()));
  const auto vals = a.row_vals(1);
  EXPECT_DOUBLE_EQ(vals[0], -1);
  EXPECT_DOUBLE_EQ(vals[1], 2);
  EXPECT_DOUBLE_EQ(vals[2], -1);
}

TEST(Csr, SpmvMatchesHandComputation) {
  const CsrMatrix a = small_example();
  const Vector x{1, 2, 3};
  Vector y(3);
  a.spmv(x, y);
  EXPECT_EQ(y, (Vector{0, 0, 4}));
}

TEST(Csr, SpmvRowsComputesPartialProduct) {
  const CsrMatrix a = small_example();
  const Vector x{1, 2, 3};
  Vector y(2);
  a.spmv_rows(1, 3, x, y);
  EXPECT_EQ(y, (Vector{0, 4}));
}

TEST(Csr, TransposeOfSymmetricEqualsOriginal) {
  const CsrMatrix a = small_example();
  const CsrMatrix at = a.transpose();
  for (index_t i = 0; i < 3; ++i)
    for (index_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(at.at(i, j), a.at(i, j));
}

TEST(Csr, TransposeOfRectangular) {
  CooBuilder b(2, 3);
  b.add(0, 2, 1);
  b.add(1, 0, 5);
  const CsrMatrix at = b.to_csr().transpose();
  EXPECT_EQ(at.rows(), 3);
  EXPECT_EQ(at.cols(), 2);
  EXPECT_DOUBLE_EQ(at.at(2, 0), 1);
  EXPECT_DOUBLE_EQ(at.at(0, 1), 5);
}

TEST(Csr, DiagonalExtractsStoredAndMissingEntries) {
  CooBuilder b(3, 3);
  b.add(0, 0, 4);
  b.add(2, 2, 9);
  const Vector d = b.to_csr().diagonal();
  EXPECT_EQ(d, (Vector{4, 0, 9}));
}

TEST(Csr, IsSymmetricDetectsAsymmetry) {
  EXPECT_TRUE(small_example().is_symmetric());
  CooBuilder b(2, 2);
  b.add(0, 1, 1);
  EXPECT_FALSE(b.to_csr().is_symmetric());
}

TEST(Csr, HalfBandwidthOfTridiagonalIsOne) {
  EXPECT_EQ(small_example().half_bandwidth(), 1);
}

TEST(Csr, NnzWithinBandCountsDiagonalBand) {
  const CsrMatrix a = small_example();
  EXPECT_EQ(a.nnz_within_band(0), 3);  // diagonal only
  EXPECT_EQ(a.nnz_within_band(1), 7);  // everything
}

TEST(Csr, InvalidRowPtrThrows) {
  // row_ptr not covering all entries
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1}, {0}, {1.0}), Error);
}

TEST(Csr, UnsortedColumnsThrow) {
  EXPECT_THROW(CsrMatrix(1, 3, {0, 2}, {2, 0}, {1.0, 1.0}), Error);
}

TEST(Csr, ColumnsBeyondColTThrow) {
  constexpr index_t kMax = std::numeric_limits<col_t>::max();
  EXPECT_THROW(CsrMatrix(1, kMax + 1, {0, 0}, {}, {}), Error);
  // At the edge: one entry in the last of INT32_MAX columns.
  const CsrMatrix a(1, kMax, {0, 1}, {static_cast<col_t>(kMax - 1)}, {2.5});
  EXPECT_EQ(a.at(0, kMax - 1), 2.5);
  EXPECT_EQ(a.at(0, 0), 0.0);
}

TEST(Csr, IdentityFactory) {
  const CsrMatrix eye = csr_identity(4, 2.5);
  EXPECT_EQ(eye.nnz(), 4);
  for (index_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(eye.at(i, i), 2.5);
  Vector y(4);
  eye.spmv(Vector{1, 2, 3, 4}, y);
  EXPECT_EQ(y, (Vector{2.5, 5, 7.5, 10}));
}

} // namespace
} // namespace esrp
