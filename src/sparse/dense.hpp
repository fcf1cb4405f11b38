// Small dense-matrix support: column-major storage, Cholesky factorization
// and triangular solves. Used for (a) inverting the block Jacobi blocks
// (paper: block size <= 10) and (b) dense reference computations in tests.
#pragma once

#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "common/vec.hpp"

namespace esrp {

class CsrMatrix;

class DenseMatrix {
public:
  DenseMatrix() : rows_(0), cols_(0) {}
  DenseMatrix(index_t rows, index_t cols);

  static DenseMatrix identity(index_t n);
  static DenseMatrix from_csr(const CsrMatrix& a);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }

  real_t& operator()(index_t i, index_t j) { return data_[offset(i, j)]; }
  real_t operator()(index_t i, index_t j) const { return data_[offset(i, j)]; }

  /// y := A x.
  void matvec(std::span<const real_t> x, std::span<real_t> y) const;

  DenseMatrix transpose() const;
  DenseMatrix multiply(const DenseMatrix& b) const;

  /// Maximum absolute entry difference against `other`.
  real_t max_abs_diff(const DenseMatrix& other) const;

  bool is_symmetric(real_t tol = 1e-12) const;

private:
  std::size_t offset(index_t i, index_t j) const {
    ESRP_CHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return static_cast<std::size_t>(j) * static_cast<std::size_t>(rows_) +
           static_cast<std::size_t>(i);
  }

  index_t rows_;
  index_t cols_;
  std::vector<real_t> data_; // column-major
};

/// Cholesky factorization A = L L^T of an SPD matrix; throws esrp::Error if a
/// non-positive pivot is encountered (matrix not SPD to working precision).
class Cholesky {
public:
  explicit Cholesky(const DenseMatrix& a);

  index_t dim() const { return l_.rows(); }

  /// Solve A x = b.
  Vector solve(std::span<const real_t> b) const;

  /// Dense inverse A^{-1}, written row-major into `out` (n * n entries):
  /// block Jacobi's inverse blocks. All n unit right-hand sides advance
  /// together, row by row; column j goes through solve(e_j)'s operations in
  /// solve's order, less the subtractions of exact +0 entries of L^{-1},
  /// which change nothing, so out[i * n + j] is bitwise solve(e_j)[i].
  void inverse(std::span<real_t> out) const;

  /// inverse(out) as a DenseMatrix.
  DenseMatrix inverse() const;

  /// log(det(A)) from the factor (sanity metric in tests).
  real_t log_det() const;

private:
  DenseMatrix l_;
};

/// Dense Gaussian-elimination solve with partial pivoting, for general
/// (non-SPD) reference solves in tests.
Vector dense_solve(const DenseMatrix& a, std::span<const real_t> b);

} // namespace esrp
