#include "sparse/dense.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "sparse/csr.hpp"

namespace esrp {

DenseMatrix::DenseMatrix(index_t rows, index_t cols)
    : rows_(rows), cols_(cols),
      data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols), 0) {
  ESRP_CHECK(rows >= 0 && cols >= 0);
}

DenseMatrix DenseMatrix::identity(index_t n) {
  DenseMatrix m(n, n);
  for (index_t i = 0; i < n; ++i) m(i, i) = 1;
  return m;
}

DenseMatrix DenseMatrix::from_csr(const CsrMatrix& a) {
  DenseMatrix m(a.rows(), a.cols());
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) m(i, cols[k]) = vals[k];
  }
  return m;
}

void DenseMatrix::matvec(std::span<const real_t> x, std::span<real_t> y) const {
  ESRP_CHECK(static_cast<index_t>(x.size()) == cols_);
  ESRP_CHECK(static_cast<index_t>(y.size()) == rows_);
  std::fill(y.begin(), y.end(), real_t{0});
  for (index_t j = 0; j < cols_; ++j) {
    const real_t xj = x[static_cast<std::size_t>(j)];
    if (xj == real_t{0}) continue;
    const real_t* col = data_.data() +
                        static_cast<std::size_t>(j) * static_cast<std::size_t>(rows_);
    for (index_t i = 0; i < rows_; ++i) y[static_cast<std::size_t>(i)] += col[i] * xj;
  }
}

DenseMatrix DenseMatrix::transpose() const {
  DenseMatrix t(cols_, rows_);
  for (index_t j = 0; j < cols_; ++j)
    for (index_t i = 0; i < rows_; ++i) t(j, i) = (*this)(i, j);
  return t;
}

DenseMatrix DenseMatrix::multiply(const DenseMatrix& b) const {
  ESRP_CHECK(cols_ == b.rows());
  DenseMatrix c(rows_, b.cols());
  for (index_t j = 0; j < b.cols(); ++j)
    for (index_t k = 0; k < cols_; ++k) {
      const real_t bkj = b(k, j);
      if (bkj == real_t{0}) continue;
      for (index_t i = 0; i < rows_; ++i) c(i, j) += (*this)(i, k) * bkj;
    }
  return c;
}

real_t DenseMatrix::max_abs_diff(const DenseMatrix& other) const {
  ESRP_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  real_t m = 0;
  for (std::size_t k = 0; k < data_.size(); ++k)
    m = std::max(m, std::abs(data_[k] - other.data_[k]));
  return m;
}

bool DenseMatrix::is_symmetric(real_t tol) const {
  if (rows_ != cols_) return false;
  real_t amax = 0;
  for (real_t v : data_) amax = std::max(amax, std::abs(v));
  const real_t bound = tol * std::max(amax, real_t{1});
  for (index_t i = 0; i < rows_; ++i)
    for (index_t j = i + 1; j < cols_; ++j)
      if (std::abs((*this)(i, j) - (*this)(j, i)) > bound) return false;
  return true;
}

Cholesky::Cholesky(const DenseMatrix& a) : l_(a.rows(), a.cols()) {
  ESRP_CHECK_MSG(a.rows() == a.cols(), "Cholesky requires a square matrix");
  const index_t n = a.rows();
  for (index_t j = 0; j < n; ++j) {
    real_t diag = a(j, j);
    for (index_t k = 0; k < j; ++k) diag -= l_(j, k) * l_(j, k);
    ESRP_CHECK_MSG(diag > 0, "matrix not SPD: pivot " << j << " = " << diag);
    const real_t ljj = std::sqrt(diag);
    l_(j, j) = ljj;
    for (index_t i = j + 1; i < n; ++i) {
      real_t acc = a(i, j);
      for (index_t k = 0; k < j; ++k) acc -= l_(i, k) * l_(j, k);
      l_(i, j) = acc / ljj;
    }
  }
}

Vector Cholesky::solve(std::span<const real_t> b) const {
  const index_t n = dim();
  ESRP_CHECK(static_cast<index_t>(b.size()) == n);
  Vector y(b.begin(), b.end());
  // Forward substitution L y = b.
  for (index_t i = 0; i < n; ++i) {
    real_t acc = y[static_cast<std::size_t>(i)];
    for (index_t k = 0; k < i; ++k) acc -= l_(i, k) * y[static_cast<std::size_t>(k)];
    y[static_cast<std::size_t>(i)] = acc / l_(i, i);
  }
  // Backward substitution L^T x = y.
  for (index_t i = n - 1; i >= 0; --i) {
    real_t acc = y[static_cast<std::size_t>(i)];
    for (index_t k = i + 1; k < n; ++k) acc -= l_(k, i) * y[static_cast<std::size_t>(k)];
    y[static_cast<std::size_t>(i)] = acc / l_(i, i);
  }
  return y;
}

void Cholesky::inverse(std::span<real_t> out) const {
  const index_t n = dim();
  const auto un = static_cast<std::size_t>(n);
  ESRP_CHECK(out.size() == un * un);
  // Row-major n x n: row i holds y[i] (then x[i]) of every right-hand side,
  // so each update below streams over the columns at once.
  std::fill(out.begin(), out.end(), real_t{0});
  for (std::size_t j = 0; j < un; ++j) out[j * un + j] = 1;
  const auto row = [&](index_t i) {
    return out.data() + static_cast<std::size_t>(i) * un;
  };
  // Forward substitution L Y = I, row by row as in solve(). Y = L^{-1} is
  // lower triangular: row k is +0 beyond column k, so only columns j <= k
  // of row i change when row k is subtracted, and only j <= i when row i is
  // divided. Barring underflow no entry is ever -0, so the skipped
  // subtractions of +0 products and divisions of +0 would change nothing.
  for (index_t i = 0; i < n; ++i) {
    real_t* yi = row(i);
    for (index_t k = 0; k < i; ++k) {
      const real_t lik = l_(i, k);
      const real_t* yk = row(k);
      for (index_t j = 0; j <= k; ++j) yi[j] -= lik * yk[j];
    }
    const real_t lii = l_(i, i);
    for (index_t j = 0; j <= i; ++j) yi[j] /= lii;
  }
  // Backward substitution L^T X = Y.
  for (index_t i = n - 1; i >= 0; --i) {
    real_t* yi = row(i);
    for (index_t k = i + 1; k < n; ++k) {
      const real_t lki = l_(k, i);
      const real_t* yk = row(k);
      for (std::size_t j = 0; j < un; ++j) yi[j] -= lki * yk[j];
    }
    const real_t lii = l_(i, i);
    for (std::size_t j = 0; j < un; ++j) yi[j] /= lii;
  }
}

DenseMatrix Cholesky::inverse() const {
  const index_t n = dim();
  std::vector<real_t> y(static_cast<std::size_t>(n) *
                        static_cast<std::size_t>(n));
  inverse(y);
  DenseMatrix inv(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j)
      inv(i, j) = y[static_cast<std::size_t>(i * n + j)];
  return inv;
}

real_t Cholesky::log_det() const {
  real_t acc = 0;
  for (index_t i = 0; i < dim(); ++i) acc += std::log(l_(i, i));
  return 2 * acc;
}

Vector dense_solve(const DenseMatrix& a, std::span<const real_t> b) {
  ESRP_CHECK(a.rows() == a.cols());
  const index_t n = a.rows();
  ESRP_CHECK(static_cast<index_t>(b.size()) == n);
  DenseMatrix m = a;                 // working copy, eliminated in place
  Vector x(b.begin(), b.end());
  std::vector<index_t> perm(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;

  for (index_t col = 0; col < n; ++col) {
    index_t piv = col;
    for (index_t i = col + 1; i < n; ++i)
      if (std::abs(m(i, col)) > std::abs(m(piv, col))) piv = i;
    ESRP_CHECK_MSG(m(piv, col) != 0, "singular matrix in dense_solve");
    if (piv != col) {
      for (index_t j = 0; j < n; ++j) std::swap(m(col, j), m(piv, j));
      std::swap(x[static_cast<std::size_t>(col)], x[static_cast<std::size_t>(piv)]);
    }
    for (index_t i = col + 1; i < n; ++i) {
      const real_t f = m(i, col) / m(col, col);
      if (f == real_t{0}) continue;
      for (index_t j = col; j < n; ++j) m(i, j) -= f * m(col, j);
      x[static_cast<std::size_t>(i)] -= f * x[static_cast<std::size_t>(col)];
    }
  }
  for (index_t i = n - 1; i >= 0; --i) {
    real_t acc = x[static_cast<std::size_t>(i)];
    for (index_t j = i + 1; j < n; ++j) acc -= m(i, j) * x[static_cast<std::size_t>(j)];
    x[static_cast<std::size_t>(i)] = acc / m(i, i);
  }
  return x;
}

} // namespace esrp
