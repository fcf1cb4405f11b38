#include "precond/ic0.hpp"

#include <cmath>

#include "common/error.hpp"

namespace esrp {

Ic0Preconditioner::Ic0Preconditioner(const CsrMatrix& a, real_t shift) {
  ESRP_CHECK(a.rows() == a.cols());
  const index_t n = a.rows();

  // Working copy of tril(A) in row-major arrays we can update in place.
  std::vector<index_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<col_t> col_idx;
  std::vector<real_t> values;
  // A is symmetric (checked numerically below via the factorization), so
  // the lower triangle incl. diagonal holds (nnz + n) / 2 entries.
  col_idx.reserve(static_cast<std::size_t>(a.nnz() + n) / 2);
  values.reserve(static_cast<std::size_t>(a.nnz() + n) / 2);
  for (index_t i = 0; i < n; ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t k = 0; k < cols.size() && cols[k] <= i; ++k) {
      col_idx.push_back(cols[k]);
      real_t v = vals[k];
      if (cols[k] == i) v *= (1 + shift);
      values.push_back(v);
    }
    row_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<index_t>(col_idx.size());
  }

  // Standard up-looking IC(0): for each row i, eliminate with previous rows
  // restricted to the existing pattern.
  auto row_begin = [&](index_t i) { return static_cast<std::size_t>(row_ptr[i]); };
  auto row_end = [&](index_t i) { return static_cast<std::size_t>(row_ptr[i + 1]); };

  for (index_t i = 0; i < n; ++i) {
    for (std::size_t ki = row_begin(i); ki < row_end(i); ++ki) {
      const index_t j = col_idx[ki];
      real_t sum = values[ki];
      // Dot of rows i and j over columns < j (merged walk on sorted cols).
      std::size_t pi = row_begin(i), pj = row_begin(j);
      while (pi < row_end(i) && pj < row_end(j) && col_idx[pi] < j &&
             col_idx[pj] < j) {
        if (col_idx[pi] == col_idx[pj]) {
          sum -= values[pi] * values[pj];
          ++pi;
          ++pj;
        } else if (col_idx[pi] < col_idx[pj]) {
          ++pi;
        } else {
          ++pj;
        }
      }
      if (j == i) {
        ESRP_CHECK_MSG(sum > 0, "IC(0) breakdown: non-positive pivot at row "
                                    << i << " (try a diagonal shift)");
        values[ki] = std::sqrt(sum);
      } else {
        // L(j,j) is the last entry of row j (pattern includes the diagonal).
        const real_t ljj = values[row_end(j) - 1];
        values[ki] = sum / ljj;
      }
    }
  }

  l_ = CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                 std::move(values));
}

void Ic0Preconditioner::apply(std::span<const real_t> r,
                              std::span<real_t> z) const {
  const index_t n = l_.rows();
  ESRP_CHECK(static_cast<index_t>(r.size()) == n && r.size() == z.size());

  // Forward solve L y = r (y stored in z).
  for (index_t i = 0; i < n; ++i) {
    const auto cols = l_.row_cols(i);
    const auto vals = l_.row_vals(i);
    real_t acc = r[static_cast<std::size_t>(i)];
    std::size_t k = 0;
    for (; k + 1 < cols.size(); ++k)
      acc -= vals[k] * z[static_cast<std::size_t>(cols[k])];
    z[static_cast<std::size_t>(i)] = acc / vals[k]; // diagonal is last
  }
  // Backward solve L^T z = y, column-oriented over L's rows.
  for (index_t i = n - 1; i >= 0; --i) {
    const auto cols = l_.row_cols(i);
    const auto vals = l_.row_vals(i);
    const real_t zi = z[static_cast<std::size_t>(i)] / vals[cols.size() - 1];
    z[static_cast<std::size_t>(i)] = zi;
    for (std::size_t k = 0; k + 1 < cols.size(); ++k)
      z[static_cast<std::size_t>(cols[k])] -= vals[k] * zi;
  }
}

} // namespace esrp
