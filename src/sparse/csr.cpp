#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/compiler.hpp"
#include "common/error.hpp"
#include "common/simd.hpp"
#include "parallel/parallel.hpp"
#include "sparse/coo.hpp"

namespace esrp {

CsrMatrix::CsrMatrix(index_t rows, index_t cols, std::vector<index_t> row_ptr,
                     std::vector<col_t> col_idx, std::vector<real_t> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  ESRP_CHECK(rows_ >= 0 && cols_ >= 0);
  ESRP_CHECK_MSG(cols_ <= std::numeric_limits<col_t>::max(),
                 cols_ << " columns exceed the 32-bit column index");
  ESRP_CHECK_MSG(row_ptr_.size() == static_cast<std::size_t>(rows_) + 1,
                 "row_ptr must have rows+1 entries");
  ESRP_CHECK(col_idx_.size() == values_.size());
  ESRP_CHECK(row_ptr_.front() == 0);
  ESRP_CHECK(row_ptr_.back() == static_cast<index_t>(col_idx_.size()));
  for (index_t i = 0; i < rows_; ++i) {
    const auto b = static_cast<std::size_t>(row_ptr_[i]);
    const auto e = static_cast<std::size_t>(row_ptr_[i + 1]);
    ESRP_CHECK_MSG(b <= e, "row_ptr must be non-decreasing (row " << i << ")");
    for (std::size_t k = b; k < e; ++k) {
      ESRP_CHECK_MSG(col_idx_[k] >= 0 && col_idx_[k] < cols_,
                     "column index out of range in row " << i);
      if (k + 1 < e)
        ESRP_CHECK_MSG(col_idx_[k] < col_idx_[k + 1],
                       "column indices must be strictly increasing in row " << i);
    }
  }
}

std::span<const col_t> CsrMatrix::row_cols(index_t i) const {
  ESRP_CHECK(i >= 0 && i < rows_);
  const auto b = static_cast<std::size_t>(row_ptr_[i]);
  const auto e = static_cast<std::size_t>(row_ptr_[i + 1]);
  return {col_idx_.data() + b, e - b};
}

std::span<const real_t> CsrMatrix::row_vals(index_t i) const {
  ESRP_CHECK(i >= 0 && i < rows_);
  const auto b = static_cast<std::size_t>(row_ptr_[i]);
  const auto e = static_cast<std::size_t>(row_ptr_[i + 1]);
  return {values_.data() + b, e - b};
}

real_t CsrMatrix::at(index_t i, index_t j) const {
  const auto cols = row_cols(i);
  const auto it = std::lower_bound(cols.begin(), cols.end(), j);
  if (it == cols.end() || *it != j) return 0;
  const auto k = static_cast<std::size_t>(it - cols.begin());
  return row_vals(i)[k];
}

void CsrMatrix::spmv(std::span<const real_t> x, std::span<real_t> y) const {
  ESRP_CHECK(static_cast<index_t>(x.size()) == cols_);
  ESRP_CHECK(static_cast<index_t>(y.size()) == rows_);
  // Row-range partitioning: each chunk owns a disjoint slice of y and every
  // row is computed exactly as in the serial loop, so the product is bitwise
  // identical at any thread count. The grain floor keeps short rows from
  // producing chunks cheaper than a task dispatch.
  const index_t grain = std::max<index_t>(256, adaptive_grain(rows_, 8));
  parallel_for(index_t{0}, rows_, grain, [&](index_t lo, index_t hi) {
    spmv_rows(lo, hi, x,
              y.subspan(static_cast<std::size_t>(lo),
                        static_cast<std::size_t>(hi - lo)));
  });
}

real_t CsrMatrix::spmv_dot(std::span<const real_t> x,
                           std::span<real_t> y) const {
  ESRP_CHECK_MSG(rows_ == cols_, "spmv_dot requires a square matrix");
  ESRP_CHECK(static_cast<index_t>(x.size()) == cols_);
  ESRP_CHECK(static_cast<index_t>(y.size()) == rows_);
  // The row chunking must equal vec_dot's kReduceGrain index chunking (not
  // spmv's adaptive grain), and the per-chunk dot must be the lane-ordered
  // simd_dot_chunk: the dot partials are then the same sums in the same
  // order as the separate vec_dot, and y itself is per-row exact under any
  // partitioning, giving bitwise parity with the unfused pair.
  return parallel_reduce(index_t{0}, rows_, kReduceGrain, real_t{0},
                         [&](index_t lo, index_t hi) {
                           spmv_rows(lo, hi, x,
                                     y.subspan(static_cast<std::size_t>(lo),
                                               static_cast<std::size_t>(hi - lo)));
                           return simd_dot_chunk(x.data(), y.data(), lo, hi);
                         });
}

// Pinned to a cache line: its inner loop is the product of every SpMV, the
// sequential one and each node's rows of the distributed one. When an
// unrelated edit to the library shifted the distributed product's kernel by
// 16 bytes (…0c0 to …0d0), the loop straddled a 64-byte line and the
// reference solve of the emilia 20^3 ESR workload (bench/e2e) ran 8-15%
// slower on a 4-core Xeon VM, with none of its own code changed.
ESRP_CODE_ALIGN_64
void CsrMatrix::spmv_rows(index_t row_begin, index_t row_end,
                          std::span<const real_t> x,
                          std::span<real_t> y) const {
  ESRP_CHECK(0 <= row_begin && row_begin <= row_end && row_end <= rows_);
  ESRP_CHECK(static_cast<index_t>(x.size()) == cols_);
  ESRP_CHECK(static_cast<index_t>(y.size()) == row_end - row_begin);
  for (index_t i = row_begin; i < row_end; ++i) {
    const auto b = static_cast<std::size_t>(row_ptr_[i]);
    const auto e = static_cast<std::size_t>(row_ptr_[i + 1]);
    real_t acc = 0;
    for (std::size_t k = b; k < e; ++k) acc += values_[k] * x[col_idx_[k]];
    y[i - row_begin] = acc;
  }
}

CsrMatrix CsrMatrix::transpose() const {
  std::vector<index_t> t_row_ptr(static_cast<std::size_t>(cols_) + 1, 0);
  for (col_t c : col_idx_) ++t_row_ptr[static_cast<std::size_t>(c) + 1];
  for (std::size_t c = 0; c < static_cast<std::size_t>(cols_); ++c)
    t_row_ptr[c + 1] += t_row_ptr[c];

  std::vector<col_t> t_col_idx(col_idx_.size());
  std::vector<real_t> t_values(values_.size());
  std::vector<index_t> cursor(t_row_ptr.begin(), t_row_ptr.end() - 1);
  for (index_t i = 0; i < rows_; ++i) {
    const auto b = static_cast<std::size_t>(row_ptr_[i]);
    const auto e = static_cast<std::size_t>(row_ptr_[i + 1]);
    for (std::size_t k = b; k < e; ++k) {
      const auto pos = static_cast<std::size_t>(cursor[col_idx_[k]]++);
      t_col_idx[pos] = static_cast<col_t>(i); // i < rows_, the new cols
      t_values[pos] = values_[k];
    }
  }
  // Rows of the transpose are filled in increasing original-row order, so
  // column indices are already sorted.
  return CsrMatrix(cols_, rows_, std::move(t_row_ptr), std::move(t_col_idx),
                   std::move(t_values));
}

namespace {
/// Global-to-local map for an increasing index list: -1 where absent.
std::vector<index_t> build_map(index_t domain,
                               std::span<const index_t> selected) {
  std::vector<index_t> map(static_cast<std::size_t>(domain), -1);
  index_t prev = -1;
  for (std::size_t k = 0; k < selected.size(); ++k) {
    const index_t g = selected[k];
    ESRP_CHECK_MSG(g > prev, "index set must be strictly increasing");
    ESRP_CHECK(g >= 0 && g < domain);
    map[static_cast<std::size_t>(g)] = static_cast<index_t>(k);
    prev = g;
  }
  return map;
}
} // namespace

namespace {
void check_increasing_rows(std::span<const index_t> rowset, index_t rows) {
  index_t prev = -1;
  for (index_t g : rowset) {
    ESRP_CHECK_MSG(g > prev, "row index set must be strictly increasing");
    ESRP_CHECK(g >= 0 && g < rows);
    prev = g;
  }
}
} // namespace

CsrMatrix CsrMatrix::extract(std::span<const index_t> rowset,
                             std::span<const index_t> colset) const {
  check_increasing_rows(rowset, rows_);
  const std::vector<index_t> col_map = build_map(cols_, colset);
  std::vector<index_t> row_ptr(rowset.size() + 1, 0);
  std::vector<col_t> col_idx;
  std::vector<real_t> values;
  std::size_t nnz_bound = 0;
  for (index_t gi : rowset) nnz_bound += row_cols(gi).size();
  col_idx.reserve(nnz_bound);
  values.reserve(nnz_bound);
  for (std::size_t r = 0; r < rowset.size(); ++r) {
    const index_t gi = rowset[r];
    ESRP_CHECK(gi >= 0 && gi < rows_);
    const auto cols = row_cols(gi);
    const auto vals = row_vals(gi);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const index_t lj = col_map[static_cast<std::size_t>(cols[k])];
      if (lj >= 0) {
        col_idx.push_back(static_cast<col_t>(lj)); // lj < colset.size()
        values.push_back(vals[k]);
      }
    }
    row_ptr[r + 1] = static_cast<index_t>(col_idx.size());
  }
  return CsrMatrix(static_cast<index_t>(rowset.size()),
                   static_cast<index_t>(colset.size()), std::move(row_ptr),
                   std::move(col_idx), std::move(values));
}

CsrMatrix CsrMatrix::extract_excluding_cols(
    std::span<const index_t> rowset, std::span<const index_t> excluded) const {
  check_increasing_rows(rowset, rows_);
  // Local index of a kept column = global index minus the number of excluded
  // columns before it.
  const std::vector<index_t> excl_map = build_map(cols_, excluded);
  std::vector<index_t> shift(static_cast<std::size_t>(cols_), 0);
  index_t removed = 0;
  for (index_t j = 0; j < cols_; ++j) {
    if (excl_map[static_cast<std::size_t>(j)] >= 0) ++removed;
    shift[static_cast<std::size_t>(j)] = removed;
  }

  std::vector<index_t> row_ptr(rowset.size() + 1, 0);
  std::vector<col_t> col_idx;
  std::vector<real_t> values;
  std::size_t nnz_bound = 0;
  for (index_t gi : rowset) nnz_bound += row_cols(gi).size();
  col_idx.reserve(nnz_bound);
  values.reserve(nnz_bound);
  for (std::size_t r = 0; r < rowset.size(); ++r) {
    const index_t gi = rowset[r];
    ESRP_CHECK(gi >= 0 && gi < rows_);
    const auto cols = row_cols(gi);
    const auto vals = row_vals(gi);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const index_t gj = cols[k];
      if (excl_map[static_cast<std::size_t>(gj)] >= 0) continue;
      // gj - shift[gj] is gj's rank among the kept columns, so < the new cols.
      col_idx.push_back(
          static_cast<col_t>(gj - shift[static_cast<std::size_t>(gj)]));
      values.push_back(vals[k]);
    }
    row_ptr[r + 1] = static_cast<index_t>(col_idx.size());
  }
  return CsrMatrix(static_cast<index_t>(rowset.size()),
                   cols_ - static_cast<index_t>(excluded.size()),
                   std::move(row_ptr), std::move(col_idx), std::move(values));
}

Vector CsrMatrix::diagonal() const {
  ESRP_CHECK_MSG(rows_ == cols_, "diagonal() requires a square matrix");
  Vector d(static_cast<std::size_t>(rows_), 0);
  for (index_t i = 0; i < rows_; ++i) d[static_cast<std::size_t>(i)] = at(i, i);
  return d;
}

bool CsrMatrix::is_symmetric(real_t tol) const {
  if (rows_ != cols_) return false;
  real_t amax = 0;
  for (real_t v : values_) amax = std::max(amax, std::abs(v));
  const real_t bound = tol * std::max(amax, real_t{1});
  for (index_t i = 0; i < rows_; ++i) {
    const auto cols = row_cols(i);
    const auto vals = row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (std::abs(vals[k] - at(cols[k], i)) > bound) return false;
    }
  }
  return true;
}

index_t CsrMatrix::nnz_within_band(index_t half_bandwidth_limit) const {
  index_t count = 0;
  for (index_t i = 0; i < rows_; ++i) {
    for (index_t j : row_cols(i)) {
      if (std::abs(i - j) <= half_bandwidth_limit) ++count;
    }
  }
  return count;
}

index_t CsrMatrix::half_bandwidth() const {
  index_t w = 0;
  for (index_t i = 0; i < rows_; ++i) {
    const auto cols = row_cols(i);
    if (!cols.empty()) {
      w = std::max(w, std::abs(i - cols.front()));
      w = std::max(w, std::abs(cols.back() - i));
    }
  }
  return w;
}

CsrMatrix csr_identity(index_t n, real_t scale) {
  std::vector<index_t> row_ptr(static_cast<std::size_t>(n) + 1);
  std::vector<col_t> col_idx(static_cast<std::size_t>(n));
  std::vector<real_t> values(static_cast<std::size_t>(n), scale);
  for (index_t i = 0; i <= n; ++i) row_ptr[static_cast<std::size_t>(i)] = i;
  for (index_t i = 0; i < n; ++i)
    col_idx[static_cast<std::size_t>(i)] = static_cast<col_t>(i);
  return CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

} // namespace esrp
