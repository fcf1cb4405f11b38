// Compressed-sparse-row matrix: the storage format used by every solver and
// communication-plan component. Column indices within a row are kept sorted;
// this is relied upon by the plan builders and submatrix extraction.
//
// Column indices are 32-bit (col_t) and row offsets 64-bit (index_t), as in
// PETSc's default build. Every SpMV and preconditioner apply streams one
// column index per stored value, so the narrow column makes an entry 12 B
// instead of 16 B. A matrix may therefore have at most INT32_MAX columns;
// row_ptr stays wide because nnz can pass 2^31 long before that.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "common/vec.hpp"

namespace esrp {

class CsrMatrix {
public:
  CsrMatrix() : rows_(0), cols_(0), row_ptr_{0} {}

  /// Takes ownership of raw CSR arrays. `row_ptr` must have rows+1 entries,
  /// be non-decreasing, and column indices must be sorted within each row.
  /// Throws esrp::Error if `cols` exceeds the range of col_t.
  CsrMatrix(index_t rows, index_t cols, std::vector<index_t> row_ptr,
            std::vector<col_t> col_idx, std::vector<real_t> values);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t nnz() const { return static_cast<index_t>(col_idx_.size()); }

  std::span<const index_t> row_ptr() const { return row_ptr_; }
  std::span<const col_t> col_idx() const { return col_idx_; }
  std::span<const real_t> values() const { return values_; }
  std::span<real_t> values_mut() { return values_; }

  /// Column indices of row i (sorted ascending).
  std::span<const col_t> row_cols(index_t i) const;
  /// Values of row i, parallel to row_cols(i).
  std::span<const real_t> row_vals(index_t i) const;

  /// Entry lookup by binary search within the row; 0 if not stored.
  real_t at(index_t i, index_t j) const;

  /// y := A x.
  void spmv(std::span<const real_t> x, std::span<real_t> y) const;

  /// Fused y := A x and <x, y> in a single row-partitioned pass — the
  /// SpMV + p·Ap pair of a CG iteration without re-streaming x and y.
  /// Requires a square matrix. The dot is accumulated over fixed chunks of
  /// kReduceGrain rows combined in index order, so the returned value is
  /// bitwise identical to spmv(x, y) followed by vec_dot(x, y) at every
  /// thread count (see common/fused.hpp for the determinism contract).
  real_t spmv_dot(std::span<const real_t> x, std::span<real_t> y) const;

  /// y := A[row_begin:row_end, :] x — the node-local part of a distributed
  /// SpMV; `y` has row_end - row_begin entries.
  void spmv_rows(index_t row_begin, index_t row_end, std::span<const real_t> x,
                 std::span<real_t> y) const;

  /// Flop count of one full SpMV (2 * nnz), for the cost model.
  index_t spmv_flops() const { return 2 * nnz(); }

  CsrMatrix transpose() const;

  /// Extract the submatrix A[rowset, colset] as a compact
  /// |rowset| x |colset| CSR. Both index lists must be strictly increasing.
  CsrMatrix extract(std::span<const index_t> rowset,
                    std::span<const index_t> colset) const;

  /// Extract A[rowset, all columns NOT in colset_complement]: convenience
  /// for A_{I_f, I \ I_f}. `excluded` must be strictly increasing.
  CsrMatrix extract_excluding_cols(std::span<const index_t> rowset,
                                   std::span<const index_t> excluded) const;

  /// Diagonal entries (0 where not stored); requires a square matrix.
  Vector diagonal() const;

  /// Structural + numerical symmetry check: |a_ij - a_ji| <= tol * max|a|.
  bool is_symmetric(real_t tol = 1e-12) const;

  /// Number of stored entries in the strict band |i - j| <= half_bandwidth.
  index_t nnz_within_band(index_t half_bandwidth) const;

  /// Maximum |i - j| over stored entries (matrix bandwidth).
  index_t half_bandwidth() const;

  bool empty() const { return rows_ == 0 || cols_ == 0; }

private:
  index_t rows_;
  index_t cols_;
  std::vector<index_t> row_ptr_;
  std::vector<col_t> col_idx_;
  std::vector<real_t> values_;
};

/// Scaled identity as CSR (used in tests and as a trivial preconditioner
/// action matrix).
CsrMatrix csr_identity(index_t n, real_t scale = 1);

} // namespace esrp
