// Block Jacobi preconditioner (the paper's choice, §5): non-overlapping
// diagonal blocks, every block contained within a single node's index range,
// uniformly sized with as few blocks as possible under a maximum block size
// (paper: 10). Each block of A is inverted densely (Cholesky), and the
// action P = blockdiag(B_1^{-1}, ..., B_m^{-1}) is stored as exactly that:
// one contiguous array of row-major len x len inverse blocks, exact zeros
// included, each written straight from the factorization into its slot.
// A diagonal block that is not SPD throws esrp::Error naming its rows.
//
// apply() and apply_local() multiply every block the range does not cut
// with one dense kernel (specialized by length up to the paper's 10), and
// the rows of a block apply_local's range cuts with the part of each dense
// row inside the range. Every row sums from +0 in ascending column order.
// Such a sum is never -0, so the ±0 products of the stored zeros leave it
// unchanged: for finite r, z is bitwise the spmv of the CSR P without
// exact zeros. (An infinite or NaN r entry makes 0 * r NaN where the CSR
// row skips the zero.)
//
// The ESR/ESRP reconstruction (Alg. 2) needs P as an explicit sparse matrix
// (P_{I_f,I_f}, P_{I_f,I\I_f}; P_{I_f,I\I_f} = 0 whenever whole nodes fail).
// action_matrix() assembles that CSR, without exact zeros, on its first
// call and keeps it: only a recovery, a test or a probe pays for it. The
// flops and the node-locality check the distributed solvers ask for come
// from the blocks. Likewise matrix_form(), the CSR of M = blockdiag(A) that
// only the matrix formulation of [20] reads, is assembled from A on its
// first call. The preconditioner therefore keeps a pointer to A: A must
// outlive every matrix_form() call (constructing from a temporary matrix
// does not compile).
#pragma once

#include <mutex>
#include <vector>

#include "partition/partition.hpp"
#include "precond/preconditioner.hpp"

namespace esrp {

class BlockJacobiPreconditioner final : public Preconditioner {
public:
  /// Node-aligned blocks: within each node's range, uses as few uniformly
  /// sized blocks as possible with size <= max_block_size.
  BlockJacobiPreconditioner(const CsrMatrix& a, const BlockRowPartition& part,
                            index_t max_block_size = 10);

  /// Single-domain variant (no partition): blocks tile [0, n).
  BlockJacobiPreconditioner(const CsrMatrix& a, index_t max_block_size = 10);

  /// matrix_form() reads A after construction, so A cannot be a temporary.
  BlockJacobiPreconditioner(const CsrMatrix&&, const BlockRowPartition&,
                            index_t = 10) = delete;
  BlockJacobiPreconditioner(const CsrMatrix&&, index_t = 10) = delete;

  std::string name() const override { return "block_jacobi"; }
  index_t dim() const override { return starts_.back(); }
  void apply(std::span<const real_t> r, std::span<real_t> z) const override;
  void apply_local(index_t lo, index_t hi, std::span<const real_t> r,
                   std::span<real_t> z) const override;
  double apply_local_flops(index_t lo, index_t hi) const override;
  index_t first_row_coupled_outside(index_t lo, index_t hi) const override;
  /// P as CSR without exact zeros, assembled from the blocks on the first
  /// call (thread-safe) and kept for the preconditioner's lifetime.
  const CsrMatrix* action_matrix() const override;
  /// The block Jacobi matrix M = blockdiag(B_1, ..., B_m) (the diagonal
  /// blocks of A themselves, without exact zeros): the "preconditioner
  /// itself" formulation. Assembled from A on the first call (thread-safe)
  /// and kept for the preconditioner's lifetime.
  const CsrMatrix* matrix_form() const override;
  double apply_flops() const override {
    return 2.0 * static_cast<double>(nnz_);
  }

  /// Block boundaries: blocks are [starts[k], starts[k+1]).
  const std::vector<index_t>& block_starts() const { return starts_; }
  index_t num_blocks() const { return static_cast<index_t>(starts_.size()) - 1; }

private:
  void build(const CsrMatrix& a);
  /// Blocks [b_begin, b_end), all inside the range starting at row `lo`.
  void apply_blocks(index_t b_begin, index_t b_end, index_t lo,
                    std::span<const real_t> r, std::span<real_t> z) const;
  /// f(i, row, blo, bhi) for rows i of [lo, hi) in order: `row` is row i's
  /// dense values, columns [blo, bhi) of its block.
  template <class F>
  void for_each_row(index_t lo, index_t hi, F&& f) const;

  std::vector<index_t> starts_;
  std::vector<std::size_t> offsets_; ///< block b starts at inv_[offsets_[b]]
  std::vector<real_t> inv_;          ///< the inverse blocks, row-major
  index_t nnz_ = 0;                  ///< nonzero entries of P
  const CsrMatrix* a_;               ///< the matrix, read by matrix_form()
  mutable std::once_flag p_once_;
  mutable CsrMatrix p_; ///< action_matrix(), once assembled
  mutable std::once_flag m_once_;
  mutable CsrMatrix m_; ///< matrix_form(), once assembled
};

/// Split [lo, hi) into the fewest uniformly sized pieces of size <=
/// max_block_size; returns the piece boundaries including both endpoints.
/// Exposed for testing.
std::vector<index_t> uniform_blocks(index_t lo, index_t hi,
                                    index_t max_block_size);

} // namespace esrp
