// Block Jacobi preconditioner (the paper's choice, §5): non-overlapping
// diagonal blocks, every block contained within a single node's index range,
// uniformly sized with as few blocks as possible under a maximum block size
// (paper: 10). Each block of A is inverted densely (Cholesky), so the
// preconditioner action P = blockdiag(B_1^{-1}, ..., B_m^{-1}) is available
// as an explicit sparse matrix — which is what the ESR/ESRP reconstruction
// (Alg. 2) requires, and which makes P_{I_f, I\I_f} = 0 whenever whole nodes
// fail. P and M are assembled in place as CSR, block after block, without
// exact zeros; a diagonal block that is not SPD throws esrp::Error naming
// its rows.
//
// P is applied block by block from its CSR arrays. A block stored whole
// (len^2 entries: its inverse has no exact zero) is a row-major len x len
// run of values, applied from its values alone without reading a column
// index; the rows of any other block are applied as CSR rows. Every row
// sums in ascending column order either way, so apply() is bitwise
// p_.spmv and apply_local() bitwise the extracted node block's spmv.
#pragma once

#include <optional>
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

  std::string name() const override { return "block_jacobi"; }
  index_t dim() const override { return p_.rows(); }
  void apply(std::span<const real_t> r, std::span<real_t> z) const override;
  /// The block kernel on a node range; rows of a block that [lo, hi) cuts
  /// are applied as CSR rows.
  void apply_local(index_t lo, index_t hi, std::span<const real_t> r,
                   std::span<real_t> z) const override;
  const CsrMatrix* action_matrix() const override { return &p_; }
  /// The block Jacobi matrix M = blockdiag(B_1, ..., B_m) (the diagonal
  /// blocks of A themselves): the "preconditioner itself" formulation.
  const CsrMatrix* matrix_form() const override { return &m_; }
  double apply_flops() const override { return 2.0 * static_cast<double>(p_.nnz()); }

  /// Block boundaries: blocks are [starts[k], starts[k+1]).
  const std::vector<index_t>& block_starts() const { return starts_; }
  index_t num_blocks() const { return static_cast<index_t>(starts_.size()) - 1; }

private:
  void build(const CsrMatrix& a);
  /// Blocks [b_begin, b_end), all inside [lo, hi), of apply_local(lo, hi).
  void apply_blocks(index_t b_begin, index_t b_end, index_t lo, index_t hi,
                    std::span<const real_t> r, std::span<real_t> z) const;

  std::vector<index_t> starts_;
  CsrMatrix p_; ///< inverse blocks (the action, z = P r)
  CsrMatrix m_; ///< original blocks (the matrix form, M z = r)
};

/// Split [lo, hi) into the fewest uniformly sized pieces of size <=
/// max_block_size; returns the piece boundaries including both endpoints.
/// Exposed for testing.
std::vector<index_t> uniform_blocks(index_t lo, index_t hi,
                                    index_t max_block_size);

} // namespace esrp
