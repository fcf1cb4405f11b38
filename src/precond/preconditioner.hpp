// Preconditioner interface.
//
// PCG applies the preconditioner as a linear operator: z = P r (paper Alg. 1,
// line 6, with P the *action*, i.e. P ~ A^{-1}). The ESR/ESRP reconstruction
// (Alg. 2) additionally needs P as an explicit matrix, because it solves
//   P_{I_f,I_f} r_{I_f} = z_{I_f} - P_{I_f,I\I_f} r_{I\I_f}.
// Preconditioners that can materialize their action as a sparse matrix
// return it from action_matrix(); the others (SSOR, IC(0)) can be used with
// the plain solver but not with ESR/ESRP reconstruction — exactly the
// formulation question the paper's reference [20] addresses.
#pragma once

#include <span>
#include <string>

#include "common/types.hpp"
#include "partition/partition.hpp"
#include "sparse/csr.hpp"

namespace esrp {

class Preconditioner {
public:
  virtual ~Preconditioner() = default;

  virtual std::string name() const = 0;

  /// Dimension of the (square) operator.
  virtual index_t dim() const = 0;

  /// z := P r (the preconditioner action).
  virtual void apply(std::span<const real_t> r, std::span<real_t> z) const = 0;

  /// z := P[lo:hi, lo:hi) r on slices: r and z hold entries [lo, hi) of the
  /// global vectors. This is one node's share of apply() when P does not
  /// couple [lo, hi) to the rest (check_node_local). A nonzero entry of P
  /// outside [lo, hi) in rows [lo, hi) throws esrp::Error. For finite r the
  /// result is bitwise action_matrix()->extract(range, range).spmv: each row
  /// sums its nonzero entries in ascending column order from +0, and an
  /// implementation may add exact zeros' ±0 products on the way, which
  /// leave such a sum unchanged (with an infinite or NaN r the product
  /// 0 * r is NaN where the CSR row skips the zero). The default walks the
  /// rows of action_matrix(), which it requires.
  virtual void apply_local(index_t lo, index_t hi, std::span<const real_t> r,
                           std::span<real_t> z) const;

  /// The cost-model flops of apply_local(lo, hi): 2 per nonzero entry of
  /// rows [lo, hi) of P. The default counts action_matrix()'s entries.
  virtual double apply_local_flops(index_t lo, index_t hi) const;

  /// The first row in [lo, hi) with a nonzero entry of P outside [lo, hi),
  /// or hi when P couples [lo, hi) to nothing outside it. The default scans
  /// the rows of action_matrix(), which it requires.
  virtual index_t first_row_coupled_outside(index_t lo, index_t hi) const;

  /// Explicit CSR of the action (z = action_matrix() * r), or nullptr when
  /// the action is only available as an algorithm. This is the "inverse
  /// formulation" of the paper's reference [20]: P ~ A^{-1} as a matrix.
  virtual const CsrMatrix* action_matrix() const { return nullptr; }

  /// Explicit CSR of the preconditioner *matrix* M with z defined by
  /// M z = r (the "preconditioner itself" formulation of [20]), or nullptr.
  /// When available, the Alg. 2 reconstruction can recover r without an
  /// inner solve: r_{I_f} = M_{I_f,I} z (see reconstruction.hpp).
  virtual const CsrMatrix* matrix_form() const { return nullptr; }

  /// Floating-point cost of one apply() (for the cost model).
  virtual double apply_flops() const = 0;
};

/// Throws esrp::Error unless the preconditioner action is block diagonal
/// with respect to `part`: every row's entries stay within the owner's
/// range. This is what makes its application communication-free (one
/// apply_local per node) and P_{I_f, I\I_f} = 0. Asks
/// first_row_coupled_outside of every node range.
void check_node_local(const Preconditioner& precond,
                      const BlockRowPartition& part);

/// Identity preconditioner: PCG degenerates to plain CG.
class IdentityPreconditioner final : public Preconditioner {
public:
  explicit IdentityPreconditioner(index_t n) : n_(n), p_(csr_identity(n)) {}

  std::string name() const override { return "identity"; }
  index_t dim() const override { return n_; }

  void apply(std::span<const real_t> r, std::span<real_t> z) const override {
    ESRP_CHECK(static_cast<index_t>(r.size()) == n_ && r.size() == z.size());
    std::copy(r.begin(), r.end(), z.begin());
  }

  const CsrMatrix* action_matrix() const override { return &p_; }
  const CsrMatrix* matrix_form() const override { return &p_; }
  /// One flop per row (the copy), on the whole range and on a slice alike.
  double apply_flops() const override { return static_cast<double>(n_); }
  double apply_local_flops(index_t lo, index_t hi) const override {
    return static_cast<double>(hi - lo);
  }

private:
  index_t n_;
  CsrMatrix p_;
};

} // namespace esrp
