// Point Jacobi (diagonal) preconditioner: P = diag(A)^{-1}.
#pragma once

#include "precond/preconditioner.hpp"

namespace esrp {

class JacobiPreconditioner final : public Preconditioner {
public:
  /// Requires a square matrix with strictly positive diagonal (SPD matrices
  /// qualify).
  explicit JacobiPreconditioner(const CsrMatrix& a);

  std::string name() const override { return "jacobi"; }
  index_t dim() const override { return p_.rows(); }
  void apply(std::span<const real_t> r, std::span<real_t> z) const override;
  const CsrMatrix* action_matrix() const override { return &p_; }
  /// One multiply per row, on the whole range and on a slice alike.
  double apply_flops() const override { return static_cast<double>(p_.rows()); }
  double apply_local_flops(index_t lo, index_t hi) const override {
    return static_cast<double>(hi - lo);
  }

private:
  CsrMatrix p_; // diagonal matrix of 1/a_ii
};

} // namespace esrp
