// Shared by the distributed solvers' recovery tests: a Preconditioner that
// forwards everything to another one and counts the matrix_form() calls,
// so a test can show which recoveries ask for the matrix form M.
#pragma once

#include <atomic>

#include "precond/preconditioner.hpp"

namespace esrp {

class MatrixFormCounter final : public Preconditioner {
public:
  explicit MatrixFormCounter(const Preconditioner& inner) : inner_(&inner) {}

  int matrix_form_calls() const { return calls_.load(); }

  std::string name() const override { return inner_->name(); }
  index_t dim() const override { return inner_->dim(); }
  void apply(std::span<const real_t> r, std::span<real_t> z) const override {
    inner_->apply(r, z);
  }
  void apply_local(index_t lo, index_t hi, std::span<const real_t> r,
                   std::span<real_t> z) const override {
    inner_->apply_local(lo, hi, r, z);
  }
  double apply_local_flops(index_t lo, index_t hi) const override {
    return inner_->apply_local_flops(lo, hi);
  }
  index_t first_row_coupled_outside(index_t lo, index_t hi) const override {
    return inner_->first_row_coupled_outside(lo, hi);
  }
  const CsrMatrix* action_matrix() const override {
    return inner_->action_matrix();
  }
  const CsrMatrix* matrix_form() const override {
    ++calls_;
    return inner_->matrix_form();
  }
  double apply_flops() const override { return inner_->apply_flops(); }

private:
  const Preconditioner* inner_;
  mutable std::atomic<int> calls_{0};
};

} // namespace esrp
