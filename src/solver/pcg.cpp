#include "solver/pcg.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/fused.hpp"

namespace esrp {

SolveOutcome pcg_solve(const CsrMatrix& a, std::span<const real_t> b,
                       std::span<real_t> x, const Preconditioner* precond,
                       const PcgOptions& opts, SolverObserver* observer) {
  const index_t n = a.rows();
  ESRP_CHECK(a.rows() == a.cols());
  ESRP_CHECK(static_cast<index_t>(b.size()) == n);
  ESRP_CHECK(static_cast<index_t>(x.size()) == n);
  if (precond) ESRP_CHECK(precond->dim() == n);

  SolveOutcome result;
  const index_t max_iter = opts.cap_or(10 * std::max<index_t>(n, 1));

  const real_t bnorm = vec_norm2(b);
  if (bnorm == real_t{0}) {
    // b = 0: the solution is x = 0 (A is SPD, hence nonsingular).
    vec_zero(x);
    result.converged = true;
    return result;
  }

  Vector r(static_cast<std::size_t>(n));
  Vector z(static_cast<std::size_t>(n));
  Vector p(static_cast<std::size_t>(n));
  Vector ap(static_cast<std::size_t>(n));

  auto apply_precond = [&](std::span<const real_t> in, std::span<real_t> out) {
    if (precond) {
      precond->apply(in, out);
      result.flops += precond->apply_flops();
    } else {
      vec_copy(in, out);
    }
  };

  // r(0) = b - A x(0); z(0) = P r(0); p(0) = z(0).
  a.spmv(x, r);
  result.flops += static_cast<double>(a.spmv_flops());
  vec_sub(b, r, r);
  apply_precond(r, z);
  vec_copy(z, p);

  // <r,z> and ||r||^2 from one sweep; flops as in the unfused pair of dots.
  auto [rz, rr] = vec_dot2(r, z, r, r);
  real_t rnorm = std::sqrt(rr);
  result.flops += 4.0 * static_cast<double>(n);

  for (index_t j = 0; j < max_iter; ++j) {
    result.final_relres = rnorm / bnorm;
    if (observer) observer->on_iteration(j, result.final_relres);
    if (result.final_relres < opts.rtol) {
      result.converged = true;
      result.iterations = result.executed_iterations = j;
      return result;
    }

    // ap = A p and p.Ap in one row-partitioned pass.
    const real_t pap = a.spmv_dot(p, ap);
    ESRP_CHECK_MSG(pap > 0, "p^T A p = " << pap
                                         << " <= 0: matrix not SPD "
                                            "(or severe breakdown)");
    const real_t alpha = rz / pap;
    fused_axpy2(x, alpha, p, r, -alpha, ap);
    apply_precond(r, z);
    const auto [rz_next, rr_next] = vec_dot2(r, z, r, r);
    const real_t beta = rz_next / rz;
    rz = rz_next;
    vec_xpby(p, z, beta);
    rnorm = std::sqrt(rr_next);
    // Same accounting as the unfused sequence: spmv + dot (2n) + two axpys
    // (4n) + two dots (4n) + xpby (2n) = spmv + 12n.
    result.flops += static_cast<double>(a.spmv_flops()) +
                    12.0 * static_cast<double>(n);
  }

  result.iterations = result.executed_iterations = max_iter;
  result.final_relres = rnorm / bnorm;
  return result;
}

} // namespace esrp
