#include "pipelined/pipelined_pcg.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/fused.hpp"

namespace esrp {

SolveOutcome pipelined_pcg_solve(const CsrMatrix& a,
                                 std::span<const real_t> b,
                                 std::span<real_t> x,
                                 const Preconditioner* precond,
                                 const PcgOptions& opts,
                                 SolverObserver* observer) {
  const index_t n = a.rows();
  ESRP_CHECK(a.rows() == a.cols());
  ESRP_CHECK(static_cast<index_t>(b.size()) == n);
  ESRP_CHECK(static_cast<index_t>(x.size()) == n);

  SolveOutcome result;
  const index_t max_iter = opts.cap_or(10 * std::max<index_t>(n, 1));
  const real_t bnorm = vec_norm2(b);
  if (bnorm == real_t{0}) {
    vec_zero(x);
    result.converged = true;
    return result;
  }

  const auto nn = static_cast<std::size_t>(n);
  Vector r(nn), u(nn), w(nn), m(nn), nv(nn);
  Vector z(nn, 0), q(nn, 0), s(nn, 0), p(nn, 0);

  auto apply_precond = [&](std::span<const real_t> in, std::span<real_t> out) {
    if (precond) {
      precond->apply(in, out);
      result.flops += precond->apply_flops();
    } else {
      vec_copy(in, out);
    }
  };

  // r = b - A x; u = P r; w = A u.
  a.spmv(x, r);
  vec_sub(b, r, r);
  apply_precond(r, u);
  a.spmv(u, w);
  result.flops += 2.0 * static_cast<double>(a.spmv_flops());

  real_t gamma_prev = 0, alpha_prev = 0;
  for (index_t j = 0; j < max_iter; ++j) {
    // The gamma/delta/||r||^2 triple from one sweep — this is the on-node
    // mirror of the formulation's single merged allreduce.
    const auto [gamma, delta, rr] = vec_dot3(r, u, w, u, r, r);
    result.flops += 6.0 * static_cast<double>(n);

    result.final_relres = std::sqrt(rr) / bnorm;
    if (observer) observer->on_iteration(j, result.final_relres);
    if (result.final_relres < opts.rtol) {
      result.converged = true;
      result.iterations = result.executed_iterations = j;
      return result;
    }

    apply_precond(w, m);
    a.spmv(m, nv);
    result.flops += static_cast<double>(a.spmv_flops());

    real_t alpha, beta;
    if (j == 0) {
      beta = 0;
      ESRP_CHECK_MSG(delta > 0, "w^T u <= 0: matrix or preconditioner not SPD");
      alpha = gamma / delta;
    } else {
      beta = gamma / gamma_prev;
      const real_t denom = delta - beta * gamma / alpha_prev;
      ESRP_CHECK_MSG(denom != 0, "pipelined PCG breakdown at iteration " << j);
      alpha = gamma / denom;
    }

    // The z/q/s/p xpby quartet and x/r/u/w axpy quartet in a single sweep
    // (was 8 separate passes); flops unchanged vs. the unfused sequence.
    fused_pipelined_update(z, nv, q, m, s, w, p, u, x, r, alpha, beta);
    result.flops += 16.0 * static_cast<double>(n);

    gamma_prev = gamma;
    alpha_prev = alpha;
  }

  result.iterations = result.executed_iterations = max_iter;
  // Recompute on the cap exit: the loop-top value predates the final
  // iteration's updates (pcg_solve does the same after its loop).
  result.final_relres = vec_norm2(r) / bnorm;
  return result;
}

} // namespace esrp
