// Sequential preconditioned conjugate gradient (paper Alg. 1). Serves three
// roles: (a) reference solver for tests, (b) inner solver of the ESR/ESRP
// reconstruction (Alg. 2, lines 6 and 8, run to rtol 1e-14), and (c) the
// solver behind the examples that do not involve the simulated cluster.
#pragma once

#include <span>

#include "common/observer.hpp"
#include "common/types.hpp"
#include "common/vec.hpp"
#include "precond/preconditioner.hpp"
#include "solver/outcome.hpp"
#include "sparse/csr.hpp"

namespace esrp {

/// The distributed solvers' cap on executed iteration bodies (redone ones
/// included) when PcgOptions::max_iterations is 0.
inline constexpr index_t kDistributedIterationCap = 200000;

/// The convergence options every solver reads; the base of the resilient
/// solvers' and the facade's option sets (resilience/options.hpp).
struct PcgOptions {
  real_t rtol = 1e-8; ///< convergence: ||r||_2 / ||b||_2 < rtol
  /// 0 = the solver's own cap: 10 * dim iterations for the sequential
  /// solvers (CG converges in <= dim steps in exact arithmetic; the slack
  /// absorbs floating-point drift), kDistributedIterationCap executed
  /// bodies for the distributed ones.
  index_t max_iterations = 0;

  /// max_iterations, or the solver's own cap when it is 0.
  index_t cap_or(index_t own_cap) const {
    return max_iterations > 0 ? max_iterations : own_cap;
  }
};

/// Solve A x = b with PCG. `x` carries the initial guess in and the solution
/// out. `precond` may be nullptr (identity). `observer` (may be null) sees
/// on_iteration(j, ||r||/||b||) once per iteration, converging check included.
/// The outcome's `x` stays empty: the solution is written into `x`.
SolveOutcome pcg_solve(const CsrMatrix& a, std::span<const real_t> b,
                       std::span<real_t> x, const Preconditioner* precond,
                       const PcgOptions& opts = {},
                       SolverObserver* observer = nullptr);

} // namespace esrp
