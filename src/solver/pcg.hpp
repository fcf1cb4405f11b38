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
#include "sparse/csr.hpp"

namespace esrp {

struct PcgOptions {
  real_t rtol = 1e-8;          ///< convergence: ||r||_2 / ||b||_2 < rtol
  index_t max_iterations = 0;  ///< 0 = 10 * dim (CG converges in <= dim steps
                               ///< in exact arithmetic; the slack absorbs
                               ///< floating-point drift)
};

/// The result of every sequential solver (pcg_solve, pipelined_pcg_solve).
struct PcgResult {
  bool converged = false;
  index_t iterations = 0;
  real_t final_relres = 0;
  double flops = 0; ///< total floating-point work, for the cost model
};

/// Solve A x = b with PCG. `x` carries the initial guess in and the solution
/// out. `precond` may be nullptr (identity). `observer` (may be null) sees
/// on_iteration(j, ||r||/||b||) once per iteration, converging check included.
PcgResult pcg_solve(const CsrMatrix& a, std::span<const real_t> b,
                    std::span<real_t> x, const Preconditioner* precond,
                    const PcgOptions& opts = {},
                    SolverObserver* observer = nullptr);

} // namespace esrp
