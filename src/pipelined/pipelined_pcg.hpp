// Pipelined preconditioned conjugate gradient (Ghysels & Vanroose, 2014) —
// the communication-hiding PCG variant that the paper's companion work
// (reference [16], Levonyak et al.) extends ESR to. One global reduction
// per iteration, overlapped with the SpMV and the preconditioner
// application.
//
// Recurrences (one iteration):
//   gamma = (r, u); delta = (w, u); rr = (r, r)     <- single allreduce
//   m = P w;  n = A m                               <- overlapped with it
//   beta = gamma / gamma_prev (0 initially)
//   alpha = gamma / (delta - beta * gamma / alpha_prev)
//   z <- n + beta z;  q <- m + beta q;  s <- w + beta s;  p <- u + beta p
//   x += alpha p;  r -= alpha s;  u -= alpha q;  w -= alpha z
//
// Mathematically equivalent to classic PCG in exact arithmetic; in floating
// point the extra recurrences add a little residual drift (one reason the
// paper's Eq. 2 metric exists).
#pragma once

#include <span>

#include "common/observer.hpp"
#include "common/types.hpp"
#include "common/vec.hpp"
#include "precond/preconditioner.hpp"
#include "solver/pcg.hpp" // PcgOptions, SolveOutcome
#include "sparse/csr.hpp"

namespace esrp {

/// Sequential reference implementation, with pcg_solve's signature and
/// contracts: `precond` may be nullptr, `observer` (may be null) sees
/// on_iteration(j, ||r||/||b||) once per iteration.
SolveOutcome pipelined_pcg_solve(const CsrMatrix& a,
                                 std::span<const real_t> b,
                                 std::span<real_t> x,
                                 const Preconditioner* precond,
                                 const PcgOptions& opts = {},
                                 SolverObserver* observer = nullptr);

} // namespace esrp
