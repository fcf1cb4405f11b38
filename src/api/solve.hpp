// esrp::solve — the one entry point every consumer (esrp_cli, the examples,
// the benches) uses to run a solve. Dispatch goes through the
// string-keyed registries (api/registry.hpp); the drivers call the exact
// same solver code paths as the historical direct APIs (`pcg_solve`,
// `pipelined_pcg_solve`, `ResilientPcg::solve`, `DistPipelinedPcg::solve`),
// so facade-dispatched solves are bitwise identical to direct calls — the
// parity tests in tests/api/ pin this down.
#pragma once

#include "api/solve_spec.hpp"

namespace esrp {

/// Validate `spec`, prepare a one-shot ProblemHandle (matrix, partition,
/// plans, factorized preconditioner; a caller's matrix_data is borrowed, not
/// copied), run the solve through the same path as SolveService::solve, and
/// report. `observer` (optional) receives per-iteration, on-failure, and
/// on-recovery hooks. Throws esrp::Error on an invalid spec or unknown
/// registry key.
SolveReport solve(const SolveSpec& spec, SolverObserver* observer = nullptr);

} // namespace esrp
