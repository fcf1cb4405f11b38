// esrp::solve — the one entry point every consumer (esrp_cli, the examples,
// the benches) uses to run a solve. Dispatch goes through the
// string-keyed registries (api/registry.hpp); the drivers call the exact
// same solver code paths as the historical direct APIs (`pcg_solve`,
// `pipelined_pcg_solve`, `ResilientPcg::solve`, `DistPipelinedPcg::solve`),
// so facade-dispatched solves are bitwise identical to direct calls — the
// parity tests in tests/api/ pin this down.
#pragma once

#include <span>
#include <string>

#include "api/solve_spec.hpp"

namespace esrp {

struct PreparedParts;

/// Validate `spec`, resolve the matrix / preconditioner / solver through the
/// registries, run the solve, and report. `observer` (optional) receives
/// per-iteration, on-failure, and on-recovery hooks. Throws esrp::Error on
/// an invalid spec or unknown registry key.
SolveReport solve(const SolveSpec& spec, SolverObserver* observer = nullptr);

namespace detail {

/// The dispatch tail of esrp::solve with the problem already resolved:
/// run `spec` through its registered driver against matrix `a` and rhs `b`,
/// optionally injecting a prepared handle's parts (api/registry.hpp), and
/// fill the report's identity fields. Shared by the facade (prepared =
/// nullptr) and SolveService, which is what makes service-routed solves
/// bitwise identical to facade solves — both run this exact function.
/// Callers are responsible for validate_spec and thread setup.
SolveReport run_resolved(const SolveSpec& spec, const CsrMatrix& a,
                         const std::string& name, std::span<const real_t> b,
                         SolverObserver* observer,
                         const PreparedParts* prepared);

} // namespace detail

} // namespace esrp
