// Convergence-trace demo: solve with ESRP, kill three nodes mid-solve, and
// render the residual history as an ASCII chart. The recovery shows up as
// the upward jump where the solver rolls back to the last storage stage and
// replays the lost iterations on the original trajectory.
//
// The trace is the solve's SolverObserver: on_iteration() receives
// (trajectory iteration, relres) at the top of every executed body, so the
// rollback appears as a decrease in the recorded iteration number.
//
//   $ ./convergence_trace [csv_path]   (optionally also writes a CSV)
#include <cstdio>
#include <fstream>

#include "api/solve.hpp"
#include "xp/trace.hpp"

int main(int argc, char** argv) {
  using namespace esrp;

  SolveSpec spec;
  spec.matrix = "poisson2d:24,24";
  spec.nodes = 16;
  spec.calibrated_cost = false;
  spec.strategy = Strategy::esrp;
  spec.interval = 15;
  spec.phi = 3;
  spec.failures.push_back(FailureEvent{40, contiguous_ranks(6, 3, 16)});

  xp::ConvergenceTrace trace;
  const SolveReport res = solve(spec, &trace);

  std::printf("ESRP solve of a %lld-unknown Poisson system; 3 nodes killed "
              "at iteration 40:\n\n", static_cast<long long>(res.rows));
  std::printf("%s\n", trace.ascii_chart(72, 16).c_str());
  for (const index_t rb : trace.rollback_steps())
    std::printf("rollback at execution step %lld (recovery rolled the "
                "solver back to iteration %lld)\n",
                static_cast<long long>(rb),
                static_cast<long long>(res.recoveries[0].restored_to));
  std::printf("converged after %lld trajectory iterations, %lld executed.\n",
              static_cast<long long>(res.iterations),
              static_cast<long long>(res.executed_iterations));

  if (argc > 1) {
    std::ofstream csv(argv[1]);
    trace.write_csv(csv);
    std::printf("trace written to %s\n", argv[1]);
  }
  return res.converged ? 0 : 1;
}
