// Reproduces the paper's §5 results from one experiment grid per matrix:
// Table 2 and Figure 2 for the Emilia_923 stand-in, Table 3 and Figure 3
// for the audikw_1 stand-in (denser elasticity-like operator, 3 dof per
// grid point), and Table 4 (residual drift, Eq. 2) for both.
//
// Each grid is 64 solves on 128 simulated nodes: the non-resilient
// reference, then ESRP (T in {1, 20, 50, 100}; T = 1 is ESR) and IMCR
// (T in {20, 50, 100}) x phi in {1, 3, 8}, each failure-free and with
// psi = phi node failures at the Start and Center locations. The tables
// report failure-free overhead, overhead with failures, and reconstruction
// overhead; the figures show the median runtime-overhead series per
// strategy, clustered by T.
#include "table_grid.hpp"

int main() {
  using namespace esrp;
  const bench::GridSpec spec;
  std::vector<std::string> names;
  std::vector<bench::GridResult> grids;
  for (const TestProblem& prob :
       {emilia_like_default(), audikw_like_default()}) {
    const bench::GridResult grid = bench::run_grid(prob, spec);
    bench::print_table(prob, spec, grid);
    bench::print_figure(prob, spec, grid);
    names.push_back(prob.name);
    grids.push_back(grid);
  }
  bench::print_drift_table(names, grids);
  return 0;
}
