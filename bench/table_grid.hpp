// Shared harness for the paper benches. `paper_spec` is the §5 setup as a
// SolveSpec; `run_grid` runs the paper's full experiment grid for one test
// matrix once, in memory, and the print functions render that one grid as
// the paper's tables (Tables 2/3), figure panels (Figures 2/3) and drift
// table (Table 4).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "api/solve_spec.hpp"
#include "sparse/generators.hpp"
#include "xp/experiment.hpp"

namespace esrp::bench {

/// The paper's §5 run on `nodes` simulated nodes: resilient PCG with
/// node-aligned block Jacobi (block size 10), rtol 1e-8, a three-slot
/// redundancy queue, no resilience strategy and no failure — the reference
/// run. Callers set strategy, interval, phi and failures for the rest.
SolveSpec paper_spec(const CsrMatrix& a, std::span<const real_t> b,
                     rank_t nodes);

struct GridSpec {
  rank_t num_nodes = 128;
  std::vector<index_t> esrp_intervals{1, 20, 50, 100}; ///< T=1 is ESR
  std::vector<index_t> imcr_intervals{20, 50, 100};
  std::vector<int> phis{1, 3, 8};
  // Failure locations: contiguous blocks starting at these ranks
  // (paper: 0 = "Start", N/2 = "Center").
  std::vector<rank_t> locations{0, 64};
};

/// One grid cell's measurements; overheads are fractions of t0.
struct CellResult {
  Strategy strategy = Strategy::none;
  index_t interval = 0;
  int phi = 0;
  double failure_free_overhead = 0;
  // Indexed like GridSpec::locations:
  std::vector<double> failure_overhead;
  std::vector<double> reconstruction_overhead;
  std::vector<real_t> drift; ///< residual drift (paper Eq. 2)
};

struct GridResult {
  // The failure-free reference run:
  double t0 = 0;           ///< modeled time [s]
  index_t c = 0;           ///< iterations to convergence
  real_t drift = 0;        ///< residual drift (paper Eq. 2)
  std::vector<CellResult> cells;

  const CellResult& cell(Strategy s, index_t interval, int phi) const;
};

/// Run the full grid for one problem: the reference, then per strategy,
/// T and phi one failure-free run and one failure run per location.
GridResult run_grid(const TestProblem& prob, const GridSpec& spec);

/// Render in the layout of the paper's Tables 2 and 3.
void print_table(const TestProblem& prob, const GridSpec& spec,
                 const GridResult& grid);

/// Render in the layout of the paper's Figures 2 and 3: two panels
/// (failure-free / with failures), T clusters on the x axis, one series per
/// strategy with markers phi = 1, 3, 8. Failure panels aggregate locations
/// by their median, like the figure caption describes.
void print_figure(const TestProblem& prob, const GridSpec& spec,
                  const GridResult& grid);

/// Render the paper's Table 4: per problem, the reference drift and the
/// median and minimum drift over the grid's ESRP failure runs.
void print_drift_table(const std::vector<std::string>& names,
                       const std::vector<GridResult>& grids);

} // namespace esrp::bench
