// Ablation: communication hiding. Classic PCG has three reduction points on
// the critical path per iteration; pipelined PCG (the variant the paper's
// reference [16] makes resilient) has a single reduction overlapped with
// the SpMV and the preconditioner. Sweeps the network latency alpha and
// compares modeled per-iteration times on 128 nodes.
#include <cstdio>

#include "core/resilient_pcg.hpp"
#include "pipelined/dist_pipelined_pcg.hpp"
#include "precond/block_jacobi.hpp"
#include "sparse/generators.hpp"
#include "xp/experiment.hpp"
#include "xp/table.hpp"

int main() {
  using namespace esrp;
  // A well-conditioned operator: the pipelined recurrences amplify rounding
  // errors, and on the ill-conditioned emilia_like stand-in they need ~20x
  // more iterations than classic PCG (a known property of pipelined CG, and
  // one reason the paper's drift metric Eq. 2 matters). On Poisson both
  // variants follow essentially the same trajectory, which isolates the
  // communication-hiding effect this ablation is about.
  const TestProblem prob{"poisson3d_16", "3D Poisson 7-pt",
                         poisson3d(16, 16, 16)};
  const CsrMatrix& a = prob.matrix;
  const Vector b = xp::make_rhs(a);
  const rank_t nodes = 128;
  const BlockRowPartition part(a.rows(), nodes);
  const BlockJacobiPreconditioner precond(a, part, 10);

  std::printf("Communication-hiding ablation on %s (%d nodes)\n\n",
              prob.name.c_str(), static_cast<int>(nodes));

  xp::TablePrinter table({"latency", "classic it [ms]", "pipelined it [ms]",
                          "speedup", "classic C", "pipelined C"},
                         {10, 16, 18, 8, 10, 12});
  table.print_header();

  for (const double alpha : {2e-6, 2e-5, 2e-4, 1e-3}) {
    CostParams cost = xp::calibrated_cost(a, nodes);
    cost.alpha_s = alpha;

    SimCluster c1(part, cost);
    ResilienceOptions classic_opts;
    ResilientPcg classic(a, precond, c1, classic_opts);
    const SolveOutcome r1 = classic.solve(b);

    SimCluster c2(part, cost);
    ResilienceOptions piped_opts;
    DistPipelinedPcg piped(a, precond, c2, piped_opts);
    const SolveOutcome r2 = piped.solve(b);

    const double it1 = 1e3 * r1.modeled_time /
                       static_cast<double>(r1.executed_iterations);
    const double it2 = 1e3 * r2.modeled_time /
                       static_cast<double>(r2.executed_iterations);
    char lat[24];
    std::snprintf(lat, sizeof lat, "%.0e s", alpha);
    table.print_row({lat, xp::format_fixed(it1, 4), xp::format_fixed(it2, 4),
                     xp::format_fixed(it1 / it2, 2) + "x",
                     std::to_string(r1.iterations),
                     std::to_string(r2.iterations)});
  }
  table.print_rule();
  std::printf("\nAt low latency both variants are compute-bound and tie; as "
              "latency grows the classic solver's three reduction points "
              "dominate while the pipelined solver hides its single "
              "reduction behind the SpMV — approaching a 3x per-iteration "
              "advantage, the motivation for resilient pipelined PCG "
              "[16].\n");
  return 0;
}
