// Ablation: recovery with vs. without spare nodes (paper §4 / reference
// [22]). With spares, the failed ranks are replaced and the post-recovery
// iteration speed is unchanged. Without spares, surviving neighbors absorb
// the lost ranges: no replacement hardware is needed, but the adopters
// carry up to (1 + psi) times the load for the rest of the solve — the BSP
// iteration time is set by the slowest node.
#include <cstdio>

#include "api/solve.hpp"
#include "core/resilient_pcg.hpp"
#include "precond/block_jacobi.hpp"
#include "table_grid.hpp"
#include "xp/table.hpp"

int main() {
  using namespace esrp;
  const TestProblem prob = emilia_like(16, 16, 16);
  const CsrMatrix& a = prob.matrix;
  const Vector b = xp::make_rhs(a);
  const rank_t nodes = 32;
  const BlockRowPartition part(a.rows(), nodes);
  const SolveReport ref = solve(bench::paper_spec(a, b, nodes));

  std::printf("Spare-node ablation on %s (%d nodes, ESRP T = 20, "
              "failure at C/2)\n\n",
              prob.name.c_str(), static_cast<int>(nodes));

  xp::TablePrinter table({"psi=phi", "spares", "overall overhead",
                          "recovery [s]", "active nodes after"},
                         {8, 8, 18, 14, 20});
  table.print_header();

  for (const int phi : {1, 3, 8}) {
    for (const bool spares : {true, false}) {
      SimCluster cluster(part, xp::calibrated_cost(a, nodes));
      BlockJacobiPreconditioner precond(a, part, 10);
      ResilienceOptions opts;
      opts.strategy = Strategy::esrp;
      opts.interval = 20;
      opts.phi = phi;
      opts.spare_nodes = spares;
      opts.extra_failures.push_back(FailureEvent{
          xp::worst_case_failure_iteration(ref.iterations, 20),
          contiguous_ranks(nodes / 2, static_cast<rank_t>(phi), nodes)});
      ResilientPcg solver(a, precond, cluster, opts);
      const SolveOutcome res = solver.solve(b);
      double recovery = 0;
      for (const auto& rec : res.recoveries) recovery += rec.modeled_time;
      table.print_row(
          {spares ? std::to_string(phi) : "", spares ? "yes" : "no",
           xp::format_percent(
               xp::relative_overhead(res.modeled_time, ref.modeled_time)),
           xp::format_fixed(recovery, 4),
           std::to_string(solver.current_partition().active_nodes())});
    }
  }
  table.print_rule();
  std::printf("\nNo-spare recovery trades replacement hardware for a "
              "permanently imbalanced partition: the adopter becomes the "
              "BSP straggler, so the overall overhead grows with psi much "
              "faster than in the spare-node configuration.\n");
  return 0;
}
