// Ablation: preconditioner formulation in the Alg. 2 reconstruction
// (paper reference [20]). The inverse formulation solves
// P_{I_f,I_f} r_f = v with an inner CG; the matrix formulation computes
// r_f = M_{I_f,I} z directly. Both then solve the A_{I_f,I_f} system for x.
// Compares recovery cost for both formulations across phi.
#include <cstdio>

#include "api/solve.hpp"
#include "core/resilient_pcg.hpp"
#include "precond/block_jacobi.hpp"
#include "table_grid.hpp"
#include "xp/table.hpp"

namespace {

using namespace esrp;

struct Outcome {
  double recovery = 0;
  index_t inner_precond = 0;
  index_t inner_matrix = 0;
};

Outcome run_one(const CsrMatrix& a, const Vector& b,
                const BlockRowPartition& part, int phi, index_t fail_at,
                PrecondFormulation form) {
  SimCluster cluster(part, xp::calibrated_cost(a, part.num_nodes()));
  BlockJacobiPreconditioner precond(a, part, 10);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 20;
  opts.phi = phi;
  opts.formulation = form;
  opts.extra_failures.push_back(FailureEvent{
      fail_at, contiguous_ranks(part.num_nodes() / 2, static_cast<rank_t>(phi),
                                part.num_nodes())});
  ResilientPcg solver(a, precond, cluster, opts);
  const SolveOutcome res = solver.solve(b);
  Outcome out;
  for (const RecoveryRecord& rec : res.recoveries) {
    out.recovery += rec.modeled_time;
    out.inner_precond += rec.inner_iterations_precond;
    out.inner_matrix += rec.inner_iterations_matrix;
  }
  return out;
}

} // namespace

int main() {
  using namespace esrp;
  const TestProblem prob = emilia_like(16, 16, 16);
  const CsrMatrix& a = prob.matrix;
  const Vector b = xp::make_rhs(a);
  const rank_t nodes = 32;
  const BlockRowPartition part(a.rows(), nodes);
  const SolveReport ref = solve(bench::paper_spec(a, b, nodes));

  std::printf("Reconstruction-formulation ablation on %s "
              "(%lld rows, %d nodes, ESRP T = 20, C = %lld)\n\n",
              prob.name.c_str(), static_cast<long long>(a.rows()),
              static_cast<int>(nodes),
              static_cast<long long>(ref.iterations));

  xp::TablePrinter table({"phi", "formulation", "recovery [s]",
                          "rec overhead", "inner P", "inner A"},
                         {4, 12, 12, 12, 8, 8});
  table.print_header();
  const index_t fail_at = xp::worst_case_failure_iteration(ref.iterations, 20);
  for (const int phi : {1, 3, 8}) {
    for (const PrecondFormulation form :
         {PrecondFormulation::inverse, PrecondFormulation::matrix}) {
      const Outcome out = run_one(a, b, part, phi, fail_at, form);
      table.print_row(
          {std::to_string(phi),
           form == PrecondFormulation::inverse ? "inverse" : "matrix",
           xp::format_fixed(out.recovery, 4),
           xp::format_percent(out.recovery / ref.modeled_time),
           std::to_string(out.inner_precond),
           std::to_string(out.inner_matrix)});
    }
  }
  table.print_rule();
  std::printf("\nThe matrix formulation removes the P_{If,If} inner solve "
              "entirely (inner P = 0); with node-aligned block Jacobi both "
              "recover the identical state.\n");
  return 0;
}
