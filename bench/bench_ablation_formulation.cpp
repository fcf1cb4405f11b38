// Ablation: preconditioner formulation in the Alg. 2 reconstruction
// (paper reference [20]). The inverse formulation solves
// P_{I_f,I_f} r_f = v with an inner CG; the matrix formulation computes
// r_f = M_{I_f,I} z directly. Both then solve the A_{I_f,I_f} system for x.
// Compares recovery cost for both formulations across phi: one scenario
// sweep per formulation, psi = phi ranks failing at the Center location.
#include <cstdio>

#include "scenario/sweep.hpp"
#include "xp/table.hpp"

int main() {
  using namespace esrp;
  SweepOptions opts;
  opts.base = SolveSpec{};
  opts.base.matrix = "emilia:16,16,16";
  opts.base.nodes = 32;
  opts.repetitions = 1;
  const ParamGrid grid{
      {"strategy", {std::string("esrp")}},
      {"interval", {std::int64_t{20}}},
      {"phi", {std::int64_t{1}, std::int64_t{3}, std::int64_t{8}}},
      {"process", {std::string("fixed:it=worst,start=16,count=phi")}},
      {"cluster", {std::string("homogeneous")}}};
  std::vector<SweepResult> results;
  for (const PrecondFormulation form :
       {PrecondFormulation::inverse, PrecondFormulation::matrix}) {
    opts.base.formulation = form;
    results.push_back(run_sweep(grid, opts));
  }
  const double t0 = results[0].reference_time.at("homogeneous");
  const SolveReport& first = results[0].cells[0].runs[0].report;

  std::printf("Reconstruction-formulation ablation on %s "
              "(%lld rows, %d nodes, ESRP T = 20, C = %lld)\n\n",
              first.matrix.c_str(), static_cast<long long>(first.rows),
              static_cast<int>(first.nodes),
              static_cast<long long>(results[0].horizon));

  xp::TablePrinter table({"phi", "formulation", "recovery [s]",
                          "rec overhead", "inner P", "inner A"},
                         {4, 12, 12, 12, 8, 8});
  table.print_header();
  for (std::size_t i = 0; i < results[0].cells.size(); ++i) {
    for (const SweepResult& result : results) {
      const SweepCell& cell = result.cells[i];
      const SolveReport& out = cell.runs[0].report;
      index_t inner_precond = 0, inner_matrix = 0;
      for (const RecoveryRecord& rec : out.recoveries) {
        inner_precond += rec.inner_iterations_precond;
        inner_matrix += rec.inner_iterations_matrix;
      }
      table.print_row(
          {std::to_string(cell.phi),
           result.options.base.formulation == PrecondFormulation::inverse
               ? "inverse"
               : "matrix",
           xp::format_fixed(out.recovery_modeled_time(), 4),
           xp::format_percent(out.recovery_modeled_time() / t0),
           std::to_string(inner_precond), std::to_string(inner_matrix)});
    }
  }
  table.print_rule();
  std::printf("\nThe matrix formulation removes the P_{If,If} inner solve "
              "entirely (inner P = 0); with node-aligned block Jacobi both "
              "recover the identical state.\n");
  return 0;
}
