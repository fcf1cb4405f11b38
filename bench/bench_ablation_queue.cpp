// Ablation: why does ESRP need a *three*-slot redundancy queue (paper §3,
// Fig. 1)? With two slots, the first ASpMV push of a new storage stage
// evicts the previous stage's pair; a failure in that window finds no
// adjacent copies and the solver falls back to a scratch restart. This
// bench sweeps the failure iteration across one full stage cycle and
// reports the recovery outcome and cost for both capacities.
#include <cstdio>

#include "api/solve.hpp"
#include "table_grid.hpp"
#include "xp/table.hpp"

int main() {
  using namespace esrp;

  const TestProblem prob = emilia_like(12, 12, 12);
  const CsrMatrix& a = prob.matrix;
  const Vector b = xp::make_rhs(a);
  const rank_t nodes = 24;
  const index_t interval = 20;
  const SolveSpec base = bench::paper_spec(a, b, nodes);
  const SolveReport ref = solve(base);
  std::printf("Queue-capacity ablation on %s (%lld rows, C = %lld, "
              "T = %lld)\n\n",
              prob.name.c_str(), static_cast<long long>(a.rows()),
              static_cast<long long>(ref.iterations),
              static_cast<long long>(interval));

  // One full stage cycle around the stage at j = 6T (well inside the solve):
  // failures at the first-storage iteration, mid-stage, second-storage
  // iteration, and a plain iteration after the stage.
  const index_t stage = 6 * interval;
  const std::vector<std::pair<const char*, index_t>> scenarios{
      {"at first storage push (j = 6T)", stage},
      {"between the two pushes is impossible (consecutive iters)", stage},
      {"at second storage push (j = 6T+1)", stage + 1},
      {"plain iteration after stage (j = 6T+5)", stage + 5},
      {"just before next stage (j = 7T-1)", 7 * interval - 1},
  };

  xp::TablePrinter table({"failure point", "slots", "outcome", "rolled back",
                          "overhead"},
                         {48, 6, 12, 12, 10});
  table.print_header();

  for (const auto& [label, fail_at] : scenarios) {
    for (const std::size_t capacity : {std::size_t{3}, std::size_t{2}}) {
      SolveSpec spec = base;
      spec.strategy = Strategy::esrp;
      spec.interval = interval;
      spec.phi = 2;
      spec.queue_capacity = capacity;
      spec.failures = {FailureEvent{fail_at, contiguous_ranks(10, 2, nodes)}};
      const SolveReport out = solve(spec);
      table.print_row(
          {capacity == 3 ? label : "", std::to_string(capacity),
           out.restarted_from_scratch() ? "RESTART" : "recovered",
           std::to_string(out.wasted_iterations()),
           xp::format_percent(
               xp::relative_overhead(out.modeled_time, ref.modeled_time))});
    }
  }
  table.print_rule();
  std::printf("\nWith 2 slots the failure at the first storage push of a "
              "stage loses the previous pair and forces a scratch restart — "
              "the three-slot queue (paper Fig. 1) always recovers.\n");
  return 0;
}
