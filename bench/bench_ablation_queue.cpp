// Ablation: why does ESRP need a *three*-slot redundancy queue (paper §3,
// Fig. 1)? With two slots, the first ASpMV push of a new storage stage
// evicts the previous stage's pair; a failure in that window finds no
// adjacent copies and the solver falls back to a scratch restart. This
// bench sweeps the failure iteration across one full stage cycle and
// reports the recovery outcome and cost for both capacities: one scenario
// sweep per capacity, one fixed failure process per failure point.
#include <cstdio>

#include "scenario/sweep.hpp"
#include "xp/experiment.hpp"
#include "xp/table.hpp"

int main() {
  using namespace esrp;

  const index_t interval = 20;
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

  SweepOptions opts;
  opts.base = SolveSpec{};
  opts.base.matrix = "emilia:12,12,12";
  opts.base.nodes = 24;
  opts.base.phi = 2;
  opts.repetitions = 1;
  ParamGrid grid{{"strategy", {std::string("esrp")}},
                 {"interval", {std::int64_t{interval}}},
                 {"cluster", {std::string("homogeneous")}}};
  for (const auto& [label, fail_at] : scenarios)
    grid["process"].push_back("fixed:it=" + std::to_string(fail_at) +
                              ",start=10,count=2");

  std::vector<SweepResult> results; // one per capacity: 3, 2
  for (const std::size_t capacity : {std::size_t{3}, std::size_t{2}}) {
    opts.base.queue_capacity = capacity;
    results.push_back(run_sweep(grid, opts));
  }
  const double t0 = results[0].reference_time.at("homogeneous");
  const SolveReport& first = results[0].cells.front().runs[0].report;
  std::printf("Queue-capacity ablation on %s (%lld rows, C = %lld, "
              "T = %lld)\n\n",
              first.matrix.c_str(), static_cast<long long>(first.rows),
              static_cast<long long>(results[0].horizon),
              static_cast<long long>(interval));

  xp::TablePrinter table({"failure point", "slots", "outcome", "rolled back",
                          "overhead"},
                         {48, 6, 12, 12, 10});
  table.print_header();

  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    for (const SweepResult& result : results) {
      const std::size_t capacity = result.options.base.queue_capacity;
      const SolveReport& out = result.cells[i].runs[0].report;
      table.print_row(
          {capacity == 3 ? scenarios[i].first : "", std::to_string(capacity),
           out.restarted_from_scratch() ? "RESTART" : "recovered",
           std::to_string(out.wasted_iterations()),
           xp::format_percent(xp::relative_overhead(out.modeled_time, t0))});
    }
  }
  table.print_rule();
  std::printf("\nWith 2 slots the failure at the first storage push of a "
              "stage loses the previous pair and forces a scratch restart — "
              "the three-slot queue (paper Fig. 1) always recovers.\n");
  return 0;
}
