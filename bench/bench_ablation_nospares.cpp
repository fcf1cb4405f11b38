// Ablation: recovery with vs. without spare nodes (paper §4 / reference
// [22]). With spares, the failed ranks are replaced and the post-recovery
// iteration speed is unchanged. Without spares, surviving neighbors absorb
// the lost ranges: no replacement hardware is needed, but the adopters
// carry up to (1 + psi) times the load for the rest of the solve — the BSP
// iteration time is set by the slowest node. One scenario sweep per
// setting, psi = phi ranks failing at the Center location.
#include <cstdio>

#include "scenario/sweep.hpp"
#include "xp/experiment.hpp"
#include "xp/table.hpp"

int main() {
  using namespace esrp;
  const rank_t nodes = 32;
  SweepOptions opts;
  opts.base = SolveSpec{};
  opts.base.matrix = "emilia:16,16,16";
  opts.base.nodes = nodes;
  opts.repetitions = 1;
  const ParamGrid grid{
      {"strategy", {std::string("esrp")}},
      {"interval", {std::int64_t{20}}},
      {"phi", {std::int64_t{1}, std::int64_t{3}, std::int64_t{8}}},
      {"process", {std::string("fixed:it=worst,start=16,count=phi")}},
      {"cluster", {std::string("homogeneous")}}};
  std::vector<SweepResult> results; // with spares, without
  for (const bool spares : {true, false}) {
    opts.base.spare_nodes = spares;
    results.push_back(run_sweep(grid, opts));
  }
  const double t0 = results[0].reference_time.at("homogeneous");

  std::printf("Spare-node ablation on %s (%d nodes, ESRP T = 20, "
              "failure at C/2)\n\n",
              results[0].cells[0].runs[0].report.matrix.c_str(),
              static_cast<int>(nodes));

  xp::TablePrinter table({"psi=phi", "spares", "overall overhead",
                          "recovery [s]", "active nodes after"},
                         {8, 8, 18, 14, 20});
  table.print_header();

  for (std::size_t i = 0; i < results[0].cells.size(); ++i) {
    for (const SweepResult& result : results) {
      const bool spares = result.options.base.spare_nodes;
      const SolveReport& res = result.cells[i].runs[0].report;
      index_t active = nodes;
      for (const RecoveryRecord& rec : res.recoveries)
        active += rec.ranks_rejoined - rec.ranks_absorbed;
      table.print_row(
          {spares ? std::to_string(result.cells[i].phi) : "",
           spares ? "yes" : "no",
           xp::format_percent(xp::relative_overhead(res.modeled_time, t0)),
           xp::format_fixed(res.recovery_modeled_time(), 4),
           std::to_string(active)});
    }
  }
  table.print_rule();
  std::printf("\nNo-spare recovery trades replacement hardware for a "
              "permanently imbalanced partition: the adopter becomes the "
              "BSP straggler, so the overall overhead grows with psi much "
              "faster than in the spare-node configuration.\n");
  return 0;
}
