// Ablation: choosing the checkpointing interval T with the Young/Daly
// estimates the paper cites ([8], [28]). Measures the per-stage storage
// cost and per-iteration time of ESRP and IMCR on the Emilia stand-in,
// derives the optimal T for the paper's MTBF scenarios (9 h for 100k
// nodes, 53 min for 1M nodes [11]), and cross-checks the first-order
// expected-runtime model across the paper's T grid.
#include <cstdio>

#include "api/solve.hpp"
#include "core/interval.hpp"
#include "sparse/generators.hpp"
#include "xp/experiment.hpp"
#include "xp/table.hpp"

int main() {
  using namespace esrp;
  const TestProblem prob = emilia_like(16, 16, 16);
  const CsrMatrix& a = prob.matrix;
  const Vector b = xp::make_rhs(a);
  const rank_t nodes = 32;
  SolveSpec base; // the paper's §5 run (SolveSpec defaults), no strategy
  base.matrix_data = &a;
  base.rhs = b;
  base.nodes = nodes;
  const SolveReport ref = solve(base);
  const double iter_s = ref.modeled_time / static_cast<double>(ref.iterations);

  // Measure the per-stage cost delta from failure-free runs at T = 20.
  auto stage_cost = [&](Strategy strat) {
    SolveSpec spec = base;
    spec.strategy = strat;
    spec.interval = 20;
    spec.phi = 3;
    const SolveReport out = solve(spec);
    const double stages =
        static_cast<double>(ref.iterations) / 20.0; // one stage per interval
    return (out.modeled_time - ref.modeled_time) / stages;
  };
  const double delta_esrp = stage_cost(Strategy::esrp);
  const double delta_imcr = stage_cost(Strategy::imcr);

  std::printf("Optimal-interval study on %s (%d nodes, phi = 3)\n",
              prob.name.c_str(), static_cast<int>(nodes));
  std::printf("  per-iteration time:   %.3e s (modeled)\n", iter_s);
  std::printf("  ESRP storage stage:   delta = %.3e s\n", delta_esrp);
  std::printf("  IMCR checkpoint:      delta = %.3e s\n\n", delta_imcr);

  xp::TablePrinter table({"MTBF scenario", "strategy", "tau_Young [s]",
                          "tau_Daly [s]", "T_opt [iters]"},
                         {26, 9, 14, 14, 14});
  table.print_header();
  struct Scenario {
    const char* label;
    double mtbf_s;
  };
  for (const Scenario sc : {Scenario{"9 h (100k nodes, [11])", 9 * 3600.0},
                            Scenario{"53 min (1M nodes, [11])", 53 * 60.0},
                            Scenario{"60 s (stress case)", 60.0}}) {
    for (const auto& [label, delta] :
         {std::pair<const char*, double>{"ESRP", delta_esrp},
          std::pair<const char*, double>{"IMCR", delta_imcr}}) {
      IntervalModel m;
      m.checkpoint_cost_s = std::max(delta, 1e-9);
      m.mtbf_s = sc.mtbf_s;
      m.iteration_s = iter_s;
      table.print_row({label == std::string("ESRP") ? sc.label : "", label,
                       xp::format_sci(young_interval_seconds(
                           m.checkpoint_cost_s, m.mtbf_s)),
                       xp::format_sci(daly_interval_seconds(
                           m.checkpoint_cost_s, m.mtbf_s)),
                       std::to_string(optimal_interval_iterations(m))});
    }
  }
  table.print_rule();

  std::printf("\nexpected-runtime model across the paper's T grid "
              "(ESRP, MTBF = 60 s stress case, recovery cost 0.5 s):\n");
  for (const index_t t : {1, 20, 50, 100, 1000}) {
    const double tau = static_cast<double>(t) * iter_s;
    const double exp_rt = expected_runtime_seconds(
        ref.modeled_time, tau, delta_esrp, 60.0, 0.5);
    std::printf("  T = %5lld: expected runtime %.3f s\n",
                static_cast<long long>(t), exp_rt);
  }
  std::printf("\nWith cheap storage stages and realistic MTBFs the optimal "
              "interval is far larger than the solve itself — the paper's "
              "observation that a single failure per run is already the "
              "interesting regime.\n");
  return 0;
}
