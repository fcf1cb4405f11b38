#include "table_grid.hpp"

#include <cstdio>

#include "api/solve.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "xp/table.hpp"

namespace esrp::bench {

SolveSpec paper_spec(const CsrMatrix& a, std::span<const real_t> b,
                     rank_t nodes) {
  // The SolveSpec defaults are the paper's solver, preconditioner, block
  // size, rtol and queue capacity, with no strategy and no failure.
  SolveSpec spec;
  spec.matrix_data = &a;
  spec.rhs = b;
  spec.nodes = nodes;
  spec.interval = 1;
  return spec;
}

const CellResult& GridResult::cell(Strategy s, index_t interval,
                                   int phi) const {
  for (const CellResult& c : cells) {
    if (c.strategy == s && c.interval == interval && c.phi == phi) return c;
  }
  throw Error("grid cell not found");
}

GridResult run_grid(const TestProblem& prob, const GridSpec& spec) {
  const Vector b = xp::make_rhs(prob.matrix);
  const SolveSpec base = paper_spec(prob.matrix, b, spec.num_nodes);

  GridResult grid;
  {
    const SolveReport ref = solve(base);
    ESRP_CHECK_MSG(ref.converged, "reference run did not converge");
    grid.t0 = ref.modeled_time;
    grid.c = ref.iterations;
    grid.drift = ref.drift;
  }

  auto run_strategy = [&](Strategy strategy, index_t interval) {
    for (const int phi : spec.phis) {
      CellResult cell;
      cell.strategy = strategy;
      cell.interval = interval;
      cell.phi = phi;

      SolveSpec run = base;
      run.strategy = strategy;
      run.interval = interval;
      run.phi = phi;
      {
        const SolveReport out = solve(run);
        ESRP_CHECK(out.converged);
        cell.failure_free_overhead =
            xp::relative_overhead(out.modeled_time, grid.t0);
      }
      // Failures: psi = phi contiguous ranks at each location, placed two
      // iterations before the end of the interval containing C/2.
      for (const rank_t loc : spec.locations) {
        run.failures = {FailureEvent{
            xp::worst_case_failure_iteration(grid.c, interval),
            contiguous_ranks(loc, phi, spec.num_nodes)}};
        const SolveReport out = solve(run);
        ESRP_CHECK(out.converged);
        cell.failure_overhead.push_back(
            xp::relative_overhead(out.modeled_time, grid.t0));
        cell.reconstruction_overhead.push_back(out.recovery_modeled_time() /
                                               grid.t0);
        cell.drift.push_back(out.drift);
      }
      grid.cells.push_back(std::move(cell));
    }
  };

  for (const index_t interval : spec.esrp_intervals)
    run_strategy(Strategy::esrp, interval);
  for (const index_t interval : spec.imcr_intervals)
    run_strategy(Strategy::imcr, interval);
  return grid;
}

void print_table(const TestProblem& prob, const GridSpec& spec,
                 const GridResult& grid) {
  std::printf("Results for matrix %s (%s).\n", prob.name.c_str(),
              prob.problem_type.c_str());
  std::printf("Reference time t0 = %.3f s (modeled). The reference case "
              "takes C = %lld iterations to reach convergence.\n",
              grid.t0, static_cast<long long>(grid.c));
  std::printf("All overheads are relative to t0; failures are psi = phi "
              "contiguous ranks, two iterations before the end of the "
              "interval containing C/2.\n\n");

  std::vector<std::string> headers{"Strategy", "T", "Location"};
  std::vector<int> widths{8, 4, 8};
  for (const char* group : {"ff ", "fail ", "rec "}) {
    for (const int phi : spec.phis) {
      headers.push_back(std::string(group) + "phi=" + std::to_string(phi));
      widths.push_back(9);
    }
  }
  xp::TablePrinter table(headers, widths);
  table.print_header();

  auto strategy_label = [](Strategy s, index_t interval) {
    if (s == Strategy::esrp) return interval == 1 ? "ESR" : "ESRP";
    return "IMCR";
  };

  auto emit_rows = [&](Strategy s, index_t interval) {
    for (std::size_t l = 0; l < spec.locations.size(); ++l) {
      std::vector<std::string> row;
      row.push_back(l == 0 ? strategy_label(s, interval) : "");
      row.push_back(l == 0 ? std::to_string(interval) : "");
      row.push_back(spec.locations[l] == 0 ? "Start" : "Center");
      for (const int phi : spec.phis) {
        const CellResult& c = grid.cell(s, interval, phi);
        row.push_back(l == 0 ? xp::format_percent(c.failure_free_overhead)
                             : "");
      }
      for (const int phi : spec.phis) {
        const CellResult& c = grid.cell(s, interval, phi);
        row.push_back(xp::format_percent(c.failure_overhead[l]));
      }
      for (const int phi : spec.phis) {
        const CellResult& c = grid.cell(s, interval, phi);
        row.push_back(xp::format_percent(c.reconstruction_overhead[l]));
      }
      table.print_row(row);
    }
  };

  for (const index_t interval : spec.esrp_intervals)
    emit_rows(Strategy::esrp, interval);
  table.print_rule();
  for (const index_t interval : spec.imcr_intervals)
    emit_rows(Strategy::imcr, interval);
  table.print_rule();
  std::printf("\nColumns: ff = failure-free overhead, fail = overhead with "
              "psi = phi node failures, rec = reconstruction overhead "
              "(gather + inner solves for ESR/ESRP, checkpoint transfer for "
              "IMCR).\n\n");
}

void print_figure(const TestProblem& prob, const GridSpec& spec,
                  const GridResult& grid) {
  std::printf("Median runtime overhead series for matrix %s "
              "(markers: phi = 1, 3, 8).\n\n", prob.name.c_str());

  const std::vector<index_t> clusters = spec.imcr_intervals; // {20, 50, 100}

  auto series_value = [&](Strategy s, index_t interval, int phi,
                          bool with_failures) {
    const CellResult& c = grid.cell(s, interval, phi);
    if (!with_failures) return c.failure_free_overhead;
    // Median over locations, matching the figure caption.
    return median(c.failure_overhead);
  };

  for (const bool with_failures : {false, true}) {
    std::printf("(%c) %s\n", with_failures ? 'b' : 'a',
                with_failures ? "Node failures introduced"
                              : "Failure-free solver");
    std::printf("  %-8s", "series");
    for (const index_t t : clusters) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "T=%lld", static_cast<long long>(t));
      std::printf(" | %-26s", buf);
    }
    std::printf("\n");
    struct SeriesDef {
      const char* label;
      Strategy strategy;
      bool is_esr; // ESR = ESRP with T=1, constant across clusters
    };
    for (const SeriesDef def : {SeriesDef{"ESRP", Strategy::esrp, false},
                                SeriesDef{"ESR", Strategy::esrp, true},
                                SeriesDef{"IMCR", Strategy::imcr, false}}) {
      std::printf("  %-8s", def.label);
      for (const index_t t : clusters) {
        std::printf(" |");
        for (const int phi : spec.phis) {
          const index_t interval = def.is_esr ? 1 : t;
          std::printf(" %7.2f%%",
                      100 * series_value(def.strategy, interval, phi,
                                         with_failures));
        }
      }
      std::printf("\n");
    }
    std::printf("\n");
  }
}

void print_drift_table(const std::vector<std::string>& names,
                       const std::vector<GridResult>& grids) {
  std::printf("Table 4: residual drift (Eq. 2). Reference: drift of all "
              "failure-free cases (identical trajectory). Median/Minimum: "
              "over all ESRP failure experiments of the Table-2/3 grids.\n\n");

  xp::TablePrinter table({"Matrix", "Reference", "Median", "Minimum"},
                         {24, 12, 12, 12});
  table.print_header();
  for (std::size_t i = 0; i < grids.size(); ++i) {
    Vector drifts;
    for (const CellResult& c : grids[i].cells) {
      if (c.strategy == Strategy::esrp)
        drifts.insert(drifts.end(), c.drift.begin(), c.drift.end());
    }
    table.print_row({names[i], xp::format_sci(grids[i].drift),
                     xp::format_sci(median(drifts)),
                     xp::format_sci(min_of(drifts))});
  }
  table.print_rule();
  std::printf("\nA more positive drift means a smaller true residual "
              "||b - A x|| (more accurate result); the minimum column is "
              "the worst accuracy loss over all reconstructions.\n");
}

} // namespace esrp::bench
