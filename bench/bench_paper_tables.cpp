// Reproduces the paper's §5 results from one experiment grid per matrix:
// Table 2 and Figure 2 for the Emilia_923 stand-in, Table 3 and Figure 3
// for the audikw_1 stand-in (denser elasticity-like operator, 3 dof per
// grid point), and Table 4 (residual drift, Eq. 2) for both.
//
// Each matrix runs two scenario sweeps (scenario/sweep.hpp) on 128
// simulated nodes: ESRP with T in {1, 20, 50, 100} (T = 1 is ESR) and IMCR
// with T in {20, 50, 100}, each crossing phi in {1, 3, 8} with three
// failure processes: none, and psi = phi contiguous ranks failing at the
// Start and Center locations two iterations before the end of the interval
// containing C/2. Every sweep also runs the non-resilient reference that
// gives C and t0. The tables report failure-free overhead, overhead with
// failures, and reconstruction overhead; the figures show the median
// runtime-overhead series per strategy, clustered by T. Paper size is one
// matrix key away: "emilia:97,97,97".
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "scenario/sweep.hpp"
#include "xp/experiment.hpp"
#include "xp/table.hpp"

namespace {

using namespace esrp;

const std::vector<index_t> kEsrpIntervals{1, 20, 50, 100};
const std::vector<index_t> kImcrIntervals{20, 50, 100};
const std::vector<int> kPhis{1, 3, 8};
const std::string kFailureFree = "none";
// psi = phi contiguous ranks from rank 0 ("Start") and N/2 ("Center").
const std::vector<std::pair<const char*, std::string>> kLocations{
    {"Start", "fixed:it=worst,start=0,count=phi"},
    {"Center", "fixed:it=worst,start=64,count=phi"}};

struct PaperGrid {
  std::string problem_type;
  SweepResult esrp, imcr;

  double t0() const { return esrp.reference_time.at("homogeneous"); }
  std::string name() const { return esrp.cells[0].runs[0].report.matrix; }

  /// The one converged run of a cell.
  const SolveReport& run(Strategy s, index_t interval, int phi,
                         const std::string& process) const {
    for (const SweepCell& c : (s == Strategy::esrp ? esrp : imcr).cells) {
      if (c.interval != interval || c.phi != phi || c.process != process)
        continue;
      ESRP_CHECK(c.runs[0].report.converged);
      return c.runs[0].report;
    }
    throw Error("grid cell not found");
  }
  double overhead(Strategy s, index_t interval, int phi,
                  const std::string& process) const {
    return xp::relative_overhead(run(s, interval, phi, process).modeled_time,
                                 t0());
  }
};

/// The paper's §5 setup is the SolveSpec defaults (resilient PCG, block
/// Jacobi with block size 10, rtol 1e-8, a three-slot queue, 128 nodes).
SweepResult run_grid(const std::string& matrix, const char* strategy,
                     const std::vector<index_t>& intervals) {
  SweepOptions opts;
  opts.base = SolveSpec{};
  opts.base.matrix = matrix;
  opts.repetitions = 1;
  ParamGrid grid{{"strategy", {std::string(strategy)}},
                 {"process", {kFailureFree, kLocations[0].second,
                              kLocations[1].second}},
                 {"cluster", {std::string("homogeneous")}}};
  for (const index_t t : intervals) grid["interval"].emplace_back(t);
  for (const int phi : kPhis) grid["phi"].emplace_back(std::int64_t{phi});
  return run_sweep(grid, opts);
}

void print_table(const PaperGrid& grid) {
  std::printf("Results for matrix %s (%s).\n", grid.name().c_str(),
              grid.problem_type.c_str());
  std::printf("Reference time t0 = %.3f s (modeled). The reference case "
              "takes C = %lld iterations to reach convergence.\n",
              grid.t0(), static_cast<long long>(grid.esrp.horizon));
  std::printf("All overheads are relative to t0; failures are psi = phi "
              "contiguous ranks, two iterations before the end of the "
              "interval containing C/2.\n\n");

  std::vector<std::string> headers{"Strategy", "T", "Location"};
  std::vector<int> widths{8, 4, 8};
  for (const char* group : {"ff ", "fail ", "rec "}) {
    for (const int phi : kPhis) {
      headers.push_back(std::string(group) + "phi=" + std::to_string(phi));
      widths.push_back(9);
    }
  }
  xp::TablePrinter table(headers, widths);
  table.print_header();

  auto emit_rows = [&](Strategy s, index_t interval) {
    const char* label = s == Strategy::imcr ? "IMCR"
                        : interval == 1     ? "ESR"
                                            : "ESRP";
    for (std::size_t l = 0; l < kLocations.size(); ++l) {
      const std::string& process = kLocations[l].second;
      std::vector<std::string> row{l == 0 ? label : "",
                                   l == 0 ? std::to_string(interval) : "",
                                   kLocations[l].first};
      for (const int phi : kPhis)
        row.push_back(l == 0 ? xp::format_percent(grid.overhead(
                                   s, interval, phi, kFailureFree))
                             : "");
      for (const int phi : kPhis)
        row.push_back(
            xp::format_percent(grid.overhead(s, interval, phi, process)));
      for (const int phi : kPhis)
        row.push_back(xp::format_percent(
            grid.run(s, interval, phi, process).recovery_modeled_time() /
            grid.t0()));
      table.print_row(row);
    }
  };

  for (const index_t interval : kEsrpIntervals)
    emit_rows(Strategy::esrp, interval);
  table.print_rule();
  for (const index_t interval : kImcrIntervals)
    emit_rows(Strategy::imcr, interval);
  table.print_rule();
  std::printf("\nColumns: ff = failure-free overhead, fail = overhead with "
              "psi = phi node failures, rec = reconstruction overhead "
              "(gather + inner solves for ESR/ESRP, checkpoint transfer for "
              "IMCR).\n\n");
}

void print_figure(const PaperGrid& grid) {
  std::printf("Median runtime overhead series for matrix %s "
              "(markers: phi = 1, 3, 8).\n\n", grid.name().c_str());

  auto series_value = [&](Strategy s, index_t interval, int phi,
                          bool with_failures) {
    if (!with_failures) return grid.overhead(s, interval, phi, kFailureFree);
    // Median over locations, matching the figure caption.
    std::vector<real_t> overheads;
    for (const auto& location : kLocations)
      overheads.push_back(grid.overhead(s, interval, phi, location.second));
    return median(overheads);
  };

  for (const bool with_failures : {false, true}) {
    std::printf("(%c) %s\n", with_failures ? 'b' : 'a',
                with_failures ? "Node failures introduced"
                              : "Failure-free solver");
    std::printf("  %-8s", "series");
    for (const index_t t : kImcrIntervals) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "T=%lld", static_cast<long long>(t));
      std::printf(" | %-26s", buf);
    }
    std::printf("\n");
    // ESR = ESRP with T = 1, constant across clusters.
    for (const auto& [label, strategy, is_esr] :
         {std::tuple{"ESRP", Strategy::esrp, false},
          std::tuple{"ESR", Strategy::esrp, true},
          std::tuple{"IMCR", Strategy::imcr, false}}) {
      std::printf("  %-8s", label);
      for (const index_t t : kImcrIntervals) {
        std::printf(" |");
        for (const int phi : kPhis)
          std::printf(" %7.2f%%", 100 * series_value(strategy, is_esr ? 1 : t,
                                                     phi, with_failures));
      }
      std::printf("\n");
    }
    std::printf("\n");
  }
}

void print_drift_table(const std::vector<PaperGrid>& grids) {
  std::printf("Table 4: residual drift (Eq. 2). Reference: drift of all "
              "failure-free cases (identical trajectory). Median/Minimum: "
              "over all ESRP failure experiments of the Table-2/3 grids.\n\n");

  xp::TablePrinter table({"Matrix", "Reference", "Median", "Minimum"},
                         {24, 12, 12, 12});
  table.print_header();
  for (const PaperGrid& grid : grids) {
    Vector drifts;
    for (const SweepCell& c : grid.esrp.cells)
      if (c.process != kFailureFree) drifts.push_back(c.runs[0].report.drift);
    table.print_row({grid.name(), xp::format_sci(grid.esrp.reference_drift),
                     xp::format_sci(median(drifts)),
                     xp::format_sci(min_of(drifts))});
  }
  table.print_rule();
  std::printf("\nA more positive drift means a smaller true residual "
              "||b - A x|| (more accurate result); the minimum column is "
              "the worst accuracy loss over all reconstructions.\n");
}

} // namespace

int main() {
  std::vector<PaperGrid> grids;
  for (const auto& [matrix, problem_type] :
       {std::pair<const char*, const char*>{
            "emilia", "Structural (3D 27-pt variable-coefficient diffusion)"},
        {"audikw", "Structural (3D elasticity-like, 3 dof/point)"}}) {
    PaperGrid grid{problem_type, run_grid(matrix, "esrp", kEsrpIntervals),
                   run_grid(matrix, "imcr", kImcrIntervals)};
    print_table(grid);
    print_figure(grid);
    grids.push_back(std::move(grid));
  }
  print_drift_table(grids);
  return 0;
}
