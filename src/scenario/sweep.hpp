// Scenario sweep runner: the paper's Table 3/4 protocol generalized into a
// parameter-grid driver in the spirit of serenity's Compute harness. A
// sweep takes a map<string, variant> grid over four axes —
//
//   "strategy"  (strings:  "none" | "esrp" | "imcr")
//   "interval"  (integers: storage interval T)
//   "process"   (strings:  failure-process specs, scenario registry)
//   "cluster"   (strings:  cluster-shape specs, scenario registry)
//
// — runs `repetitions` seeded solves per grid cell through the esrp::solve
// facade, and aggregates survival probability (converged with no scratch
// restart) and expected relative overhead (t - t0) / t0 against the
// per-shape failure-free reference. Per-cell seeds are derived from the
// base seed and the cell's key by FNV-1a, so every cell is reproducible in
// isolation and the whole table is reproducible from one seed — at any
// thread count (the distributed solvers are bitwise deterministic across
// threads, docs/parallelism.md).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "api/solve_spec.hpp"
#include "common/types.hpp"

namespace esrp {

using ParamValue = std::variant<std::int64_t, double, std::string>;
using ParamGrid = std::map<std::string, std::vector<ParamValue>>;

std::string to_string(const ParamValue& value);

/// The sweep's defaults for the fixed (non-axis) part of every solve.
SolveSpec default_sweep_spec();

struct SweepOptions {
  /// Every solve of the sweep starts from this spec. `base.matrix` names
  /// the problem (resolved once). The sweep fills in matrix_data,
  /// matrix_name and rhs, and each solve's strategy, interval,
  /// cluster_shape and failures; run_sweep throws esrp::Error when any of
  /// them differs from its SolveSpec default.
  SolveSpec base = default_sweep_spec();
  int repetitions = 5;
  std::uint64_t seed = 0x5CE9A210u;
};

/// Aggregated outcome of one grid cell.
struct SweepCell {
  std::string strategy;
  index_t interval = 0;
  std::string process;
  std::string cluster;

  int repetitions = 0;
  int converged = 0;
  int survived = 0; ///< converged with no scratch restart
  double survival_probability = 0;
  double mean_failures = 0;  ///< sampled events per run
  double mean_overhead = 0;  ///< mean (t - t0)/t0 over converged reps
  double mean_wasted = 0;    ///< mean rollback distance [iterations]

  std::string key() const; ///< canonical cell identifier (seeds, CSV)
};

struct SweepResult {
  SweepOptions options;
  index_t horizon = 0; ///< reference trajectory length C
  /// Failure-free reference modeled time per cluster shape (t0).
  std::map<std::string, double> reference_time;
  std::vector<SweepCell> cells;
};

/// Deterministic per-(cell, repetition) seed: FNV-1a over the cell key and
/// the repetition index, offset by the base seed. Order-independent — a
/// cell's runs don't depend on which cells ran before it.
std::uint64_t cell_seed(std::uint64_t base, const std::string& cell_key,
                        int rep);

/// Run the full grid. The grid must name all four axes with at least one
/// value each; unknown axes, empty axes, and mistyped values throw
/// esrp::Error before any solve runs.
SweepResult run_sweep(const ParamGrid& grid, const SweepOptions& opts);

/// Paper-style fixed-width console table (xp::TablePrinter).
void print_sweep_table(const SweepResult& result, std::ostream& out);

/// Machine-readable table, one line per cell, stable formatting — the CI
/// artifact and the determinism tests diff this string byte-for-byte.
std::string sweep_csv(const SweepResult& result);

} // namespace esrp
