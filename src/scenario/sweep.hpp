// Scenario sweep runner: the paper's §5 protocol (one failure-free
// reference run for C and t0, then the failure runs, each measured against
// t0) as a parameter-grid runner in the spirit of serenity's Compute
// harness. A sweep takes a map<string, variant> grid over these axes —
//
//   "strategy"  (strings:  "none" | "esrp" | "imcr")
//   "interval"  (integers: storage interval T)
//   "phi"       (integers: redundant copies; optional, default base.phi)
//   "process"   (strings:  failure-process specs, scenario registry)
//   "cluster"   (strings:  cluster-shape specs, scenario registry)
//
// — runs `repetitions` seeded solves per grid cell through the esrp::solve
// facade, keeps each solve's report, and aggregates survival probability
// (converged with no scratch restart) and expected relative overhead
// (t - t0) / t0 against the per-shape failure-free reference. The paper's
// Tables 2–4 and the solve-grid ablations are grids of this runner plus a
// renderer over the kept reports. Per-cell seeds are derived from the
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

using ParamValue = std::variant<std::int64_t, std::string>;
using ParamGrid = std::map<std::string, std::vector<ParamValue>>;

std::string to_string(const ParamValue& value);

/// The sweep's defaults for the fixed (non-axis) part of every solve.
SolveSpec default_sweep_spec();

struct SweepOptions {
  /// Every solve of the sweep starts from this spec. `base.matrix` names
  /// the problem (resolved once). The sweep fills in matrix_data,
  /// matrix_name and rhs, and each solve's strategy, interval,
  /// cluster_shape and failures (and phi, when the grid has a phi axis);
  /// run_sweep throws esrp::Error when any of them but phi differs from its
  /// SolveSpec default.
  SolveSpec base = default_sweep_spec();
  int repetitions = 5;
  std::uint64_t seed = 0x5CE9A210u;
};

/// One repetition of a grid cell.
struct SweepRun {
  std::vector<FailureEvent> failures; ///< the sampled schedule
  SolveReport report;                 ///< with `x` and `r` released
};

/// One grid cell: its runs and their aggregates.
struct SweepCell {
  std::string strategy;
  index_t interval = 0;
  int phi = 0; ///< the phi axis value; 0 when the grid has no phi axis
  std::string process;
  std::string cluster;
  std::vector<SweepRun> runs; ///< one per repetition, in seed order

  int repetitions = 0;
  int converged = 0;
  int survived = 0; ///< converged with no scratch restart
  double survival_probability = 0;
  double mean_failures = 0;  ///< sampled events per run
  double mean_overhead = 0;  ///< mean (t - t0)/t0 over converged reps
  double mean_wasted = 0;    ///< mean rollback distance [iterations]

  /// Canonical cell identifier (seeds, CSV); names phi only when the grid
  /// has a phi axis.
  std::string key() const;
};

struct SweepResult {
  SweepOptions options;
  index_t horizon = 0; ///< reference trajectory length C
  real_t reference_drift = 0; ///< residual drift of the reference (Eq. 2)
  /// Failure-free reference modeled time per cluster shape (t0).
  std::map<std::string, double> reference_time;
  std::vector<SweepCell> cells;
};

/// The failure-free reference run of `spec` (paper §5: it gives C and t0):
/// the same problem, solver and accounting with no resilience strategy, no
/// failures and no injected corruption. Spares and the recovery policy go
/// back to their defaults: without a strategy nothing recovers, and
/// validate_spec rejects no-spare and shrink there.
SolveSpec reference_spec(const SolveSpec& spec);

/// Deterministic per-(cell, repetition) seed: FNV-1a over the cell key and
/// the repetition index, offset by the base seed. Order-independent — a
/// cell's runs don't depend on which cells ran before it.
std::uint64_t cell_seed(std::uint64_t base, const std::string& cell_key,
                        int rep);

/// Run the full grid. The grid must name the strategy, interval, process
/// and cluster axes with at least one value each (phi is optional);
/// unknown axes, empty axes, and mistyped values throw esrp::Error before
/// any solve runs.
SweepResult run_sweep(const ParamGrid& grid, const SweepOptions& opts);

/// Paper-style fixed-width console table (xp::TablePrinter). It and the
/// CSV name no phi: render a phi-axis grid from its cells instead.
void print_sweep_table(const SweepResult& result, std::ostream& out);

/// Machine-readable table, one line per cell, stable formatting — the CI
/// artifact and the determinism tests diff this string byte-for-byte.
std::string sweep_csv(const SweepResult& result);

} // namespace esrp
