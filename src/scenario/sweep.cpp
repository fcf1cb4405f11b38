#include "scenario/sweep.hpp"

#include <cstdio>
#include <ostream>
#include <sstream>

#include "api/registry.hpp"
#include "api/solve.hpp"
#include "common/error.hpp"
#include "common/fnv.hpp"
#include "scenario/cluster_shape.hpp"
#include "scenario/failure_process.hpp"
#include "xp/experiment.hpp"
#include "xp/table.hpp"

namespace esrp {

namespace {

/// Stable double formatting for CSV output (never locale-dependent).
std::string format_g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

const std::vector<ParamValue>& axis(const ParamGrid& grid,
                                    const std::string& name) {
  const auto it = grid.find(name);
  if (it == grid.end())
    throw Error("sweep grid is missing the \"" + name + "\" axis");
  if (it->second.empty())
    throw Error("sweep grid axis \"" + name + "\" has no values");
  return it->second;
}

std::string as_string(const ParamValue& v, const std::string& axis_name) {
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  throw Error("sweep axis \"" + axis_name + "\" expects string values, got " +
              to_string(v));
}

/// A positive integer axis value (interval, phi).
std::int64_t as_positive(const ParamValue& v, const std::string& axis_name) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    if (*i < 1)
      throw Error("sweep " + axis_name + " must be >= 1, got " +
                  std::to_string(*i));
    return *i;
  }
  throw Error("sweep axis \"" + axis_name + "\" expects integer values, got " +
              to_string(v));
}

/// The sweep sets these fields itself (the problem once, the rest per
/// solve); a value the caller put there would be silently overwritten.
void check_base_leaves_sweep_fields_unset(const SolveSpec& base) {
  const SolveSpec defaults;
  const char* field = nullptr;
  if (base.matrix_data != nullptr) field = "matrix_data";
  else if (!base.matrix_name.empty()) field = "matrix_name";
  else if (!base.rhs.empty()) field = "rhs";
  else if (base.strategy != defaults.strategy) field = "strategy";
  else if (base.interval != defaults.interval) field = "interval";
  else if (base.cluster_shape != defaults.cluster_shape)
    field = "cluster_shape";
  else if (!base.failures.empty()) field = "failures";
  if (field != nullptr)
    throw Error(std::string("sweep base spec sets \"") + field +
                "\", which the sweep fills in itself; leave it at its "
                "default (use base.matrix and the grid axes instead)");
}

} // namespace

std::string to_string(const ParamValue& value) {
  if (const auto* i = std::get_if<std::int64_t>(&value))
    return std::to_string(*i);
  return std::get<std::string>(value);
}

std::string SweepCell::key() const {
  return strategy + "|T=" + std::to_string(interval) +
         (phi > 0 ? "|phi=" + std::to_string(phi) : "") + "|" + process +
         "|" + cluster;
}

SolveSpec default_sweep_spec() {
  // The rest are SolveSpec's defaults: resilient-pcg, block-jacobi(10),
  // rtol 1e-8, calibrated cost, the global thread count.
  SolveSpec spec;
  spec.matrix = "poisson2d:12,12";
  spec.nodes = 8;
  spec.phi = 2;
  return spec;
}

SolveSpec reference_spec(const SolveSpec& spec) {
  SolveSpec ref = spec;
  ref.strategy = Strategy::none;
  ref.failures.clear();
  ref.sdc_events.clear();
  ref.spare_nodes = SolveSpec{}.spare_nodes;
  ref.recovery_policy = SolveSpec{}.recovery_policy;
  return ref;
}

std::uint64_t cell_seed(std::uint64_t base, const std::string& cell_key,
                        int rep) {
  unsigned char rep_bytes[8]; // little-endian on every host
  for (int i = 0; i < 8; ++i)
    rep_bytes[i] = static_cast<unsigned char>(
        static_cast<std::uint64_t>(rep) >> (8 * i));
  const std::uint64_t h =
      fnv1a(cell_key.data(), cell_key.size(), kFnvOffset ^ base);
  return fnv1a(rep_bytes, sizeof rep_bytes, h);
}

SweepResult run_sweep(const ParamGrid& grid, const SweepOptions& opts) {
  if (opts.repetitions < 1) throw Error("sweep needs repetitions >= 1");
  check_base_leaves_sweep_fields_unset(opts.base);
  for (const auto& [name, values] : grid) {
    if (name != "strategy" && name != "interval" && name != "phi" &&
        name != "process" && name != "cluster")
      throw Error("unknown sweep axis \"" + name +
                  "\" (valid: strategy, interval, phi, process, cluster)");
    (void)values;
  }
  const std::vector<ParamValue>& strategies = axis(grid, "strategy");
  const std::vector<ParamValue>& intervals = axis(grid, "interval");
  const std::vector<ParamValue>& processes = axis(grid, "process");
  const std::vector<ParamValue>& clusters = axis(grid, "cluster");
  // A grid without a phi axis runs every cell at base.phi under
  // cell.phi = 0, so its cell keys, and so its seeds, do not name phi.
  const std::vector<ParamValue> phis =
      grid.count("phi") ? axis(grid, "phi")
                        : std::vector<ParamValue>{std::int64_t{0}};

  // Fail fast on every axis value before the first (expensive) solve.
  for (const ParamValue& v : strategies)
    strategy_from_string(as_string(v, "strategy"));
  for (const ParamValue& v : intervals) as_positive(v, "interval");
  if (grid.count("phi"))
    for (const ParamValue& v : phis) as_positive(v, "phi");
  for (const ParamValue& v : processes)
    check_failure_process_key(as_string(v, "process"));
  for (const ParamValue& v : clusters)
    check_cluster_shape_key(as_string(v, "cluster"));

  const TestProblem problem = resolve_matrix(opts.base.matrix);
  const Vector rhs = xp::make_rhs(problem.matrix);

  SweepResult result;
  result.options = opts;

  SolveSpec base = opts.base;
  base.matrix_data = &problem.matrix;
  base.matrix_name = problem.name;
  base.rhs = rhs;

  // Per-shape failure-free reference: t0 differs across shapes (accounting),
  // the trajectory must not (cost models never touch the arithmetic).
  for (const ParamValue& cv : clusters) {
    const std::string shape = as_string(cv, "cluster");
    if (result.reference_time.count(shape)) continue;
    SolveSpec ref = reference_spec(base);
    ref.cluster_shape = shape;
    const SolveReport report = solve(ref);
    if (!report.converged)
      throw Error("sweep reference run did not converge on \"" +
                  opts.base.matrix +
                  "\"");
    if (result.horizon == 0) {
      result.horizon = report.iterations;
      result.reference_drift = report.drift;
    } else {
      ESRP_CHECK_MSG(report.iterations == result.horizon,
                     "cluster shape \"" << shape
                                        << "\" changed the trajectory");
    }
    result.reference_time[shape] = report.modeled_time;
  }

  for (const ParamValue& sv : strategies) {
    for (const ParamValue& iv : intervals) {
      for (const ParamValue& fv : phis) {
        for (const ParamValue& pv : processes) {
          for (const ParamValue& cv : clusters) {
            SweepCell cell;
            cell.strategy = as_string(sv, "strategy");
            cell.interval = static_cast<index_t>(as_positive(iv, "interval"));
            cell.phi = static_cast<int>(std::get<std::int64_t>(fv));
            cell.process = as_string(pv, "process");
            cell.cluster = as_string(cv, "cluster");
            cell.repetitions = opts.repetitions;
            const double t0 = result.reference_time.at(cell.cluster);

            SolveSpec spec = base;
            spec.strategy = strategy_from_string(cell.strategy);
            spec.interval = cell.interval;
            if (cell.phi > 0) spec.phi = cell.phi;
            spec.cluster_shape = cell.cluster;
            // Serial fixed-order aggregation across repetitions of one
            // sweep cell; reps run in seed order on one thread, so the sum
            // is reproducible without routing through parallel_reduce.
            // esrp-lint: allow(fp-accumulate)
            double sum_overhead = 0, sum_wasted = 0, sum_failures = 0;
            for (int rep = 0; rep < opts.repetitions; ++rep) {
              SweepRun& run = cell.runs.emplace_back();
              run.failures = sample_failure_schedule(
                  cell.process, base.nodes, result.horizon,
                  cell_seed(opts.seed, cell.key(), rep), spec.interval,
                  spec.phi);
              spec.failures = run.failures;
              run.report = solve(spec);
              run.report.x = Vector();
              run.report.r = Vector();
              const SolveReport& report = run.report;
              sum_failures += static_cast<double>(run.failures.size());
              if (report.converged) {
                ++cell.converged;
                sum_overhead += xp::relative_overhead(report.modeled_time, t0);
                sum_wasted += static_cast<double>(report.wasted_iterations());
                if (!report.restarted_from_scratch()) ++cell.survived;
              }
            }
            cell.survival_probability =
                static_cast<double>(cell.survived) /
                static_cast<double>(cell.repetitions);
            cell.mean_failures =
                sum_failures / static_cast<double>(cell.repetitions);
            if (cell.converged > 0) {
              cell.mean_overhead =
                  sum_overhead / static_cast<double>(cell.converged);
              cell.mean_wasted =
                  sum_wasted / static_cast<double>(cell.converged);
            }
            result.cells.push_back(std::move(cell));
          }
        }
      }
    }
  }
  return result;
}

void print_sweep_table(const SweepResult& result, std::ostream& out) {
  const SolveSpec& base = result.options.base;
  out << "scenario sweep: " << base.matrix << ", " << base.solver << "/"
      << base.precond << ", " << base.nodes << " nodes, phi = " << base.phi
      << ", C = " << result.horizon << ", " << result.options.repetitions
      << " reps/cell, seed = 0x" << std::hex << result.options.seed
      << std::dec << "\n";
  xp::TablePrinter table({"strategy", "T", "process", "cluster", "fail/run",
                          "survival", "overhead", "wasted"},
                         {8, 4, 26, 26, 8, 8, 9, 7}, out);
  table.print_header();
  table.print_rule();
  for (const SweepCell& c : result.cells) {
    table.print_row({c.strategy, std::to_string(c.interval), c.process,
                     c.cluster, xp::format_fixed(c.mean_failures, 1),
                     xp::format_percent(c.survival_probability),
                     xp::format_percent(c.mean_overhead),
                     xp::format_fixed(c.mean_wasted, 1)});
  }
}

std::string sweep_csv(const SweepResult& result) {
  std::ostringstream out;
  out << "strategy,interval,process,cluster,repetitions,converged,survived,"
         "survival_probability,mean_failures,mean_overhead,mean_wasted\n";
  for (const SweepCell& c : result.cells) {
    out << c.strategy << ',' << c.interval << ',' << c.process << ','
        << c.cluster << ',' << c.repetitions << ',' << c.converged << ','
        << c.survived << ',' << format_g(c.survival_probability) << ','
        << format_g(c.mean_failures) << ',' << format_g(c.mean_overhead)
        << ',' << format_g(c.mean_wasted) << '\n';
  }
  return out.str();
}

} // namespace esrp
