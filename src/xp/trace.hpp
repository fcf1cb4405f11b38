// Convergence-trace diagnostics: record the relative residual per iteration
// and render it as CSV or as a log-scale ASCII chart. Failure/rollback
// events show up as the characteristic jump-back in the residual curve —
// the visual counterpart of the paper's "trajectory" argument (§1.1: a
// state fully determines the trajectory; rollback replays part of it).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/observer.hpp"
#include "common/types.hpp"

namespace esrp::xp {

struct TracePoint {
  index_t iteration = 0;  ///< trajectory iteration number
  index_t step = 0;       ///< execution step (monotone, counts re-runs)
  real_t relres = 0;      ///< ||r||_2 / ||b||_2 at the top of the iteration
};

/// A SolverObserver: pass it as a solve's observer and every convergence
/// check (each executed body plus the final one) becomes a point.
class ConvergenceTrace final : public SolverObserver {
public:
  void record(index_t iteration, real_t relres);
  void on_iteration(index_t iteration, real_t relres) override {
    record(iteration, relres);
  }

  const std::vector<TracePoint>& points() const { return points_; }
  bool empty() const { return points_.empty(); }

  /// Execution steps where the recorded iteration number decreased (the
  /// rollback points caused by recoveries).
  std::vector<index_t> rollback_steps() const;

  /// "step,iteration,relres" lines with a header row.
  void write_csv(std::ostream& out) const;

  /// Log-scale ASCII chart, `width` columns by `height` rows; the x axis is
  /// the execution step, so rollbacks appear as upward jumps of the curve.
  std::string ascii_chart(int width = 72, int height = 14) const;

private:
  std::vector<TracePoint> points_;
};

} // namespace esrp::xp
