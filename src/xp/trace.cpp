#include "xp/trace.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "common/error.hpp"

namespace esrp::xp {

void ConvergenceTrace::record(index_t iteration, real_t relres) {
  ESRP_CHECK(relres >= 0);
  TracePoint p;
  p.iteration = iteration;
  p.step = static_cast<index_t>(points_.size());
  p.relres = relres;
  points_.push_back(p);
}

std::vector<index_t> ConvergenceTrace::rollback_steps() const {
  std::vector<index_t> out;
  out.reserve(points_.size());
  for (std::size_t k = 1; k < points_.size(); ++k) {
    if (points_[k].iteration < points_[k - 1].iteration)
      out.push_back(points_[k].step);
  }
  return out;
}

void ConvergenceTrace::write_csv(std::ostream& out) const {
  out << "step,iteration,relres\n";
  out.precision(17);
  for (const TracePoint& p : points_)
    out << p.step << ',' << p.iteration << ',' << p.relres << '\n';
}

std::string ConvergenceTrace::ascii_chart(int width, int height) const {
  ESRP_CHECK(width >= 8 && height >= 4);
  if (points_.empty()) return "(empty trace)\n";

  // Log range of the positive residuals.
  double lo = 0, hi = 0;
  bool first = true;
  for (const TracePoint& p : points_) {
    if (p.relres <= 0) continue;
    const double v = std::log10(p.relres);
    if (first) {
      lo = hi = v;
      first = false;
    } else {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  if (first) return "(all residuals zero)\n";
  if (hi - lo < 1e-12) hi = lo + 1;

  std::vector<std::string> rows(static_cast<std::size_t>(height),
                                std::string(static_cast<std::size_t>(width), ' '));
  const auto n = static_cast<double>(points_.size());
  for (const TracePoint& p : points_) {
    if (p.relres <= 0) continue;
    const int col = std::min(width - 1,
                             static_cast<int>(static_cast<double>(p.step) /
                                              n * width));
    const double frac = (std::log10(p.relres) - lo) / (hi - lo);
    const int row = std::min(height - 1,
                             static_cast<int>((1.0 - frac) * (height - 1)));
    rows[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)] = '*';
  }

  std::string out;
  char label[64];
  std::snprintf(label, sizeof label, "log10(relres): %.1f (top) .. %.1f\n",
                hi, lo);
  out += label;
  for (const std::string& row : rows) {
    out += '|';
    out += row;
    out += '\n';
  }
  out += '+';
  out.append(static_cast<std::size_t>(width), '-');
  out += "> step\n";
  return out;
}

} // namespace esrp::xp
