#include "xp/experiment.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace esrp::xp {

CostParams calibrated_cost(const CsrMatrix& a, rank_t num_nodes) {
  // Paper scale: Emilia_923 has 40.4M nnz and audikw_1 77.7M nnz on 128
  // nodes — on the order of 460k nnz per node.
  constexpr double kPaperLocalNnz = 460e3;
  const double local_nnz =
      static_cast<double>(a.nnz()) / static_cast<double>(num_nodes);
  const double scale = std::max(1.0, kPaperLocalNnz / local_nnz);
  CostParams p;
  // 4.5e-9 s/flop reproduces the paper's ~1.4 ms per Emilia_923 iteration
  // (memory-bound sparse kernels on 2014-era nodes, not peak flops).
  p.gamma_s = 4.5e-9 * scale;
  p.beta_s = 2.0e-10 * scale;
  p.alpha_s = 2.0e-6;
  return p;
}

Vector make_rhs(const CsrMatrix& a) {
  Rng rng(0x5EED);
  Vector b(static_cast<std::size_t>(a.rows()));
  for (auto& v : b) v = rng.uniform(-1, 1);
  return b;
}

index_t worst_case_failure_iteration(index_t c, index_t interval) {
  ESRP_CHECK(c > 0 && interval >= 1);
  if (interval == 1) return std::max<index_t>(1, c / 2);
  const index_t m = (c / 2) / interval; // interval [mT, (m+1)T) contains C/2
  index_t it = (m + 1) * interval - 2;
  it = std::max<index_t>(it, 1);
  it = std::min<index_t>(it, c - 1);
  return it;
}

double relative_overhead(double t, double t0) {
  ESRP_CHECK(t0 > 0);
  return (t - t0) / t0;
}

} // namespace esrp::xp
