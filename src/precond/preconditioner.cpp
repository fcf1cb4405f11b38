#include "precond/preconditioner.hpp"

#include "common/error.hpp"

namespace esrp {

namespace {

/// The default implementations' action matrix.
const CsrMatrix& require_action(const Preconditioner& precond) {
  const CsrMatrix* p = precond.action_matrix();
  ESRP_CHECK_MSG(p != nullptr, "preconditioner " << precond.name()
                                   << " has no explicit action matrix; the "
                                      "distributed solvers need one (e.g. "
                                      "block Jacobi)");
  return *p;
}

} // namespace

void Preconditioner::apply_local(index_t lo, index_t hi,
                                 std::span<const real_t> r,
                                 std::span<real_t> z) const {
  const CsrMatrix& p = require_action(*this);
  ESRP_CHECK(0 <= lo && lo <= hi && hi <= p.rows() && p.rows() == p.cols());
  ESRP_CHECK(static_cast<index_t>(r.size()) == hi - lo && r.size() == z.size());
  const auto row_ptr = p.row_ptr();
  const auto col_idx = p.col_idx();
  const auto vals = p.values();
  for (index_t i = lo; i < hi; ++i) {
    const auto b = static_cast<std::size_t>(row_ptr[i]);
    const auto e = static_cast<std::size_t>(row_ptr[i + 1]);
    ESRP_CHECK_MSG(b == e || (col_idx[b] >= lo && col_idx[e - 1] < hi),
                   "preconditioner action row " << i << " couples outside ["
                                                << lo << ", " << hi << ")");
    real_t acc = 0;
    for (std::size_t k = b; k < e; ++k)
      acc += vals[k] * r[static_cast<std::size_t>(col_idx[k] - lo)];
    z[static_cast<std::size_t>(i - lo)] = acc;
  }
}

double Preconditioner::apply_local_flops(index_t lo, index_t hi) const {
  const CsrMatrix& p = require_action(*this);
  ESRP_CHECK(0 <= lo && lo <= hi && hi <= p.rows());
  const auto row_ptr = p.row_ptr();
  return static_cast<double>(2 * (row_ptr[hi] - row_ptr[lo]));
}

index_t Preconditioner::first_row_coupled_outside(index_t lo,
                                                  index_t hi) const {
  const CsrMatrix& p = require_action(*this);
  ESRP_CHECK(0 <= lo && lo <= hi && hi <= p.rows());
  for (index_t i = lo; i < hi; ++i) {
    const auto cols = p.row_cols(i);
    if (!cols.empty() && (cols.front() < lo || cols.back() >= hi)) return i;
  }
  return hi;
}

void check_node_local(const Preconditioner& precond,
                      const BlockRowPartition& part) {
  ESRP_CHECK(precond.dim() == part.global_size());
  for (rank_t s = 0; s < part.num_nodes(); ++s) {
    const index_t i = precond.first_row_coupled_outside(part.begin(s),
                                                        part.end(s));
    ESRP_CHECK_MSG(i == part.end(s),
                   "preconditioner action row "
                       << i << " crosses the boundary of node " << s
                       << " — use node-aligned block Jacobi");
  }
}

} // namespace esrp
