#include "precond/preconditioner.hpp"

#include "common/error.hpp"

namespace esrp {

void Preconditioner::apply_local(index_t lo, index_t hi,
                                 std::span<const real_t> r,
                                 std::span<real_t> z) const {
  const CsrMatrix* p = action_matrix();
  ESRP_CHECK_MSG(p != nullptr, "apply_local requires an action matrix");
  spmv_rows_in_range(*p, lo, hi, lo, hi, r, z);
}

void spmv_rows_in_range(const CsrMatrix& p, index_t lo, index_t hi,
                        index_t row_begin, index_t row_end,
                        std::span<const real_t> r, std::span<real_t> z) {
  ESRP_CHECK(0 <= lo && lo <= row_begin && row_begin <= row_end &&
             row_end <= hi && hi <= p.rows() && p.rows() == p.cols());
  ESRP_CHECK(static_cast<index_t>(r.size()) == hi - lo && r.size() == z.size());
  const auto row_ptr = p.row_ptr();
  const auto col_idx = p.col_idx();
  const auto vals = p.values();
  for (index_t i = row_begin; i < row_end; ++i) {
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

void check_node_local(const Preconditioner& precond,
                      const BlockRowPartition& part) {
  const CsrMatrix* p = precond.action_matrix();
  ESRP_CHECK_MSG(p != nullptr, "the distributed solvers require a "
                               "preconditioner with an explicit action "
                               "matrix (e.g. block Jacobi)");
  ESRP_CHECK(p->rows() == part.global_size());
  for (rank_t s = 0; s < part.num_nodes(); ++s) {
    const index_t lo = part.begin(s), hi = part.end(s);
    for (index_t i = lo; i < hi; ++i) {
      const auto cols = p->row_cols(i);
      ESRP_CHECK_MSG(cols.empty() || (cols.front() >= lo && cols.back() < hi),
                     "preconditioner action row "
                         << i << " crosses the boundary of node " << s
                         << " — use node-aligned block Jacobi");
    }
  }
}

} // namespace esrp
