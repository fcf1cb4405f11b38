#include "precond/jacobi.hpp"

#include "common/error.hpp"

namespace esrp {

JacobiPreconditioner::JacobiPreconditioner(const CsrMatrix& a) {
  ESRP_CHECK_MSG(a.rows() == a.cols(), "Jacobi requires a square matrix");
  const index_t n = a.rows();
  const Vector d = a.diagonal();
  std::vector<index_t> row_ptr(static_cast<std::size_t>(n) + 1);
  std::vector<col_t> col_idx(static_cast<std::size_t>(n));
  std::vector<real_t> values(static_cast<std::size_t>(n));
  for (index_t i = 0; i <= n; ++i) row_ptr[static_cast<std::size_t>(i)] = i;
  for (index_t i = 0; i < n; ++i) {
    const real_t dii = d[static_cast<std::size_t>(i)];
    ESRP_CHECK_MSG(dii > 0, "non-positive diagonal entry at row " << i);
    col_idx[static_cast<std::size_t>(i)] = static_cast<col_t>(i); // i < n
    values[static_cast<std::size_t>(i)] = 1 / dii;
  }
  p_ = CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                 std::move(values));
}

void JacobiPreconditioner::apply(std::span<const real_t> r,
                                 std::span<real_t> z) const {
  const index_t n = p_.rows();
  ESRP_CHECK(static_cast<index_t>(r.size()) == n && r.size() == z.size());
  const auto vals = p_.values();
  for (index_t i = 0; i < n; ++i)
    z[static_cast<std::size_t>(i)] = vals[static_cast<std::size_t>(i)] *
                                     r[static_cast<std::size_t>(i)];
}

} // namespace esrp
