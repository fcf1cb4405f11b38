#include "precond/jacobi.hpp"

#include <gtest/gtest.h>

#include "api/registry.hpp"
#include "common/error.hpp"
#include "precond/preconditioner.hpp"
#include "sparse/generators.hpp"

namespace esrp {
namespace {

TEST(Identity, ApplyIsCopy) {
  IdentityPreconditioner p(3);
  Vector z(3);
  p.apply(Vector{1, 2, 3}, z);
  EXPECT_EQ(z, (Vector{1, 2, 3}));
  EXPECT_EQ(p.dim(), 3);
  EXPECT_EQ(p.name(), "identity");
}

TEST(Identity, ActionMatrixIsIdentity) {
  IdentityPreconditioner p(4);
  ASSERT_NE(p.action_matrix(), nullptr);
  EXPECT_EQ(p.action_matrix()->nnz(), 4);
  EXPECT_DOUBLE_EQ(p.action_matrix()->at(2, 2), 1);
}

TEST(Jacobi, ApplyDividesByDiagonal) {
  const CsrMatrix a = laplace1d(4); // diagonal all 2
  JacobiPreconditioner p(a);
  Vector z(4);
  p.apply(Vector{2, 4, 6, 8}, z);
  EXPECT_EQ(z, (Vector{1, 2, 3, 4}));
}

TEST(Jacobi, ActionMatrixMatchesApply) {
  const CsrMatrix a = banded_spd(20, 3, 0.5, 21);
  JacobiPreconditioner p(a);
  const Vector r(20, 1);
  Vector z1(20), z2(20);
  p.apply(r, z1);
  ASSERT_NE(p.action_matrix(), nullptr);
  p.action_matrix()->spmv(r, z2);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_DOUBLE_EQ(z1[i], z2[i]);
}

TEST(Jacobi, RejectsNonPositiveDiagonal) {
  CsrMatrix a(2, 2, {0, 1, 2}, {0, 1}, {1.0, -3.0});
  EXPECT_THROW(JacobiPreconditioner{a}, Error);
}

TEST(Jacobi, RejectsMissingDiagonal) {
  // Row 1 has no stored diagonal -> treated as 0 -> rejected.
  CsrMatrix a(2, 2, {0, 1, 2}, {0, 0}, {1.0, 5.0});
  EXPECT_THROW(JacobiPreconditioner{a}, Error);
}

TEST(Jacobi, ApplyFlopsIsLinear) {
  const CsrMatrix a = laplace1d(100);
  JacobiPreconditioner p(a);
  EXPECT_DOUBLE_EQ(p.apply_flops(), 100);
}

// The distributed solvers charge each rank apply_local_flops of its range;
// the sequential ones charge apply_flops. For every preconditioner they can
// both run, the two cost models must agree: the whole range, and the ranks'
// ranges summed, cost one apply().
TEST(PrecondCostModel, LocalFlopsOverAllRowsEqualApplyFlops) {
  const CsrMatrix a = poisson2d(12, 12);
  const BlockRowPartition part(a.rows(), 4);
  SolveSpec spec;
  for (const std::string& key : precond_registry().keys()) {
    const PrecondEntry& entry = precond_registry().get(key);
    if (!entry.explicit_action) continue;
    SCOPED_TRACE(key);
    const auto single = entry.make(PrecondContext{a, nullptr, spec});
    EXPECT_EQ(single->apply_local_flops(0, single->dim()),
              single->apply_flops());
    const auto aligned = entry.make(PrecondContext{a, &part, spec});
    EXPECT_EQ(aligned->apply_local_flops(0, aligned->dim()),
              aligned->apply_flops());
    double by_rank = 0;
    for (rank_t s = 0; s < part.num_nodes(); ++s)
      by_rank += aligned->apply_local_flops(part.begin(s), part.end(s));
    EXPECT_EQ(by_rank, aligned->apply_flops());
  }
}

} // namespace
} // namespace esrp
