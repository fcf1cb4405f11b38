#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "precond/ic0.hpp"
#include "precond/ssor.hpp"
#include "solver/pcg.hpp"
#include "sparse/dense.hpp"
#include "sparse/generators.hpp"

namespace esrp {
namespace {

TEST(Ssor, RejectsInvalidOmega) {
  const CsrMatrix a = laplace1d(4);
  EXPECT_THROW(SsorPreconditioner(a, 0.0), Error);
  EXPECT_THROW(SsorPreconditioner(a, 2.0), Error);
  EXPECT_NO_THROW(SsorPreconditioner(a, 1.5));
}

TEST(Ssor, ApplyIsSymmetricOperator) {
  // A symmetric preconditioner action satisfies <P u, v> = <u, P v>,
  // required for PCG.
  const CsrMatrix a = banded_spd(15, 3, 0.7, 10);
  SsorPreconditioner p(a, 1.2);
  Rng rng(1);
  Vector u(15), v(15), pu(15), pv(15);
  for (auto& x : u) x = rng.uniform(-1, 1);
  for (auto& x : v) x = rng.uniform(-1, 1);
  p.apply(u, pu);
  p.apply(v, pv);
  EXPECT_NEAR(vec_dot(pu, v), vec_dot(u, pv), 1e-10);
}

TEST(Ssor, NoActionMatrix) {
  const CsrMatrix a = laplace1d(4);
  SsorPreconditioner p(a);
  EXPECT_EQ(p.action_matrix(), nullptr);
}

TEST(Ssor, AcceleratesPcgOnLaplacian) {
  const CsrMatrix a = laplace1d(200);
  const Vector b(200, 1);
  SsorPreconditioner p(a, 1.5);
  Vector x1(200, 0), x2(200, 0);
  const SolveOutcome plain = pcg_solve(a, b, x1, nullptr);
  const SolveOutcome ssor = pcg_solve(a, b, x2, &p);
  ASSERT_TRUE(plain.converged);
  ASSERT_TRUE(ssor.converged);
  EXPECT_LT(ssor.iterations, plain.iterations);
}

TEST(Ic0, FactorOfTridiagonalIsExact) {
  // IC(0) on a tridiagonal SPD matrix has no dropped fill: L L^T = A.
  const CsrMatrix a = laplace1d(12);
  Ic0Preconditioner p(a);
  const DenseMatrix l = DenseMatrix::from_csr(p.factor());
  const DenseMatrix llt = l.multiply(l.transpose());
  EXPECT_LT(llt.max_abs_diff(DenseMatrix::from_csr(a)), 1e-12);
}

TEST(Ic0, ApplyInvertsExactFactorization) {
  const CsrMatrix a = laplace1d(16);
  Ic0Preconditioner p(a);
  Rng rng(3);
  Vector r(16), z(16), az(16);
  for (auto& v : r) v = rng.uniform(-1, 1);
  p.apply(r, z);
  a.spmv(z, az); // exact factorization: A z = r
  for (std::size_t i = 0; i < 16; ++i) EXPECT_NEAR(az[i], r[i], 1e-10);
}

TEST(Ic0, SymmetricOperator) {
  const CsrMatrix a = banded_spd(20, 4, 0.5, 2);
  Ic0Preconditioner p(a);
  Rng rng(5);
  Vector u(20), v(20), pu(20), pv(20);
  for (auto& x : u) x = rng.uniform(-1, 1);
  for (auto& x : v) x = rng.uniform(-1, 1);
  p.apply(u, pu);
  p.apply(v, pv);
  EXPECT_NEAR(vec_dot(pu, v), vec_dot(u, pv), 1e-10);
}

TEST(Ic0, StrongestOfTheSimplePreconditioners) {
  // On the Poisson problem IC(0) should beat plain CG noticeably — the
  // "more appropriate preconditioner" direction of the paper's conclusions.
  const CsrMatrix a = poisson2d(20, 20);
  const Vector b(400, 1);
  Ic0Preconditioner p(a);
  Vector x1(400, 0), x2(400, 0);
  const SolveOutcome plain = pcg_solve(a, b, x1, nullptr);
  const SolveOutcome ic = pcg_solve(a, b, x2, &p);
  ASSERT_TRUE(plain.converged && ic.converged);
  EXPECT_LT(ic.iterations, plain.iterations * 0.7);
}

TEST(Ic0, DiagonalShiftRescuesBreakdown) {
  // Construct a symmetric matrix that is SPD but IC(0)-fragile; with a large
  // shift the factorization must succeed.
  const CsrMatrix a = banded_spd(30, 6, 0.9, 17);
  EXPECT_NO_THROW(Ic0Preconditioner(a, 0.5));
}

} // namespace
} // namespace esrp
