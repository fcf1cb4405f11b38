#include "solver/pcg.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "precond/block_jacobi.hpp"
#include "precond/jacobi.hpp"
#include "sparse/coo.hpp"
#include "sparse/dense.hpp"
#include "sparse/generators.hpp"

namespace esrp {
namespace {

TEST(Pcg, SolvesLaplace1dToTolerance) {
  const CsrMatrix a = laplace1d(50);
  const Vector b(50, 1);
  Vector x(50, 0);
  const SolveOutcome res = pcg_solve(a, b, x, nullptr);
  EXPECT_TRUE(res.converged);
  Vector ax(50);
  a.spmv(x, ax);
  EXPECT_LT(vec_dist2(ax, b) / vec_norm2(b), 1e-7);
}

TEST(Pcg, MatchesDenseSolve) {
  const CsrMatrix a = banded_spd(25, 4, 0.6, 31);
  Rng rng(2);
  Vector b(25);
  for (auto& v : b) v = rng.uniform(-1, 1);
  Vector x(25, 0);
  PcgOptions opts;
  opts.rtol = 1e-12;
  const SolveOutcome res = pcg_solve(a, b, x, nullptr, opts);
  ASSERT_TRUE(res.converged);
  const Vector x_ref = dense_solve(DenseMatrix::from_csr(a), b);
  for (std::size_t i = 0; i < 25; ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-8);
}

TEST(Pcg, ExactArithmeticConvergesWithinDimensionIterations) {
  const CsrMatrix a = laplace1d(30);
  const Vector b(30, 1);
  Vector x(30, 0);
  const SolveOutcome res = pcg_solve(a, b, x, nullptr);
  // CG terminates in <= n steps in exact arithmetic; float drift allows a
  // small margin.
  EXPECT_LE(res.iterations, 35);
}

TEST(Pcg, ZeroRhsGivesZeroSolution) {
  const CsrMatrix a = laplace1d(10);
  const Vector b(10, 0);
  Vector x(10, 5); // nonzero initial guess must be wiped
  const SolveOutcome res = pcg_solve(a, b, x, nullptr);
  EXPECT_TRUE(res.converged);
  for (real_t v : x) EXPECT_DOUBLE_EQ(v, 0);
}

TEST(Pcg, WarmStartFromExactSolutionTakesZeroIterations) {
  const CsrMatrix a = laplace1d(20);
  Vector x_true(20);
  for (std::size_t i = 0; i < 20; ++i) x_true[i] = static_cast<real_t>(i);
  Vector b(20);
  a.spmv(x_true, b);
  Vector x = x_true;
  const SolveOutcome res = pcg_solve(a, b, x, nullptr);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
}

TEST(Pcg, JacobiPreconditionerPreservesSolution) {
  const CsrMatrix a = banded_spd(40, 5, 0.5, 7);
  const Vector b(40, 1);
  JacobiPreconditioner p(a);
  Vector x1(40, 0), x2(40, 0);
  PcgOptions opts;
  opts.rtol = 1e-10;
  ASSERT_TRUE(pcg_solve(a, b, x1, nullptr, opts).converged);
  ASSERT_TRUE(pcg_solve(a, b, x2, &p, opts).converged);
  for (std::size_t i = 0; i < 40; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-7);
}

TEST(Pcg, BlockJacobiReducesIterationsOnIllConditionedProblem) {
  const CsrMatrix a = diffusion3d_27pt(6, 6, 6, 1e3, 12);
  // A random right-hand side: the all-ones vector is an eigenvector of the
  // shifted graph Laplacian and would make plain CG converge in one step.
  Rng rhs_rng(99);
  Vector b(static_cast<std::size_t>(a.rows()));
  for (auto& v : b) v = rhs_rng.uniform(-1, 1);
  BlockJacobiPreconditioner p(a, 10);
  Vector x1(b.size(), 0), x2(b.size(), 0);
  const SolveOutcome plain = pcg_solve(a, b, x1, nullptr);
  const SolveOutcome prec = pcg_solve(a, b, x2, &p);
  ASSERT_TRUE(plain.converged && prec.converged);
  EXPECT_LT(prec.iterations, plain.iterations);
}

TEST(Pcg, MaxIterationsCapIsHonored) {
  const CsrMatrix a = poisson2d(30, 30);
  const Vector b(900, 1);
  Vector x(900, 0);
  PcgOptions opts;
  opts.max_iterations = 5;
  const SolveOutcome res = pcg_solve(a, b, x, nullptr, opts);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 5);
  EXPECT_GT(res.final_relres, 0);
}

TEST(Pcg, TightToleranceReachesNearMachinePrecision) {
  const CsrMatrix a = laplace1d(60);
  const Vector b(60, 1);
  Vector x(60, 0);
  PcgOptions opts;
  opts.rtol = 1e-14; // the paper's inner-reconstruction tolerance
  const SolveOutcome res = pcg_solve(a, b, x, nullptr, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.final_relres, 1e-14);
}

TEST(Pcg, ObserverSeesMonotoneIterationNumbers) {
  const CsrMatrix a = laplace1d(30);
  const Vector b(30, 1);
  Vector x(30, 0);
  struct Monotone final : SolverObserver {
    void on_iteration(index_t j, real_t relres) override {
      monotone = monotone && (j == last + 1) && relres >= 0;
      last = j;
    }
    index_t last = -1;
    bool monotone = true;
  } obs;
  pcg_solve(a, b, x, nullptr, {}, &obs);
  EXPECT_TRUE(obs.monotone);
  EXPECT_GE(obs.last, 0);
}

TEST(Pcg, FlopsAccountingIsPositiveAndGrowsWithIterations) {
  const CsrMatrix a = laplace1d(40);
  const Vector b(40, 1);
  Vector x1(40, 0), x2(40, 0);
  PcgOptions few, many;
  few.max_iterations = 2;
  many.max_iterations = 20;
  const SolveOutcome r1 = pcg_solve(a, b, x1, nullptr, few);
  const SolveOutcome r2 = pcg_solve(a, b, x2, nullptr, many);
  EXPECT_GT(r1.flops, 0);
  EXPECT_GT(r2.flops, r1.flops);
}

TEST(Pcg, NonSpdMatrixIsRejectedMidSolve) {
  // Symmetric indefinite: CG must detect p^T A p <= 0.
  CooBuilder bb(2, 2);
  bb.add(0, 0, 1);
  bb.add(1, 1, -1);
  const CsrMatrix a = bb.to_csr();
  const Vector b{0, 1};
  Vector x(2, 0);
  EXPECT_THROW(pcg_solve(a, b, x, nullptr), Error);
}

TEST(Pcg, SizeMismatchThrows) {
  const CsrMatrix a = laplace1d(4);
  const Vector b(3, 1);
  Vector x(4, 0);
  EXPECT_THROW(pcg_solve(a, b, x, nullptr), Error);
}

} // namespace
} // namespace esrp
