#include "pipelined/pipelined_pcg.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "precond/block_jacobi.hpp"
#include "precond/jacobi.hpp"
#include "solver/pcg.hpp"
#include "sparse/coo.hpp"
#include "sparse/dense.hpp"
#include "sparse/generators.hpp"

namespace esrp {
namespace {

TEST(PipelinedPcg, SolvesLaplaceToTolerance) {
  const CsrMatrix a = laplace1d(60);
  const Vector b(60, 1);
  Vector x(60, 0);
  const SolveOutcome res = pipelined_pcg_solve(a, b, x, nullptr);
  ASSERT_TRUE(res.converged);
  Vector ax(60);
  a.spmv(x, ax);
  EXPECT_LT(vec_dist2(ax, b) / vec_norm2(b), 1e-7);
}

TEST(PipelinedPcg, MatchesClassicPcgIterationCount) {
  // Mathematically equivalent recurrences: iteration counts agree up to a
  // small floating-point margin.
  const CsrMatrix a = poisson2d(15, 15);
  const Vector b(225, 1);
  Vector x1(225, 0), x2(225, 0);
  const SolveOutcome classic = pcg_solve(a, b, x1, nullptr);
  const SolveOutcome piped = pipelined_pcg_solve(a, b, x2, nullptr);
  ASSERT_TRUE(classic.converged && piped.converged);
  EXPECT_NEAR(static_cast<double>(piped.iterations),
              static_cast<double>(classic.iterations), 3);
  EXPECT_LT(vec_rel_diff_inf(x2, x1), 1e-6);
}

TEST(PipelinedPcg, MatchesDenseSolve) {
  const CsrMatrix a = banded_spd(30, 4, 0.6, 5);
  Rng rng(8);
  Vector b(30);
  for (auto& v : b) v = rng.uniform(-1, 1);
  Vector x(30, 0);
  PcgOptions opts;
  opts.rtol = 1e-12;
  const SolveOutcome res = pipelined_pcg_solve(a, b, x, nullptr, opts);
  ASSERT_TRUE(res.converged);
  const Vector x_ref = dense_solve(DenseMatrix::from_csr(a), b);
  for (std::size_t i = 0; i < 30; ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-8);
}

TEST(PipelinedPcg, PreconditioningReducesIterations) {
  const CsrMatrix a = diffusion3d_27pt(5, 5, 5, 1e3, 3);
  Rng rng(4);
  Vector b(static_cast<std::size_t>(a.rows()));
  for (auto& v : b) v = rng.uniform(-1, 1);
  BlockJacobiPreconditioner p(a, 10);
  Vector x1(b.size(), 0), x2(b.size(), 0);
  const SolveOutcome plain = pipelined_pcg_solve(a, b, x1, nullptr);
  const SolveOutcome prec = pipelined_pcg_solve(a, b, x2, &p);
  ASSERT_TRUE(plain.converged && prec.converged);
  EXPECT_LT(prec.iterations, plain.iterations);
}

TEST(PipelinedPcg, ZeroRhsGivesZeroSolution) {
  const CsrMatrix a = laplace1d(8);
  const Vector b(8, 0);
  Vector x(8, 3);
  const SolveOutcome res = pipelined_pcg_solve(a, b, x, nullptr);
  EXPECT_TRUE(res.converged);
  for (real_t v : x) EXPECT_DOUBLE_EQ(v, 0);
}

TEST(PipelinedPcg, MaxIterationCapHonored) {
  const CsrMatrix a = poisson2d(20, 20);
  const Vector b(400, 1);
  Vector x(400, 0);
  PcgOptions opts;
  opts.max_iterations = 4;
  const SolveOutcome res = pipelined_pcg_solve(a, b, x, nullptr, opts);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 4);
}

TEST(PipelinedPcg, IndefiniteMatrixRejected) {
  CooBuilder bb(2, 2);
  bb.add(0, 0, 1);
  bb.add(1, 1, -1);
  const CsrMatrix a = bb.to_csr();
  const Vector b{1, 1};
  Vector x(2, 0);
  EXPECT_THROW(pipelined_pcg_solve(a, b, x, nullptr), Error);
}

} // namespace
} // namespace esrp
