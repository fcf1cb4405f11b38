#include "xp/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "precond/block_jacobi.hpp"
#include "sparse/generators.hpp"
#include "xp/experiment.hpp"

namespace esrp::xp {
namespace {

TEST(ConvergenceTrace, RecordsStepsMonotonically) {
  ConvergenceTrace t;
  t.record(0, 1.0);
  t.record(1, 0.5);
  t.record(2, 0.25);
  ASSERT_EQ(t.points().size(), 3u);
  EXPECT_EQ(t.points()[2].step, 2);
  EXPECT_EQ(t.points()[2].iteration, 2);
  EXPECT_DOUBLE_EQ(t.points()[1].relres, 0.5);
}

TEST(ConvergenceTrace, NegativeResidualRejected) {
  ConvergenceTrace t;
  EXPECT_THROW(t.record(0, -1.0), Error);
}

TEST(ConvergenceTrace, RollbackStepsDetectIterationDecrease) {
  ConvergenceTrace t;
  for (index_t j : {0, 1, 2, 3, 1, 2, 3, 4}) t.record(j, 0.1);
  const auto rb = t.rollback_steps();
  ASSERT_EQ(rb.size(), 1u);
  EXPECT_EQ(rb[0], 4); // the step where the iteration number went 3 -> 1
}

TEST(ConvergenceTrace, CsvHasHeaderAndOneLinePerPoint) {
  ConvergenceTrace t;
  t.record(0, 1.0);
  t.record(1, 1e-3);
  std::ostringstream os;
  t.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("step,iteration,relres"), std::string::npos);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
  EXPECT_NE(csv.find("1,1,0.001"), std::string::npos);
}

TEST(ConvergenceTrace, AsciiChartHasRequestedShape) {
  ConvergenceTrace t;
  for (int k = 0; k < 50; ++k)
    t.record(k, std::pow(10.0, -k / 10.0));
  const std::string chart = t.ascii_chart(40, 8);
  // 1 label + 8 rows + 1 axis = 10 lines.
  EXPECT_EQ(std::count(chart.begin(), chart.end(), '\n'), 10);
  EXPECT_NE(chart.find('*'), std::string::npos);
  EXPECT_NE(chart.find("log10(relres)"), std::string::npos);
}

TEST(ConvergenceTrace, EmptyTraceChartIsSafe) {
  ConvergenceTrace t;
  EXPECT_EQ(t.ascii_chart(), "(empty trace)\n");
  EXPECT_THROW(t.ascii_chart(2, 2), Error);
}

TEST(ConvergenceTrace, HookCapturesResilientSolveWithRollback) {
  const CsrMatrix a = poisson2d(12, 12);
  const Vector b = make_rhs(a);
  const BlockRowPartition part(a.rows(), 8);
  SimCluster cluster(part);
  BlockJacobiPreconditioner precond(a, part, 10);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 10;
  opts.phi = 2;
  opts.extra_failures.push_back(FailureEvent{18, {1, 2}});
  ResilientPcg solver(a, precond, cluster, opts);

  ConvergenceTrace trace;
  solver.set_iteration_hook(trace.hook(vec_norm2(b)));
  const SolveOutcome res = solver.solve(b);
  ASSERT_TRUE(res.converged);
  // One point per executed iteration body.
  EXPECT_EQ(static_cast<index_t>(trace.points().size()),
            res.executed_iterations);
  // Exactly one rollback, at the recovery point.
  const auto rb = trace.rollback_steps();
  ASSERT_EQ(rb.size(), 1u);
  // Residuals start at 1 and end below the tolerance.
  EXPECT_NEAR(trace.points().front().relres, 1.0, 1e-12);
  EXPECT_LT(trace.points().back().relres, 1e-6);
}

} // namespace
} // namespace esrp::xp
