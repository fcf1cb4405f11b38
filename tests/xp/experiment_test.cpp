#include "xp/experiment.hpp"

#include <gtest/gtest.h>

#include "api/solve.hpp"
#include "common/error.hpp"
#include "sparse/generators.hpp"

namespace esrp::xp {
namespace {

TEST(MakeRhs, DeterministicAndNonDegenerate) {
  const CsrMatrix a = poisson2d(8, 8);
  const Vector b1 = make_rhs(a);
  const Vector b2 = make_rhs(a);
  EXPECT_EQ(b1, b2);
  EXPECT_GT(vec_norm2(b1), 0);
  // Not an all-constant vector (an eigenvector of the graph-Laplacian
  // generators, which would collapse CG to one iteration).
  EXPECT_GT(vec_dist2(b1, Vector(b1.size(), b1[0])), 0.1);
}

TEST(WorstCaseFailureIteration, IntervalContainingHalfC) {
  // C = 100, T = 20: C/2 = 50 lies in [40, 60); inject at 58.
  EXPECT_EQ(worst_case_failure_iteration(100, 20), 58);
  // C = 100, T = 50: C/2 = 50 lies in [50, 100); inject at 98.
  EXPECT_EQ(worst_case_failure_iteration(100, 50), 98);
}

TEST(WorstCaseFailureIteration, ClampedBelowC) {
  // C = 90, T = 100: the interval end would be beyond convergence.
  EXPECT_EQ(worst_case_failure_iteration(90, 100), 89);
}

TEST(WorstCaseFailureIteration, IntervalOneUsesHalfC) {
  EXPECT_EQ(worst_case_failure_iteration(100, 1), 50);
  EXPECT_EQ(worst_case_failure_iteration(1, 1), 1);
}

TEST(RelativeOverhead, BasicRatios) {
  EXPECT_NEAR(relative_overhead(1.1, 1.0), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(relative_overhead(1.0, 1.0), 0.0);
  EXPECT_THROW(relative_overhead(1.0, 0.0), Error);
}

TEST(CalibratedCost, InflatesTowardsPaperWorkload) {
  // Small matrix -> large scale factor; costs grow proportionally.
  const CsrMatrix small = poisson2d(16, 16); // ~1.2k nnz on 128 nodes
  const CostParams p = calibrated_cost(small, 128);
  const CostParams base;
  EXPECT_GT(p.gamma_s, base.gamma_s * 100);
  EXPECT_GT(p.beta_s, base.beta_s * 100);
  EXPECT_DOUBLE_EQ(p.alpha_s, 2e-6); // latency stays physical
}

TEST(CalibratedCost, NeverDeflatesBelowPhysical) {
  // A matrix already at paper scale per node: scale clamps at 1.
  const CsrMatrix big = banded_spd(4000, 300, 1.0, 1); // ~2.3M nnz, 1 node
  const CostParams p = calibrated_cost(big, 1);
  EXPECT_DOUBLE_EQ(p.gamma_s, 4.5e-9);
  EXPECT_DOUBLE_EQ(p.beta_s, 2e-10);
}

class ExperimentFixture : public ::testing::Test {
protected:
  ExperimentFixture() : a_(poisson2d(12, 12)), b_(make_rhs(a_)) {
    base_.matrix_data = &a_;
    base_.rhs = b_;
    base_.nodes = 8;
    base_.interval = 1;
  }
  CsrMatrix a_;
  Vector b_;
  SolveSpec base_; ///< the failure-free, non-resilient reference run
};

TEST_F(ExperimentFixture, ReferenceRunConvergesAndDefinesT0) {
  const SolveReport ref = solve(base_);
  ASSERT_TRUE(ref.converged);
  EXPECT_GT(ref.modeled_time, 0);
  EXPECT_GT(ref.iterations, 10);
}

TEST_F(ExperimentFixture, FailureFreeResilientRunCostsMoreThanReference) {
  const SolveReport ref = solve(base_);
  SolveSpec spec = base_;
  spec.strategy = Strategy::esrp;
  spec.interval = 1;
  spec.phi = 3;
  const SolveReport out = solve(spec);
  ASSERT_TRUE(out.converged);
  EXPECT_EQ(out.iterations, ref.iterations);
  EXPECT_GT(out.modeled_time, ref.modeled_time);
  EXPECT_DOUBLE_EQ(out.recovery_modeled_time(), 0);
  EXPECT_EQ(out.wasted_iterations(), 0);
}

TEST_F(ExperimentFixture, FailureRunReportsRecoveryAndWaste) {
  const SolveReport ref = solve(base_);
  SolveSpec spec = base_;
  spec.strategy = Strategy::esrp;
  spec.interval = 10;
  spec.phi = 2;
  spec.failures = {
      FailureEvent{worst_case_failure_iteration(ref.iterations, 10),
                   contiguous_ranks(4, 2, 8)}};
  const SolveReport out = solve(spec);
  ASSERT_TRUE(out.converged);
  EXPECT_FALSE(out.restarted_from_scratch());
  EXPECT_GT(out.recovery_modeled_time(), 0);
  EXPECT_GT(out.wasted_iterations(), 0);
  EXPECT_GT(out.modeled_time, ref.modeled_time);
}

TEST_F(ExperimentFixture, DeterministicAcrossRepetitions) {
  SolveSpec spec = base_;
  spec.strategy = Strategy::imcr;
  spec.interval = 10;
  spec.phi = 1;
  const SolveReport a = solve(spec);
  const SolveReport b = solve(spec);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_DOUBLE_EQ(a.modeled_time, b.modeled_time);
  EXPECT_DOUBLE_EQ(a.drift, b.drift);
}

} // namespace
} // namespace esrp::xp
