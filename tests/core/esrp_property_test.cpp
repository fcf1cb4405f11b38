// Parameterized property sweep over the full resilience configuration space:
// for every (matrix, strategy, T, phi, failure placement) combination the
// solver must converge to the correct solution on the reference trajectory,
// and the recovery bookkeeping must satisfy the protocol invariants.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/metrics.hpp"
#include "core/resilient_pcg.hpp"
#include "precond/block_jacobi.hpp"
#include "sparse/generators.hpp"
#include "xp/experiment.hpp"

namespace esrp {
namespace {

struct PropertyCase {
  const char* matrix;
  Strategy strategy;
  index_t interval;
  int phi;
  int psi;             // failures injected (0 = failure-free)
  rank_t fail_start;
  double fail_frac;    // failure iteration as a fraction of C
};

std::string case_name(const ::testing::TestParamInfo<PropertyCase>& info) {
  const PropertyCase& c = info.param;
  std::string s = std::string(c.matrix) + "_" + to_string(c.strategy) + "_T" +
                  std::to_string(c.interval) + "_phi" + std::to_string(c.phi);
  if (c.psi > 0)
    s += "_psi" + std::to_string(c.psi) + "_at" +
         std::to_string(static_cast<int>(c.fail_frac * 100)) + "pct_r" +
         std::to_string(c.fail_start);
  else
    s += "_nofail";
  return s;
}

class EsrpProperty : public ::testing::TestWithParam<PropertyCase> {
protected:
  static constexpr rank_t kNodes = 12; // must exceed the largest phi (8)

  static CsrMatrix make_matrix(const std::string& name) {
    if (name == "poisson2d") return poisson2d(12, 12);
    if (name == "diffusion") return diffusion3d_27pt(5, 5, 5, 100, 42);
    if (name == "elasticity") return elasticity3d(4, 4, 3, 20, 42);
    if (name == "banded") return banded_spd(160, 7, 0.35, 42);
    throw Error("unknown matrix " + name);
  }
};

TEST_P(EsrpProperty, ConvergesOnReferenceTrajectoryWithSaneBookkeeping) {
  const PropertyCase& c = GetParam();
  const CsrMatrix a = make_matrix(c.matrix);
  const Vector b = xp::make_rhs(a);
  const BlockRowPartition part(a.rows(), kNodes);
  BlockJacobiPreconditioner precond(a, part, 10);

  // Reference run.
  SimCluster ref_cluster(part);
  ResilienceOptions ref_opts;
  ResilientPcg ref_solver(a, precond, ref_cluster, ref_opts);
  const SolveOutcome ref = ref_solver.solve(b);
  ASSERT_TRUE(ref.converged);
  const index_t C = ref.iterations;

  ResilienceOptions opts;
  opts.strategy = c.strategy;
  opts.interval = c.interval;
  opts.phi = c.phi;
  if (c.psi > 0) {
    opts.extra_failures.push_back(FailureEvent{
        std::max<index_t>(
            1, static_cast<index_t>(c.fail_frac * static_cast<double>(C))),
        contiguous_ranks(c.fail_start, static_cast<rank_t>(c.psi), kNodes)});
    ASSERT_LT(opts.extra_failures[0].iteration, C);
  }

  SimCluster cluster(part);
  ResilientPcg solver(a, precond, cluster, opts);
  const SolveOutcome res = solver.solve(b);

  ASSERT_TRUE(res.converged);
  // The trajectory (and hence the iteration count) is preserved by every
  // recovery path, including a scratch restart. ESRP reconstruction is
  // exact only to the 1e-14 inner-solve tolerance, so convergence may land
  // within one iteration of the reference.
  EXPECT_NEAR(static_cast<double>(res.iterations),
              static_cast<double>(C), 1);
  // True residual consistent with the convergence tolerance.
  EXPECT_LT(true_relative_residual(a, b, res.x), 1e-6);

  if (c.psi == 0) {
    EXPECT_TRUE(res.recoveries.empty());
    EXPECT_EQ(res.executed_iterations, res.iterations);
  } else {
    ASSERT_EQ(res.recoveries.size(), 1u);
    const RecoveryRecord& rec = res.recoveries[0];
    EXPECT_EQ(rec.failed_at, opts.extra_failures[0].iteration);
    EXPECT_LE(rec.restored_to, rec.failed_at);
    EXPECT_EQ(rec.wasted_iterations, rec.failed_at - rec.restored_to);
    EXPECT_GE(rec.modeled_time, 0);
    if (!rec.restarted_from_scratch) {
      // Rollback distance is bounded by one full stage cycle: the previous
      // stage ends at (m-1)T + 1 and the failure happens before the next
      // stage completes at (m+1)T + 1.
      EXPECT_LE(rec.wasted_iterations, 2 * c.interval);
      // psi <= phi failures must always be recoverable once a stage exists.
      if (c.psi <= c.phi && rec.restored_to == 0) {
        EXPECT_LE(rec.failed_at, c.interval + 1);
      }
    }
    EXPECT_EQ(res.executed_iterations,
              res.iterations + rec.wasted_iterations + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FailureFree, EsrpProperty,
    ::testing::Values(
        PropertyCase{"poisson2d", Strategy::esrp, 1, 1, 0, 0, 0},
        PropertyCase{"poisson2d", Strategy::esrp, 1, 8, 0, 0, 0},
        PropertyCase{"poisson2d", Strategy::esrp, 5, 3, 0, 0, 0},
        PropertyCase{"poisson2d", Strategy::imcr, 5, 3, 0, 0, 0},
        PropertyCase{"diffusion", Strategy::esrp, 10, 2, 0, 0, 0},
        PropertyCase{"elasticity", Strategy::esrp, 4, 2, 0, 0, 0},
        PropertyCase{"banded", Strategy::esrp, 7, 3, 0, 0, 0},
        PropertyCase{"banded", Strategy::imcr, 7, 3, 0, 0, 0}),
    case_name);

INSTANTIATE_TEST_SUITE_P(
    WithFailures, EsrpProperty,
    ::testing::Values(
        // ESR (T = 1), single and multiple failures, both locations.
        PropertyCase{"poisson2d", Strategy::esrp, 1, 1, 1, 0, 0.5},
        PropertyCase{"poisson2d", Strategy::esrp, 1, 3, 3, 4, 0.5},
        PropertyCase{"diffusion", Strategy::esrp, 1, 3, 3, 0, 0.4},
        // ESRP with periodic storage.
        PropertyCase{"poisson2d", Strategy::esrp, 5, 1, 1, 0, 0.5},
        PropertyCase{"poisson2d", Strategy::esrp, 5, 3, 3, 4, 0.6},
        PropertyCase{"diffusion", Strategy::esrp, 10, 2, 2, 4, 0.5},
        PropertyCase{"elasticity", Strategy::esrp, 4, 2, 2, 0, 0.5},
        PropertyCase{"banded", Strategy::esrp, 7, 3, 3, 2, 0.7},
        // Failure block wrapping around the ring boundary.
        PropertyCase{"poisson2d", Strategy::esrp, 5, 3, 3, 6, 0.5},
        // IMCR grid.
        PropertyCase{"poisson2d", Strategy::imcr, 5, 1, 1, 0, 0.5},
        PropertyCase{"poisson2d", Strategy::imcr, 5, 3, 3, 4, 0.5},
        PropertyCase{"diffusion", Strategy::imcr, 10, 2, 2, 0, 0.5},
        PropertyCase{"banded", Strategy::imcr, 7, 3, 3, 6, 0.4},
        // Over-subscribed failures (psi > phi): restart path.
        PropertyCase{"poisson2d", Strategy::esrp, 5, 1, 2, 0, 0.5},
        PropertyCase{"poisson2d", Strategy::imcr, 5, 1, 2, 0, 0.5},
        // Very early and very late failures.
        PropertyCase{"poisson2d", Strategy::esrp, 5, 2, 2, 0, 0.05},
        PropertyCase{"poisson2d", Strategy::esrp, 5, 2, 2, 0, 0.95},
        PropertyCase{"poisson2d", Strategy::imcr, 5, 2, 2, 0, 0.95}),
    case_name);

} // namespace
} // namespace esrp
