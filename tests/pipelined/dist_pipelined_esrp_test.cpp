// Exact state reconstruction on the distributed pipelined solver — the
// reference [16] scheme carried by the solver-agnostic resilience engine.
// Recovery exactness is measured against the failure-free trajectory: the
// reconstruction repairs the eight recurrence vectors to inner-solve
// accuracy (1e-14), so a recovered run must converge in the same number of
// trajectory iterations with a solution within a pinned tolerance.
#include <gtest/gtest.h>

#include "../precond/matrix_form_counter.hpp"
#include "api/solve.hpp"
#include "common/error.hpp"
#include "core/metrics.hpp"
#include "pipelined/dist_pipelined_pcg.hpp"
#include "precond/block_jacobi.hpp"
#include "sparse/generators.hpp"
#include "xp/experiment.hpp"

namespace esrp {
namespace {

constexpr real_t kRecoveryTol = 1e-9; ///< x deviation from failure-free run

struct System {
  CsrMatrix a;
  Vector b;
  BlockRowPartition part;
  System(CsrMatrix m, rank_t nodes)
      : a(std::move(m)), b(xp::make_rhs(a)), part(a.rows(), nodes) {}
};

SolveOutcome run(System& s, const ResilienceOptions& opts,
                 SimCluster* cluster_out = nullptr) {
  SimCluster cluster(s.part);
  BlockJacobiPreconditioner precond(s.a, s.part, 10);
  DistPipelinedPcg solver(s.a, precond, cluster, opts);
  SolveOutcome res = solver.solve(s.b);
  if (cluster_out) *cluster_out = cluster;
  return res;
}

TEST(DistPipelinedEsrp, FailureFreeRunFollowsSameTrajectory) {
  System s(poisson2d(12, 12), 8);
  const SolveOutcome ref = run(s, ResilienceOptions{});

  for (index_t T : {1, 5, 20}) {
    ResilienceOptions opts;
    opts.strategy = Strategy::esrp;
    opts.interval = T;
    opts.phi = 2;
    const SolveOutcome res = run(s, opts);
    ASSERT_TRUE(res.converged) << "T=" << T;
    EXPECT_EQ(res.iterations, ref.iterations);
    // Storage stages only disseminate copies; the arithmetic is untouched.
    EXPECT_EQ(res.x, ref.x);
  }
}

TEST(DistPipelinedEsrp, RecoversToFailureFreeTrajectory) {
  System s(poisson2d(12, 12), 8);
  const SolveOutcome ref = run(s, ResilienceOptions{});
  ASSERT_TRUE(ref.converged);
  ASSERT_GT(ref.iterations, 25);

  for (index_t T : {1, 5, 10}) {
    ResilienceOptions opts;
    opts.strategy = Strategy::esrp;
    opts.interval = T;
    opts.phi = 2;
    opts.extra_failures.push_back(FailureEvent{17, {2, 3}});
    const SolveOutcome res = run(s, opts);
    ASSERT_TRUE(res.converged) << "T=" << T;
    ASSERT_EQ(res.recoveries.size(), 1u);
    EXPECT_FALSE(res.recoveries[0].restarted_from_scratch);
    // Exactness: same iteration count to convergence, solution within the
    // reconstruction accuracy of the undisturbed run.
    EXPECT_EQ(res.iterations, ref.iterations);
    EXPECT_LT(vec_rel_diff_inf(res.x, ref.x), kRecoveryTol);
  }
}

TEST(DistPipelinedEsrp, RollsBackToFirstStorageIteration) {
  // Leading copy pairing (ref. [16]): snapshot t needs copies t and t+1,
  // so the rollback target is the *first* storage iteration of the stage.
  System s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 10;
  opts.phi = 2;
  // stage at (10, 11): target 10
  opts.extra_failures.push_back(FailureEvent{17, {1, 2}});
  const SolveOutcome res = run(s, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_EQ(res.recoveries[0].restored_to, 10);
  EXPECT_EQ(res.recoveries[0].wasted_iterations, 7);
  // redone iterations + the recovery body itself
  EXPECT_EQ(res.executed_iterations, res.iterations + 7 + 1);
}

TEST(DistPipelinedEsrp, ClassicEsrIntervalOneRollsBackOneIteration) {
  System s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 1;
  opts.phi = 1;
  opts.extra_failures.push_back(FailureEvent{20, {4}});
  const SolveOutcome res = run(s, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_FALSE(res.recoveries[0].restarted_from_scratch);
  // With per-iteration storage the newest recoverable state is j-1: the
  // inversion needs the *next* iteration's copy.
  EXPECT_EQ(res.recoveries[0].restored_to, 19);
  EXPECT_EQ(res.recoveries[0].wasted_iterations, 1);
}

TEST(DistPipelinedEsrp, TwoEventScheduleBothRecover) {
  System s(poisson2d(12, 12), 8);
  const SolveOutcome ref = run(s, ResilienceOptions{});
  ASSERT_GT(ref.iterations, 30);

  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 5;
  opts.phi = 2;
  opts.extra_failures.push_back(FailureEvent{13, {1, 2}});
  opts.extra_failures.push_back(FailureEvent{28, {5, 6}});
  const SolveOutcome res = run(s, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 2u);
  EXPECT_FALSE(res.recoveries[0].restarted_from_scratch);
  EXPECT_FALSE(res.recoveries[1].restarted_from_scratch);
  EXPECT_EQ(res.recoveries[0].failed_at, 13);
  EXPECT_EQ(res.recoveries[0].restored_to, 10);
  EXPECT_EQ(res.recoveries[1].failed_at, 28);
  // The second stage's redundancy was replenished after the first rollback.
  EXPECT_EQ(res.recoveries[1].restored_to, 25);
  EXPECT_EQ(res.iterations, ref.iterations);
  EXPECT_LT(vec_rel_diff_inf(res.x, ref.x), kRecoveryTol);
}

TEST(DistPipelinedEsrp, PhiTwoSurvivesContiguousBlockOfTwo) {
  System s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 10;
  opts.phi = 2;
  // psi = phi
  opts.extra_failures.push_back(FailureEvent{22, contiguous_ranks(5, 2, 8)});
  const SolveOutcome res = run(s, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_FALSE(res.recoveries[0].restarted_from_scratch);
  EXPECT_EQ(res.recoveries[0].restored_to, 20);
  EXPECT_LT(true_relative_residual(s.a, s.b, res.x), 1e-7);
}

TEST(DistPipelinedEsrp, FailureBeforeFirstStageRestartsFromScratch) {
  System s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 10;
  opts.phi = 1;
  // first stage completes at iteration 11
  opts.extra_failures.push_back(FailureEvent{5, {0}});
  const SolveOutcome res = run(s, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_TRUE(res.recoveries[0].restarted_from_scratch);
  EXPECT_EQ(res.recoveries[0].restored_to, 0);
}

TEST(DistPipelinedEsrp, StorageStagesChargeRedundancyTraffic) {
  System s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 10;
  opts.phi = 2;
  opts.extra_failures.push_back(FailureEvent{17, {3}});
  SimCluster cluster(s.part);
  const SolveOutcome res = run(s, opts, &cluster);
  ASSERT_TRUE(res.converged);
  // The dedicated p-copy dissemination (the pipelined SpMV input is m, so
  // nothing rides the regular exchange) and the recovery gathers.
  EXPECT_GT(cluster.ledger().totals(CommCategory::aspmv_extra).bytes, 0u);
  EXPECT_GT(cluster.ledger().totals(CommCategory::recovery).messages, 0u);
  EXPECT_EQ(cluster.ledger().totals(CommCategory::checkpoint).bytes, 0u);
}

TEST(DistPipelinedEsrp, MatrixFormulationRecoversOnSameTrajectory) {
  System s(poisson2d(12, 12), 8);
  ResilienceOptions base;
  base.strategy = Strategy::esrp;
  base.interval = 10;
  base.phi = 2;
  base.extra_failures.push_back(FailureEvent{17, {1, 2}});
  const SolveOutcome inv = run(s, base);

  ResilienceOptions mat = base;
  mat.formulation = PrecondFormulation::matrix;
  const SolveOutcome res = run(s, mat);
  ASSERT_TRUE(inv.converged && res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_FALSE(res.recoveries[0].restarted_from_scratch);
  EXPECT_EQ(res.recoveries[0].inner_iterations_precond, 0);
  EXPECT_EQ(res.iterations, inv.iterations);
  EXPECT_LT(vec_rel_diff_inf(res.x, inv.x), 1e-6);
}

TEST(DistPipelinedEsrp, OnlyMatrixFormulationRecoveryAsksForTheMatrixForm) {
  System s(poisson2d(12, 12), 8);
  ResilienceOptions inv;
  inv.strategy = Strategy::esrp;
  inv.interval = 10;
  inv.phi = 2;
  inv.extra_failures.push_back(FailureEvent{17, {1, 2}});
  ResilienceOptions mat = inv;
  mat.formulation = PrecondFormulation::matrix;

  for (const ResilienceOptions& opts : {inv, mat}) {
    SimCluster cluster(s.part);
    const BlockJacobiPreconditioner block_jacobi(s.a, s.part, 10);
    const MatrixFormCounter counter(block_jacobi);
    DistPipelinedPcg solver(s.a, counter, cluster, opts);
    const int at_setup = counter.matrix_form_calls();
    const SolveOutcome res = solver.solve(s.b);
    ASSERT_TRUE(res.converged);
    ASSERT_EQ(res.recoveries.size(), 1u);
    EXPECT_EQ(res.recoveries[0].rung, RecoveryRung::reconstruct);
    // The counter forwards every call, so the solve is bitwise the one on
    // the bare preconditioner.
    const SolveOutcome bare = run(s, opts);
    EXPECT_EQ(res.iterations, bare.iterations);
    EXPECT_EQ(res.x, bare.x);
    if (opts.formulation == PrecondFormulation::inverse) {
      EXPECT_EQ(counter.matrix_form_calls(), 0);
    } else {
      EXPECT_EQ(at_setup, 1); // the operator checks that M exists
      EXPECT_EQ(counter.matrix_form_calls(), 2); // and the recovery reads it
    }
  }
}

/// The facade path: `--solver pipelined --strategy esrp` territory. The
/// driver routes the same direct API, so the facade solve is bitwise equal.
TEST(DistPipelinedEsrp, FacadeDrivenEsrpSolveMatchesDirectApi) {
  System s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 5;
  opts.phi = 2;
  opts.extra_failures.push_back(FailureEvent{13, {1, 2}});
  opts.extra_failures.push_back(FailureEvent{28, {5, 6}});
  SimCluster cluster(s.part, xp::calibrated_cost(s.a, 8));
  BlockJacobiPreconditioner precond(s.a, s.part, 10);
  DistPipelinedPcg solver(s.a, precond, cluster, opts);
  const SolveOutcome direct = solver.solve(s.b);
  ASSERT_TRUE(direct.converged);
  ASSERT_EQ(direct.recoveries.size(), 2u);

  SolveSpec spec;
  spec.matrix_data = &s.a;
  spec.rhs = s.b;
  spec.solver = "dist-pipelined";
  spec.precond = "block-jacobi";
  spec.nodes = 8;
  spec.strategy = Strategy::esrp;
  spec.interval = 5;
  spec.phi = 2;
  spec.failures.push_back(FailureEvent{13, {1, 2}});
  spec.failures.push_back(FailureEvent{28, {5, 6}});
  const SolveReport facade = solve(spec);
  EXPECT_TRUE(facade.converged);
  EXPECT_EQ(facade.iterations, direct.iterations);
  EXPECT_EQ(facade.executed_iterations, direct.executed_iterations);
  EXPECT_EQ(facade.final_relres, direct.final_relres);
  EXPECT_EQ(facade.modeled_time, direct.modeled_time);
  ASSERT_EQ(facade.recoveries.size(), 2u);
  EXPECT_EQ(facade.recoveries[1].restored_to,
            direct.recoveries[1].restored_to);
  EXPECT_EQ(facade.x, direct.x);
  EXPECT_EQ(facade.r, direct.r);
}

} // namespace
} // namespace esrp
