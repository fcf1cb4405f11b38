// End-to-end tests of the resilient distributed PCG: correctness of the
// failure-free solver, exact state reconstruction after injected failures,
// trajectory preservation, and the edge cases of the storage-stage protocol.
#include "core/resilient_pcg.hpp"

#include <gtest/gtest.h>

#include <map>

#include "../precond/matrix_form_counter.hpp"
#include "common/error.hpp"
#include "core/metrics.hpp"
#include "precond/block_jacobi.hpp"
#include "solver/pcg.hpp"
#include "sparse/generators.hpp"
#include "xp/experiment.hpp"

namespace esrp {
namespace {

/// Ranks that own at least one row.
rank_t active_ranks(const BlockRowPartition& p) {
  rank_t active = 0;
  for (rank_t s = 0; s < p.num_nodes(); ++s)
    if (p.local_size(s) > 0) ++active;
  return active;
}

struct SolveSystem {
  CsrMatrix a;
  Vector b;
  BlockRowPartition part;

  SolveSystem(CsrMatrix matrix, rank_t nodes)
      : a(std::move(matrix)), b(xp::make_rhs(a)), part(a.rows(), nodes) {}
};

SolveOutcome run(SolveSystem& s, const ResilienceOptions& opts,
                 SimCluster* cluster_out = nullptr, IterationHook hook = {}) {
  SimCluster cluster(s.part);
  BlockJacobiPreconditioner precond(s.a, s.part, 10);
  ResilientPcg solver(s.a, precond, cluster, opts);
  if (hook) solver.set_iteration_hook(std::move(hook));
  SolveOutcome res = solver.solve(s.b);
  if (cluster_out) *cluster_out = cluster;
  return res;
}

TEST(ResilientPcg, PlainDistributedSolveMatchesSequentialPcg) {
  SolveSystem s(poisson2d(10, 10), 8);
  ResilienceOptions opts;
  const SolveOutcome res = run(s, opts);
  ASSERT_TRUE(res.converged);

  BlockJacobiPreconditioner seq_precond(s.a, s.part, 10);
  Vector x_seq(s.b.size(), 0);
  const SolveOutcome seq = pcg_solve(s.a, s.b, x_seq, &seq_precond);
  ASSERT_TRUE(seq.converged);
  // Same operator, same preconditioner, same trajectory: iteration counts
  // match and iterates agree to rounding.
  EXPECT_EQ(res.iterations, seq.iterations);
  EXPECT_LT(vec_rel_diff_inf(res.x, x_seq), 1e-10);
}

TEST(ResilientPcg, SolutionSatisfiesTrueResidualTolerance) {
  SolveSystem s(poisson3d(5, 5, 4), 10);
  ResilienceOptions opts;
  const SolveOutcome res = run(s, opts);
  ASSERT_TRUE(res.converged);
  EXPECT_LT(true_relative_residual(s.a, s.b, res.x), 1e-7);
}

TEST(ResilientPcg, EsrpFailureFreeFollowsSameTrajectory) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions plain;
  const SolveOutcome ref = run(s, plain);

  for (index_t T : {1, 5, 20}) {
    ResilienceOptions opts;
    opts.strategy = Strategy::esrp;
    opts.interval = T;
    opts.phi = 2;
    const SolveOutcome res = run(s, opts);
    ASSERT_TRUE(res.converged) << "T=" << T;
    EXPECT_EQ(res.iterations, ref.iterations);
    EXPECT_EQ(res.x, ref.x); // identical arithmetic, bitwise equal
  }
}

TEST(ResilientPcg, EsrpFailureFreeCostsMoreThanPlainButLessThanEsr) {
  SolveSystem s(poisson2d(16, 16), 8);
  ResilienceOptions plain;
  SimCluster c0(s.part);
  const double t_plain = run(s, plain).modeled_time;

  ResilienceOptions esr;
  esr.strategy = Strategy::esrp;
  esr.interval = 1;
  esr.phi = 3;
  const double t_esr = run(s, esr).modeled_time;

  ResilienceOptions esrp;
  esrp.strategy = Strategy::esrp;
  esrp.interval = 20;
  esrp.phi = 3;
  const double t_esrp = run(s, esrp).modeled_time;

  EXPECT_GT(t_esr, t_plain);
  EXPECT_GT(t_esrp, t_plain);
  EXPECT_LT(t_esrp, t_esr); // the paper's headline effect
}

TEST(ResilientPcg, EsrSingleFailureExactStateReconstruction) {
  SolveSystem s(poisson2d(10, 10), 8);

  // Reference trajectory: record the state at every iteration.
  std::map<index_t, Vector> ref_x, ref_r, ref_p;
  ResilienceOptions plain;
  const SolveOutcome ref =
      run(s, plain, nullptr,
          [&](index_t j, const DistVector& x, const DistVector& r,
              const DistVector&, const DistVector& p) {
            ref_x[j] = x.gather_global();
            ref_r[j] = r.gather_global();
            ref_p[j] = p.gather_global();
          });
  ASSERT_TRUE(ref.converged);
  const index_t c = ref.iterations;

  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 1; // classic ESR
  opts.phi = 1;
  opts.extra_failures.push_back(FailureEvent{c / 2, {3}});

  real_t max_dev = 0;
  const SolveOutcome res =
      run(s, opts, nullptr,
          [&](index_t j, const DistVector& x, const DistVector& r,
              const DistVector&, const DistVector& p) {
            if (!ref_x.count(j)) return;
            max_dev = std::max(max_dev, vec_rel_diff_inf(x.gather_global(),
                                                         ref_x.at(j)));
            max_dev = std::max(max_dev, vec_rel_diff_inf(r.gather_global(),
                                                         ref_r.at(j)));
            max_dev = std::max(max_dev, vec_rel_diff_inf(p.gather_global(),
                                                         ref_p.at(j)));
          });
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_FALSE(res.recoveries[0].restarted_from_scratch);
  // ESR reconstructs the *current* iteration: no rollback.
  EXPECT_EQ(res.recoveries[0].wasted_iterations, 0);
  // The whole trajectory (including every post-recovery state) stays within
  // inner-solve accuracy of the undisturbed run.
  EXPECT_LT(max_dev, 1e-6);
  EXPECT_NEAR(static_cast<double>(res.iterations),
              static_cast<double>(c), 1);
}

TEST(ResilientPcg, EsrpRollsBackToLastStorageStage) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions plain;
  const index_t c = run(s, plain).iterations;
  ASSERT_GT(c, 25);

  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 10;
  opts.phi = 2;
  // inside (10, 20): last stage completed at 11
  opts.extra_failures.push_back(FailureEvent{18, {1, 2}});
  const SolveOutcome res = run(s, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_EQ(res.recoveries[0].restored_to, 11);
  EXPECT_EQ(res.recoveries[0].wasted_iterations, 7);
  EXPECT_NEAR(static_cast<double>(res.iterations),
              static_cast<double>(c), 1);
  // redone iterations + the recovery body itself
  EXPECT_EQ(res.executed_iterations, res.iterations + 7 + 1);
}

TEST(ResilientPcg, FailureDuringStorageStageUsesPreviousStage) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 10;
  opts.phi = 2;
  // j = 20 is a first-storage iteration: p'(20) has been pushed but the
  // stage is incomplete; recovery must reach back to state 11 (Fig. 1).
  opts.extra_failures.push_back(FailureEvent{20, {4, 5}});
  const SolveOutcome res = run(s, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_FALSE(res.recoveries[0].restarted_from_scratch);
  EXPECT_EQ(res.recoveries[0].restored_to, 11);
  EXPECT_EQ(res.recoveries[0].wasted_iterations, 9);
}

TEST(ResilientPcg, FailureAtSecondStorageIterationRecoversInPlace) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 10;
  opts.phi = 1;
  // second storage iteration of stage 2
  opts.extra_failures.push_back(FailureEvent{21, {6}});
  const SolveOutcome res = run(s, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_EQ(res.recoveries[0].restored_to, 21);
  EXPECT_EQ(res.recoveries[0].wasted_iterations, 0);
}

TEST(ResilientPcg, FailureBeforeFirstStorageStageRestartsFromScratch) {
  SolveSystem s(poisson2d(12, 12), 8);
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

TEST(ResilientPcg, MoreFailuresThanPhiForcesRestart) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 1;
  opts.phi = 1;
  opts.extra_failures.push_back(FailureEvent{20, {2, 3}}); // psi = 2 > phi = 1
  const SolveOutcome res = run(s, opts);
  ASSERT_TRUE(res.converged); // still converges, just expensively
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_TRUE(res.recoveries[0].restarted_from_scratch);
}

TEST(ResilientPcg, TwoSlotQueueAblationForcesRestartMidStage) {
  // With capacity 2 the previous stage's pair is evicted by the first push
  // of the next stage — exactly the failure mode the 3-slot design avoids.
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 10;
  opts.phi = 1;
  opts.queue_capacity = 2;
  // right after the first push of stage 2
  opts.extra_failures.push_back(FailureEvent{20, {3}});
  const SolveOutcome res = run(s, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_TRUE(res.recoveries[0].restarted_from_scratch);

  // The 3-slot default recovers from the very same scenario.
  opts.queue_capacity = 3;
  const SolveOutcome ok = run(s, opts);
  ASSERT_EQ(ok.recoveries.size(), 1u);
  EXPECT_FALSE(ok.recoveries[0].restarted_from_scratch);
}

TEST(ResilientPcg, ImcrRestoresCheckpointExactly) {
  SolveSystem s(poisson2d(12, 12), 8);
  std::map<index_t, Vector> ref_x;
  ResilienceOptions plain;
  const SolveOutcome ref =
      run(s, plain, nullptr,
          [&](index_t j, const DistVector& x, const DistVector&,
              const DistVector&, const DistVector&) {
            ref_x[j] = x.gather_global();
          });
  const index_t c = ref.iterations;
  ASSERT_GT(c, 25);

  ResilienceOptions opts;
  opts.strategy = Strategy::imcr;
  opts.interval = 10;
  opts.phi = 2;
  opts.extra_failures.push_back(FailureEvent{18, {1, 2}});
  real_t max_dev = 0;
  const SolveOutcome res =
      run(s, opts, nullptr,
          [&](index_t j, const DistVector& x, const DistVector&,
              const DistVector&, const DistVector&) {
            if (ref_x.count(j))
              max_dev = std::max(max_dev, vec_rel_diff_inf(x.gather_global(),
                                                           ref_x.at(j)));
          });
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_EQ(res.recoveries[0].restored_to, 10);
  EXPECT_EQ(res.recoveries[0].wasted_iterations, 8);
  // Checkpoint restore is bitwise: zero deviation on the whole trajectory.
  EXPECT_EQ(max_dev, 0);
  EXPECT_EQ(res.iterations, c);
}

TEST(ResilientPcg, ImcrBeforeFirstCheckpointRestarts) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::imcr;
  opts.interval = 10;
  opts.phi = 1;
  opts.extra_failures.push_back(FailureEvent{4, {2}});
  const SolveOutcome res = run(s, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_TRUE(res.recoveries[0].restarted_from_scratch);
}

TEST(ResilientPcg, StrategyNoneWithFailureRestartsAndStillConverges) {
  SolveSystem s(poisson2d(10, 10), 8);
  ResilienceOptions plain;
  const SolveOutcome ref = run(s, plain);
  const index_t c = ref.iterations;
  ResilienceOptions opts;
  opts.extra_failures.push_back(FailureEvent{c / 2, {0}});
  const SolveOutcome res = run(s, opts);
  ASSERT_TRUE(res.converged);
  EXPECT_TRUE(res.recoveries[0].restarted_from_scratch);
  // Roughly half the solve is thrown away and redone.
  EXPECT_GT(res.modeled_time, 1.3 * ref.modeled_time);
  EXPECT_EQ(res.executed_iterations, c + c / 2 + 1);
}

TEST(ResilientPcg, RecoveryCommIsChargedUnderRecoveryCategory) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 10;
  opts.phi = 1;
  opts.extra_failures.push_back(FailureEvent{18, {5}});
  SimCluster cluster(s.part);
  BlockJacobiPreconditioner precond(s.a, s.part, 10);
  ResilientPcg solver(s.a, precond, cluster, opts);
  const SolveOutcome res = solver.solve(s.b);
  ASSERT_TRUE(res.converged);
  EXPECT_GT(cluster.ledger().totals(CommCategory::recovery).messages, 0u);
  EXPECT_GT(cluster.ledger().totals(CommCategory::aspmv_extra).bytes, 0u);
  EXPECT_EQ(cluster.ledger().totals(CommCategory::checkpoint).bytes, 0u);
}

TEST(ResilientPcg, ImcrChargesCheckpointTraffic) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::imcr;
  opts.interval = 10;
  opts.phi = 3;
  SimCluster cluster(s.part);
  BlockJacobiPreconditioner precond(s.a, s.part, 10);
  ResilientPcg solver(s.a, precond, cluster, opts);
  ASSERT_TRUE(solver.solve(s.b).converged);
  EXPECT_GT(cluster.ledger().totals(CommCategory::checkpoint).bytes, 0u);
  EXPECT_EQ(cluster.ledger().totals(CommCategory::aspmv_extra).bytes, 0u);
}

TEST(ResilientPcg, ResidualDriftStaysSmallAfterRecovery) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 10;
  opts.phi = 2;
  opts.extra_failures.push_back(FailureEvent{18, {3, 4}});
  const SolveOutcome res = run(s, opts);
  ASSERT_TRUE(res.converged);
  const real_t drift = residual_drift(s.a, s.b, res.x, res.r);
  EXPECT_LT(std::abs(drift), 0.5);
  EXPECT_LT(true_relative_residual(s.a, s.b, res.x), 1e-7);
}

TEST(ResilientPcg, MatrixFormulationRecoversOnSameTrajectory) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions base;
  base.strategy = Strategy::esrp;
  base.interval = 10;
  base.phi = 2;
  base.extra_failures.push_back(FailureEvent{18, {1, 2}});

  const SolveOutcome inv = run(s, base);
  ResilienceOptions mat = base;
  mat.formulation = PrecondFormulation::matrix;
  const SolveOutcome res = run(s, mat);
  ASSERT_TRUE(inv.converged && res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_FALSE(res.recoveries[0].restarted_from_scratch);
  EXPECT_EQ(res.recoveries[0].inner_iterations_precond, 0);
  // Same trajectory, same solution (within reconstruction accuracy).
  EXPECT_NEAR(static_cast<double>(res.iterations),
              static_cast<double>(inv.iterations), 1);
  EXPECT_LT(vec_rel_diff_inf(res.x, inv.x), 1e-6);
  // The matrix formulation's recovery is cheaper (one inner solve fewer).
  EXPECT_LE(res.recoveries[0].modeled_time, inv.recoveries[0].modeled_time);
}

TEST(ResilientPcg, OnlyMatrixFormulationRecoveryAsksForTheMatrixForm) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions inv;
  inv.strategy = Strategy::esrp;
  inv.interval = 10;
  inv.phi = 2;
  inv.extra_failures.push_back(FailureEvent{18, {1, 2}});
  ResilienceOptions mat = inv;
  mat.formulation = PrecondFormulation::matrix;

  for (const ResilienceOptions& opts : {inv, mat}) {
    SimCluster cluster(s.part);
    const BlockJacobiPreconditioner block_jacobi(s.a, s.part, 10);
    const MatrixFormCounter counter(block_jacobi);
    ResilientPcg solver(s.a, counter, cluster, opts);
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

TEST(ResilientPcg, IntervalTwoBehavesLikeDensestPeriodicStorage) {
  // The paper notes T = 2 is pointless (ESR is better) but it must still be
  // *correct*: every iteration belongs to some storage stage, so any
  // failure after the first full stage recovers with minimal rollback.
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 2;
  opts.phi = 2;
  // odd: a second-storage iteration
  opts.extra_failures.push_back(FailureEvent{17, {2, 3}});
  const SolveOutcome res = run(s, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_FALSE(res.recoveries[0].restarted_from_scratch);
  EXPECT_LE(res.recoveries[0].wasted_iterations, 2);
}

TEST(ResilientPcg, TwoFailureEventsBothRecover) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions plain;
  const SolveOutcome ref = run(s, plain);
  const index_t c = ref.iterations;
  ASSERT_GT(c, 30);

  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 5;
  opts.phi = 2;
  opts.extra_failures.push_back(FailureEvent{13, {1, 2}});
  FailureEvent second;
  second.iteration = 28;
  second.ranks = {5, 6};
  opts.extra_failures.push_back(second);

  const SolveOutcome res = run(s, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 2u);
  EXPECT_FALSE(res.recoveries[0].restarted_from_scratch);
  EXPECT_FALSE(res.recoveries[1].restarted_from_scratch);
  EXPECT_EQ(res.recoveries[0].failed_at, 13);
  EXPECT_EQ(res.recoveries[1].failed_at, 28);
  EXPECT_NEAR(static_cast<double>(res.iterations),
              static_cast<double>(c), 2);
  EXPECT_LT(vec_rel_diff_inf(res.x, ref.x), 1e-5);
}

TEST(ResilientPcg, SecondFailureBeforeRedundancyReplenishedRestarts) {
  // Both events hit the same ranks' redundancy holders before the next
  // storage stage completes: the second recovery has no copies left for
  // some entries and must restart.
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 20;
  opts.phi = 1;
  opts.extra_failures.push_back(FailureEvent{23, {3}});
  FailureEvent second;
  second.iteration = 24; // between stages: holders of node 4 not refreshed
  second.ranks = {4};    // ring holder of node 3's copies
  opts.extra_failures.push_back(second);
  const SolveOutcome res = run(s, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 2u);
  // Either outcome for event 2 is protocol-legal, but the solve must end
  // correctly; with phi=1 and adjacent holders, expect the restart path.
  EXPECT_TRUE(res.recoveries[1].restarted_from_scratch ||
              res.recoveries[1].restored_to >= 0);
  EXPECT_LT(true_relative_residual(s.a, s.b, res.x), 1e-7);
}

TEST(ResilientPcg, DuplicateEventIterationsRejected) {
  SolveSystem s(poisson2d(6, 6), 4);
  SimCluster cluster(s.part);
  BlockJacobiPreconditioner precond(s.a, s.part, 10);
  ResilienceOptions opts;
  opts.extra_failures.push_back(FailureEvent{5, {0}});
  FailureEvent dup;
  dup.iteration = 5;
  dup.ranks = {1};
  opts.extra_failures.push_back(dup);
  EXPECT_THROW(ResilientPcg(s.a, precond, cluster, opts), Error);
}

TEST(ResilientPcg, ResidualReplacementImprovesDrift) {
  SolveSystem s(diffusion3d_27pt(6, 6, 6, 1e3, 5, 1e-4), 8);
  ResilienceOptions plain;
  const SolveOutcome raw = run(s, plain);
  ResilienceOptions rr;
  rr.residual_replacement = 50;
  const SolveOutcome replaced = run(s, rr);
  ASSERT_TRUE(raw.converged && replaced.converged);
  const real_t drift_raw =
      std::abs(residual_drift(s.a, s.b, raw.x, raw.r));
  const real_t drift_replaced =
      std::abs(residual_drift(s.a, s.b, replaced.x, replaced.r));
  // With periodic replacement the recursive residual tracks the true one.
  EXPECT_LE(drift_replaced, drift_raw + 1e-12);
  // And the true solution quality is at least as good.
  EXPECT_LT(true_relative_residual(s.a, s.b, replaced.x), 2e-8);
}

TEST(ResilientPcg, ResidualReplacementKeepsEsrpRecoveryWorking) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 10;
  opts.phi = 2;
  opts.residual_replacement = 15;
  opts.extra_failures.push_back(FailureEvent{18, {1, 2}});
  const SolveOutcome res = run(s, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_FALSE(res.recoveries[0].restarted_from_scratch);
  EXPECT_LT(true_relative_residual(s.a, s.b, res.x), 1e-7);
}

TEST(ResilientPcg, NoSpareRecoveryContinuesOnSurvivors) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions plain;
  const SolveOutcome ref = run(s, plain);

  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 10;
  opts.phi = 2;
  opts.spare_nodes = false;
  opts.extra_failures.push_back(FailureEvent{18, {3, 4}});

  SimCluster cluster(s.part);
  BlockJacobiPreconditioner precond(s.a, s.part, 10);
  ResilientPcg solver(s.a, precond, cluster, opts);
  const SolveOutcome res = solver.solve(s.b);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_FALSE(res.recoveries[0].restarted_from_scratch);
  EXPECT_EQ(res.recoveries[0].restored_to, 11);
  // Same trajectory and solution as the undisturbed run.
  EXPECT_NEAR(static_cast<double>(res.iterations),
              static_cast<double>(ref.iterations), 1);
  EXPECT_LT(vec_rel_diff_inf(res.x, ref.x), 1e-6);
  // The failed ranks retired: their ranges were absorbed by rank 2.
  const BlockRowPartition& np = solver.current_partition();
  EXPECT_EQ(np.local_size(3), 0);
  EXPECT_EQ(np.local_size(4), 0);
  EXPECT_EQ(np.local_size(2), 3 * s.part.local_size(2));
  EXPECT_EQ(active_ranks(np), 6);
}

TEST(ResilientPcg, NoSpareRecoveryOfLeadingBlock) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 10;
  opts.phi = 3;
  opts.spare_nodes = false;
  opts.extra_failures.push_back(FailureEvent{25, {0, 1, 2}});
  SimCluster cluster(s.part);
  BlockJacobiPreconditioner precond(s.a, s.part, 10);
  ResilientPcg solver(s.a, precond, cluster, opts);
  const SolveOutcome res = solver.solve(s.b);
  ASSERT_TRUE(res.converged);
  EXPECT_FALSE(res.recoveries[0].restarted_from_scratch);
  // Rank 3 adopts the leading block.
  EXPECT_EQ(solver.current_partition().owner(0), 3);
  EXPECT_LT(true_relative_residual(s.a, s.b, res.x), 1e-7);
}

TEST(ResilientPcg, NoSpareRestartAlsoShrinksThePartition) {
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 10;
  opts.phi = 1;
  opts.spare_nodes = false;
  // before the first storage stage
  opts.extra_failures.push_back(FailureEvent{5, {6}});
  SimCluster cluster(s.part);
  BlockJacobiPreconditioner precond(s.a, s.part, 10);
  ResilientPcg solver(s.a, precond, cluster, opts);
  const SolveOutcome res = solver.solve(s.b);
  ASSERT_TRUE(res.converged);
  EXPECT_TRUE(res.recoveries[0].restarted_from_scratch);
  EXPECT_EQ(solver.current_partition().local_size(6), 0);
}

TEST(ResilientPcg, CopiesCapturedBeforeARepartitionFeedTheNextRecovery) {
  // The first no-spare recovery replaces the solver's plans; the second
  // event strikes before the next storage stage, so it reconstructs from
  // the copies captured on the original partition. Those copies must keep
  // their holder layout alive on their own.
  SolveSystem s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 10;
  opts.phi = 2;
  opts.spare_nodes = false;
  opts.extra_failures.push_back(FailureEvent{15, {6}});
  FailureEvent second;
  second.iteration = 18;
  second.ranks = {3, 4};
  opts.extra_failures.push_back(second);
  const SolveOutcome res = run(s, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 2u);
  for (const RecoveryRecord& rec : res.recoveries) {
    EXPECT_EQ(rec.rung, RecoveryRung::reconstruct);
    EXPECT_EQ(rec.restored_to, 11);
  }
  EXPECT_LT(true_relative_residual(s.a, s.b, res.x), 1e-7);
}

TEST(ResilientPcg, NoSparesRejectedForImcr) {
  SolveSystem s(poisson2d(6, 6), 4);
  SimCluster cluster(s.part);
  BlockJacobiPreconditioner precond(s.a, s.part, 10);
  ResilienceOptions opts;
  opts.strategy = Strategy::imcr;
  opts.spare_nodes = false;
  EXPECT_THROW(ResilientPcg(s.a, precond, cluster, opts), Error);
}

TEST(ResilientPcg, RequiresExplicitPreconditionerAction) {
  SolveSystem s(poisson2d(6, 6), 4);
  SimCluster cluster(s.part);
  // SSOR has no action matrix: the distributed solver must refuse it.
  class NoAction final : public Preconditioner {
  public:
    explicit NoAction(index_t n) : n_(n) {}
    std::string name() const override { return "noaction"; }
    index_t dim() const override { return n_; }
    void apply(std::span<const real_t> r, std::span<real_t> z) const override {
      std::copy(r.begin(), r.end(), z.begin());
    }
    double apply_flops() const override { return 0; }

  private:
    index_t n_;
  } precond(s.a.rows());
  ResilienceOptions opts;
  EXPECT_THROW(ResilientPcg(s.a, precond, cluster, opts), Error);
}

TEST(ResilientPcg, InvalidFailureRanksRejected) {
  SolveSystem s(poisson2d(6, 6), 4);
  SimCluster cluster(s.part);
  BlockJacobiPreconditioner precond(s.a, s.part, 10);
  ResilienceOptions opts;
  // out of range for 4 nodes
  opts.extra_failures.push_back(FailureEvent{3, {7}});
  EXPECT_THROW(ResilientPcg(s.a, precond, cluster, opts), Error);
}

} // namespace
} // namespace esrp
