#include "pipelined/dist_pipelined_pcg.hpp"

#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "core/resilient_pcg.hpp"
#include "pipelined/pipelined_pcg.hpp"
#include "precond/block_jacobi.hpp"
#include "sparse/generators.hpp"
#include "xp/experiment.hpp"

namespace esrp {
namespace {

struct System {
  CsrMatrix a;
  Vector b;
  BlockRowPartition part;
  System(CsrMatrix m, rank_t nodes)
      : a(std::move(m)), b(xp::make_rhs(a)), part(a.rows(), nodes) {}
};

SolveOutcome run(System& s, ResilienceOptions opts,
                 CostParams cost = CostParams{}) {
  SimCluster cluster(s.part, cost);
  BlockJacobiPreconditioner precond(s.a, s.part, 10);
  DistPipelinedPcg solver(s.a, precond, cluster, opts);
  return solver.solve(s.b);
}

TEST(DistPipelined, ConvergesToCorrectSolution) {
  System s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  const SolveOutcome res = run(s, opts);
  ASSERT_TRUE(res.converged);
  EXPECT_LT(true_relative_residual(s.a, s.b, res.x), 1e-7);
}

TEST(DistPipelined, MatchesSequentialPipelinedTrajectory) {
  System s(poisson2d(10, 10), 5);
  ResilienceOptions opts;
  const SolveOutcome dist = run(s, opts);

  BlockJacobiPreconditioner seq_p(s.a, s.part, 10);
  Vector x(s.b.size(), 0);
  const SolveOutcome seq = pipelined_pcg_solve(s.a, s.b, x, &seq_p);
  ASSERT_TRUE(dist.converged && seq.converged);
  EXPECT_NEAR(static_cast<double>(dist.iterations),
              static_cast<double>(seq.iterations), 2);
  EXPECT_LT(vec_rel_diff_inf(dist.x, x), 1e-8);
}

TEST(DistPipelined, HidesReductionLatency) {
  // At extreme latency the classic PCG pays 3 allreduce latencies per
  // iteration on the critical path; the pipelined solver overlaps its
  // single reduction with compute. Compare modeled times.
  System s(poisson2d(16, 16), 16);
  CostParams slow;
  slow.alpha_s = 1e-3; // 1 ms latency: reduction-bound regime
  const SolveOutcome piped = run(s, ResilienceOptions{}, slow);

  SimCluster cluster(s.part, slow);
  BlockJacobiPreconditioner precond(s.a, s.part, 10);
  ResilienceOptions classic_opts;
  ResilientPcg classic(s.a, precond, cluster, classic_opts);
  const SolveOutcome classic_res = classic.solve(s.b);

  ASSERT_TRUE(piped.converged && classic_res.converged);
  const double per_iter_piped =
      piped.modeled_time / static_cast<double>(piped.executed_iterations);
  const double per_iter_classic =
      classic_res.modeled_time /
      static_cast<double>(classic_res.executed_iterations);
  EXPECT_LT(per_iter_piped, 0.7 * per_iter_classic);
}

TEST(DistPipelined, ImcrCheckpointRecoversExactly) {
  System s(poisson2d(12, 12), 8);
  ResilienceOptions plain;
  const SolveOutcome ref = run(s, plain);
  ASSERT_GT(ref.iterations, 25);

  ResilienceOptions opts;
  opts.strategy = Strategy::imcr;
  opts.interval = 10;
  opts.phi = 2;
  opts.extra_failures.push_back(FailureEvent{17, {2, 3}});
  const SolveOutcome res = run(s, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_FALSE(res.recoveries[0].restarted_from_scratch);
  EXPECT_EQ(res.recoveries[0].restored_to, 10);
  EXPECT_EQ(res.recoveries[0].wasted_iterations, 7);
  // Checkpoint restore is bitwise: same trajectory end as the plain run.
  EXPECT_EQ(res.iterations, ref.iterations);
  EXPECT_EQ(res.x, ref.x);
}

TEST(DistPipelined, ImcrSurvivesContiguousBlockEqualToPhi) {
  System s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::imcr;
  opts.interval = 10;
  opts.phi = 3;
  // psi = phi block
  opts.extra_failures.push_back(FailureEvent{22, contiguous_ranks(5, 3, 8)});
  const SolveOutcome res = run(s, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_FALSE(res.recoveries[0].restarted_from_scratch);
  EXPECT_EQ(res.recoveries[0].restored_to, 20);
}

TEST(DistPipelined, ImcrAllBuddiesDeadFallsBackToRestart) {
  System s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::imcr;
  opts.interval = 10;
  opts.phi = 1; // single buddy: killing rank s and s+1 destroys both copies
  opts.extra_failures.push_back(FailureEvent{22, {4, 5}});
  const SolveOutcome res = run(s, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_TRUE(res.recoveries[0].restarted_from_scratch);
}

TEST(DistPipelined, FailureWithoutCheckpointRestarts) {
  System s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.extra_failures.push_back(FailureEvent{15, {1}});
  const SolveOutcome res = run(s, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_TRUE(res.recoveries[0].restarted_from_scratch);
}

TEST(DistPipelined, NoSpareRecoveryContinuesOnSurvivors) {
  // ResilientPcg.NoSpareRecoveryContinuesOnSurvivors on the pipelined
  // recurrences: the engine rebinds the eight recurrence vectors.
  System s(poisson2d(12, 12), 8);
  const SolveOutcome ref = run(s, ResilienceOptions{});

  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 10;
  opts.phi = 2;
  opts.spare_nodes = false;
  opts.extra_failures.push_back(FailureEvent{18, {3, 4}});
  SimCluster cluster(s.part);
  BlockJacobiPreconditioner precond(s.a, s.part, 10);
  DistPipelinedPcg solver(s.a, precond, cluster, opts);
  const SolveOutcome res = solver.solve(s.b);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_EQ(res.recoveries[0].rung, RecoveryRung::reconstruct);
  EXPECT_EQ(res.recoveries[0].ranks_absorbed, 2);
  EXPECT_NEAR(static_cast<double>(res.iterations),
              static_cast<double>(ref.iterations), 1);
  EXPECT_LT(vec_rel_diff_inf(res.x, ref.x), 1e-6);
  // The failed ranks retired: their ranges were absorbed by rank 2.
  const BlockRowPartition& np = cluster.partition();
  EXPECT_EQ(np.local_size(3), 0);
  EXPECT_EQ(np.local_size(4), 0);
  EXPECT_EQ(np.local_size(2), 3 * s.part.local_size(2));
}

TEST(DistPipelined, SdcEventsRejected) {
  // The solver injects no bit-flips: accepting an event would silently
  // skip it and report an empty `sdc`.
  System s(poisson2d(6, 6), 4);
  SimCluster cluster(s.part);
  BlockJacobiPreconditioner precond(s.a, s.part, 10);
  ResilienceOptions opts;
  opts.sdc_events.push_back(SdcEvent{3, "p", 5, 51});
  EXPECT_THROW(DistPipelinedPcg(s.a, precond, cluster, opts), Error);
}

TEST(DistPipelined, ShrinkPolicyShrinksThenRejoins) {
  // A failure before the first storage stage is unrecoverable: the
  // survivors absorb rank 2's range and restart, and rank 2 rejoins at the
  // next storage-stage boundary, back on the construction partition.
  System s(poisson2d(12, 12), 8);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 20;
  opts.phi = 2;
  opts.policy = recovery_policy_from_string("shrink");
  opts.extra_failures.push_back(FailureEvent{5, {2}});
  SimCluster cluster(s.part);
  BlockJacobiPreconditioner precond(s.a, s.part, 10);
  DistPipelinedPcg solver(s.a, precond, cluster, opts);
  const SolveOutcome res = solver.solve(s.b);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 2u);
  EXPECT_EQ(res.recoveries[0].rung, RecoveryRung::shrink);
  EXPECT_EQ(res.recoveries[0].ranks_absorbed, 1);
  EXPECT_EQ(res.recoveries[1].rung, RecoveryRung::rejoin);
  EXPECT_EQ(res.recoveries[1].ranks_rejoined, 1);
  EXPECT_EQ(&cluster.partition(), &s.part);
  EXPECT_LT(true_relative_residual(s.a, s.b, res.x), 1e-7);
}

TEST(DistPipelined, ResidualReplacementRejected) {
  System s(poisson2d(6, 6), 4);
  SimCluster cluster(s.part);
  BlockJacobiPreconditioner precond(s.a, s.part, 10);
  ResilienceOptions opts;
  opts.residual_replacement = 10;
  EXPECT_THROW(DistPipelinedPcg(s.a, precond, cluster, opts), Error);
}

TEST(DistPipelined, NonNodeLocalPreconditionerRejectedByBothSolvers) {
  // Single-domain blocks of 10 straddle the 4 node boundaries: applying P
  // node by node would silently drop its off-node entries.
  System s(poisson3d(6, 6, 6), 4);
  SimCluster cluster(s.part);
  BlockJacobiPreconditioner precond(s.a, 10);
  ResilienceOptions opts;
  EXPECT_THROW(DistPipelinedPcg(s.a, precond, cluster, opts), Error);
  EXPECT_THROW(ResilientPcg(s.a, precond, cluster, opts), Error);
}

TEST(DistPipelined, DuplicateEventIterationsRejected) {
  System s(poisson2d(6, 6), 4);
  SimCluster cluster(s.part);
  BlockJacobiPreconditioner precond(s.a, s.part, 10);
  ResilienceOptions opts;
  opts.extra_failures.push_back(FailureEvent{5, {0}});
  opts.extra_failures.push_back(FailureEvent{5, {1}});
  EXPECT_THROW(DistPipelinedPcg(s.a, precond, cluster, opts), Error);
}

} // namespace
} // namespace esrp
