// Stress: node failures injected mid-iteration while the thread pool is
// actively executing the solver's parallel kernels. Reconstruction must
// still produce a converging solve — the recovery path (gathers, inner
// solves, queue bookkeeping) runs interleaved with threaded SpMV/BLAS-1.
#include <gtest/gtest.h>

#include "thread_count_guard.hpp"

#include "core/metrics.hpp"
#include "core/resilient_pcg.hpp"
#include "netsim/failure.hpp"
#include "parallel/parallel.hpp"
#include "precond/block_jacobi.hpp"
#include "sparse/generators.hpp"
#include "xp/experiment.hpp"

namespace esrp {
namespace {

struct Harness {
  CsrMatrix a;
  Vector b;
  BlockRowPartition part;
  SimCluster cluster;
  BlockJacobiPreconditioner precond;

  Harness(CsrMatrix matrix, rank_t nodes)
      : a(std::move(matrix)),
        b(xp::make_rhs(a)),
        part(a.rows(), nodes),
        cluster(part),
        precond(a, part, 10) {}
};

// A matrix large enough that spmv row-chunking and the per-node loops
// actually fan out to the pool (grain checks pass) at 4 threads.
CsrMatrix stress_matrix() { return poisson2d(64, 64); } // 4096 rows

TEST(ThreadedFailureStress, EsrpReconstructsUnderActivePool) {
  ThreadCountGuard guard;
  set_num_threads(4);

  Harness h(stress_matrix(), 16);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 5;
  opts.phi = 2;
  // mid-interval: rollback redoes iterations
  opts.extra_failures.push_back(FailureEvent{12, contiguous_ranks(3, 2, 16)});

  ResilientPcg solver(h.a, h.precond, h.cluster, opts);
  const SolveOutcome res = solver.solve(h.b);

  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_FALSE(res.recoveries[0].restarted_from_scratch);
  EXPECT_EQ(res.recoveries[0].failed_at, 12);
  EXPECT_LE(res.recoveries[0].restored_to, 12);
  EXPECT_LT(true_relative_residual(h.a, h.b, res.x), 1e-7);
}

TEST(ThreadedFailureStress, RepeatedFailuresWithPoolStayConvergent) {
  ThreadCountGuard guard;
  set_num_threads(4);

  Harness h(stress_matrix(), 16);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 4;
  opts.phi = 2;
  opts.extra_failures.push_back(FailureEvent{9, contiguous_ranks(0, 2, 16)});
  FailureEvent second;
  second.iteration = 21;
  second.ranks = contiguous_ranks(8, 2, 16);
  opts.extra_failures.push_back(second);

  ResilientPcg solver(h.a, h.precond, h.cluster, opts);
  const SolveOutcome res = solver.solve(h.b);

  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 2u);
  for (const RecoveryRecord& rec : res.recoveries)
    EXPECT_FALSE(rec.restarted_from_scratch);
  EXPECT_LT(true_relative_residual(h.a, h.b, res.x), 1e-7);
}

TEST(ThreadedFailureStress, ThreadedSolveMatchesSerialTrajectory) {
  // The whole solve is reproducible at a fixed thread count, and because
  // every kernel is deterministic the threaded trajectory only differs
  // from serial through dot-product rounding — iteration counts must
  // stay in the same ballpark and both solutions satisfy the tolerance.
  ThreadCountGuard guard;

  auto solve_with = [&](int threads) {
    set_num_threads(threads);
    Harness h(stress_matrix(), 16);
    ResilienceOptions opts;
    opts.strategy = Strategy::esrp;
    opts.interval = 5;
    opts.phi = 1;
    opts.extra_failures.push_back(FailureEvent{11, contiguous_ranks(5, 1, 16)});
    ResilientPcg solver(h.a, h.precond, h.cluster, opts);
    return solver.solve(h.b);
  };

  const SolveOutcome serial = solve_with(1);
  const SolveOutcome threaded = solve_with(4);
  const SolveOutcome threaded_again = solve_with(4);
  const SolveOutcome at2 = solve_with(2);

  ASSERT_TRUE(serial.converged);
  ASSERT_TRUE(threaded.converged);
  // Run-to-run determinism of the full resilient solve at 4 threads.
  EXPECT_EQ(threaded.iterations,
            threaded_again.iterations);
  EXPECT_EQ(threaded.x, threaded_again.x);
  // All reductions chunk with fixed grains, so every thread count >= 2
  // follows the same bits — the whole solve included.
  EXPECT_EQ(threaded.x, at2.x);
  EXPECT_EQ(threaded.iterations, at2.iterations);
  // Serial-vs-threaded: same algorithm to rounding.
  EXPECT_NEAR(static_cast<double>(threaded.iterations),
              static_cast<double>(serial.iterations),
              0.05 * static_cast<double>(serial.iterations) + 2);
}

TEST(ThreadedFailureStress, NoSpareRecoveryRepartitionsUnderPool) {
  ThreadCountGuard guard;
  set_num_threads(4);

  Harness h(stress_matrix(), 16);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.interval = 4;
  opts.phi = 2;
  opts.spare_nodes = false;
  opts.extra_failures.push_back(FailureEvent{10, contiguous_ranks(6, 2, 16)});

  ResilientPcg solver(h.a, h.precond, h.cluster, opts);
  const SolveOutcome res = solver.solve(h.b);

  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  // Survivors absorbed the failed ranges: those ranks now own nothing.
  for (const rank_t s : opts.extra_failures[0].ranks)
    EXPECT_EQ(solver.current_partition().local_size(s), 0);
  EXPECT_LT(true_relative_residual(h.a, h.b, res.x), 1e-7);
}

TEST(ThreadedFailureStress, ImcrRestoreWorksUnderPool) {
  ThreadCountGuard guard;
  set_num_threads(4);

  Harness h(stress_matrix(), 16);
  ResilienceOptions opts;
  opts.strategy = Strategy::imcr;
  opts.interval = 6;
  opts.phi = 2;
  opts.extra_failures.push_back(FailureEvent{14, contiguous_ranks(2, 2, 16)});

  ResilientPcg solver(h.a, h.precond, h.cluster, opts);
  const SolveOutcome res = solver.solve(h.b);

  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_FALSE(res.recoveries[0].restarted_from_scratch);
  EXPECT_EQ(res.recoveries[0].restored_to, 12); // last multiple of T
  EXPECT_LT(true_relative_residual(h.a, h.b, res.x), 1e-7);
}

} // namespace
} // namespace esrp
