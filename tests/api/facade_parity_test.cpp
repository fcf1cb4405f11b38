// Facade-vs-direct parity: esrp::solve(SolveSpec) must be bitwise identical
// to hand-assembling the same solve through the historical direct APIs, for
// every registered solver, at 1 and 4 kernel threads (the acceptance
// criterion of the api_redesign issue). "Bitwise" means memcmp on the
// solution (and residual) vectors plus exact equality of the scalar
// outputs — no tolerances anywhere.
#include <gtest/gtest.h>

#include <cstring>

#include "../parallel/thread_count_guard.hpp"
#include "api/registry.hpp"
#include "api/solve.hpp"
#include "core/resilient_pcg.hpp"
#include "netsim/cluster.hpp"
#include "parallel/parallel.hpp"
#include "pipelined/dist_pipelined_pcg.hpp"
#include "pipelined/pipelined_pcg.hpp"
#include "precond/block_jacobi.hpp"
#include "precond/jacobi.hpp"
#include "solver/pcg.hpp"
#include "sparse/generators.hpp"
#include "xp/experiment.hpp"

namespace esrp {
namespace {

constexpr int kThreadCounts[] = {1, 4};

void expect_bitwise_equal(const Vector& direct, const Vector& facade,
                          const char* what) {
  ASSERT_EQ(direct.size(), facade.size()) << what;
  if (direct.empty()) return; // data() may be null: memcmp(null, ..) is UB
  EXPECT_EQ(0, std::memcmp(direct.data(), facade.data(),
                           direct.size() * sizeof(real_t)))
      << what << " differs between the direct call and the facade";
}

class FacadeParity : public ::testing::Test {
protected:
  FacadeParity() : a_(poisson2d(16, 16)), b_(xp::make_rhs(a_)) {}

  ThreadCountGuard guard_;
  CsrMatrix a_;
  Vector b_;
};

TEST_F(FacadeParity, SequentialPcg) {
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    set_num_threads(threads);

    const JacobiPreconditioner precond(a_);
    Vector x(b_.size(), 0);
    const SolveOutcome direct = pcg_solve(a_, b_, x, &precond);

    SolveSpec spec;
    spec.matrix_data = &a_;
    spec.rhs = b_;
    spec.solver = "pcg";
    spec.precond = "jacobi";
    const SolveReport facade = solve(spec);

    EXPECT_EQ(direct.converged, facade.converged);
    EXPECT_EQ(direct.iterations, facade.iterations);
    EXPECT_EQ(direct.final_relres, facade.final_relres);
    EXPECT_EQ(direct.flops, facade.flops);
    expect_bitwise_equal(x, facade.x, "x");
  }
}

TEST_F(FacadeParity, SequentialPipelined) {
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    set_num_threads(threads);

    const BlockJacobiPreconditioner precond(a_, /*max_block_size=*/10);
    Vector x(b_.size(), 0);
    const SolveOutcome direct = pipelined_pcg_solve(a_, b_, x, &precond);

    SolveSpec spec;
    spec.matrix_data = &a_;
    spec.rhs = b_;
    spec.solver = "pipelined";
    spec.precond = "block-jacobi";
    const SolveReport facade = solve(spec);

    EXPECT_EQ(direct.converged, facade.converged);
    EXPECT_EQ(direct.iterations, facade.iterations);
    EXPECT_EQ(direct.final_relres, facade.final_relres);
    EXPECT_EQ(direct.flops, facade.flops);
    expect_bitwise_equal(x, facade.x, "x");
  }
}

TEST_F(FacadeParity, ResilientPcgWithFailure) {
  const rank_t nodes = 8;
  const FailureEvent event{12, contiguous_ranks(2, 2, nodes)};

  for (const int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    set_num_threads(threads);

    const BlockRowPartition part(a_.rows(), nodes);
    SimCluster cluster(part, xp::calibrated_cost(a_, nodes));
    const BlockJacobiPreconditioner precond(a_, part, 10);
    ResilienceOptions opts;
    opts.strategy = Strategy::esrp;
    opts.interval = 5;
    opts.phi = 2;
    opts.extra_failures.push_back(event);
    ResilientPcg solver(a_, precond, cluster, opts);
    const SolveOutcome direct = solver.solve(b_);

    SolveSpec spec;
    spec.matrix_data = &a_;
    spec.rhs = b_;
    spec.solver = "resilient-pcg";
    spec.precond = "block-jacobi";
    spec.nodes = nodes;
    spec.strategy = Strategy::esrp;
    spec.interval = 5;
    spec.phi = 2;
    spec.failures.push_back(event);
    const SolveReport facade = solve(spec);

    EXPECT_EQ(direct.converged, facade.converged);
    EXPECT_EQ(direct.iterations, facade.iterations);
    EXPECT_EQ(direct.executed_iterations, facade.executed_iterations);
    EXPECT_EQ(direct.final_relres, facade.final_relres);
    EXPECT_EQ(direct.modeled_time, facade.modeled_time);
    ASSERT_EQ(direct.recoveries.size(), facade.recoveries.size());
    ASSERT_EQ(facade.recoveries.size(), 1u);
    EXPECT_EQ(direct.recoveries[0].restored_to,
              facade.recoveries[0].restored_to);
    expect_bitwise_equal(direct.x, facade.x, "x");
    expect_bitwise_equal(direct.r, facade.r, "r");
  }
}

TEST_F(FacadeParity, DistPipelined) {
  const rank_t nodes = 8;
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    set_num_threads(threads);

    const BlockRowPartition part(a_.rows(), nodes);
    SimCluster cluster(part, xp::calibrated_cost(a_, nodes));
    const BlockJacobiPreconditioner precond(a_, part, 10);
    DistPipelinedPcg solver(a_, precond, cluster, ResilienceOptions{});
    const SolveOutcome direct = solver.solve(b_);

    SolveSpec spec;
    spec.matrix_data = &a_;
    spec.rhs = b_;
    spec.solver = "dist-pipelined";
    spec.precond = "block-jacobi";
    spec.nodes = nodes;
    const SolveReport facade = solve(spec);

    EXPECT_EQ(direct.converged, facade.converged);
    EXPECT_EQ(direct.iterations, facade.iterations);
    EXPECT_EQ(direct.final_relres, facade.final_relres);
    EXPECT_EQ(direct.modeled_time, facade.modeled_time);
    expect_bitwise_equal(direct.x, facade.x, "x");
    expect_bitwise_equal(direct.r, facade.r, "r");
  }
}

/// The registry key falls back to the same generator the direct path calls,
/// so key-built and caller-built matrices give identical solves.
TEST_F(FacadeParity, MatrixKeyMatchesMatrixData) {
  SolveSpec by_key;
  by_key.matrix = "poisson2d:16,16";
  by_key.solver = "pcg";
  by_key.precond = "jacobi";
  const SolveReport key_report = solve(by_key);

  SolveSpec by_data = by_key;
  by_data.matrix.clear();
  by_data.matrix_data = &a_;
  by_data.rhs = b_; // the default rhs of the key path is xp::make_rhs(a)
  const SolveReport data_report = solve(by_data);

  EXPECT_EQ(key_report.iterations, data_report.iterations);
  expect_bitwise_equal(key_report.x, data_report.x, "x");
}

/// max_iterations reaches every registered solver through the facade: a cap
/// below the converged count stops each one short. The distributed solvers
/// cap executed bodies, redone ones included, so the rollback of the failure
/// injected here leaves iterations below executed_iterations = cap.
TEST_F(FacadeParity, IterationCapReachesEverySolver) {
  struct Case {
    const char* solver;
    index_t iterations;
    index_t executed_iterations;
  };
  const Case cases[] = {{"pcg", 12, 12},
                        {"pipelined", 12, 12},
                        {"resilient-pcg", 8, 12},
                        {"dist-pipelined", 7, 12}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.solver);
    SolveSpec spec;
    spec.matrix_data = &a_;
    spec.rhs = b_;
    spec.solver = c.solver;
    spec.precond = "block-jacobi";
    spec.max_iterations = 12;
    if (solver_registry().get(c.solver).distributed) {
      spec.nodes = 4;
      spec.strategy = Strategy::esrp;
      spec.interval = 5;
      spec.failures.push_back(FailureEvent{9, {1}});
    }
    const SolveReport report = solve(spec);
    EXPECT_FALSE(report.converged);
    EXPECT_EQ(report.iterations, c.iterations);
    EXPECT_EQ(report.executed_iterations, c.executed_iterations);
  }
}

} // namespace
} // namespace esrp
