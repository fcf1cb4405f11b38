// SolverObserver semantics across the facade: on_iteration fires once per
// executed iteration body, on_failure/on_recovery bracket every failure
// event, and the rollback is visible as a decrease in the observed
// iteration numbers. The solvers take the observer directly, so an observer
// handed straight to ResilientPcg / DistPipelinedPcg must record exactly
// the sequence the facade forwards.
#include <gtest/gtest.h>

#include <vector>

#include "api/solve.hpp"
#include "core/resilient_pcg.hpp"
#include "netsim/cluster.hpp"
#include "netsim/failure.hpp"
#include "pipelined/dist_pipelined_pcg.hpp"
#include "precond/block_jacobi.hpp"
#include "sparse/generators.hpp"
#include "xp/experiment.hpp"

namespace esrp {
namespace {

class RecordingObserver final : public SolverObserver {
public:
  void on_iteration(index_t iteration, real_t relres) override {
    iterations.push_back(iteration);
    relres_values.push_back(relres);
  }
  void on_failure(const FailureEvent& event) override {
    failures.push_back(event);
  }
  void on_recovery(const RecoveryRecord& record) override {
    recoveries.push_back(record);
  }

  std::vector<index_t> iterations;
  std::vector<real_t> relres_values;
  std::vector<FailureEvent> failures;
  std::vector<RecoveryRecord> recoveries;
};

/// Exact equality of two recorded hook sequences (same trajectory bits).
void expect_same_sequence(const RecordingObserver& direct,
                          const RecordingObserver& facade) {
  EXPECT_EQ(direct.iterations, facade.iterations);
  EXPECT_EQ(direct.relres_values, facade.relres_values);
  ASSERT_EQ(direct.failures.size(), facade.failures.size());
  for (std::size_t k = 0; k < direct.failures.size(); ++k) {
    EXPECT_EQ(direct.failures[k].iteration, facade.failures[k].iteration);
    EXPECT_EQ(direct.failures[k].ranks, facade.failures[k].ranks);
    EXPECT_EQ(direct.failures[k].cause, facade.failures[k].cause);
  }
  ASSERT_EQ(direct.recoveries.size(), facade.recoveries.size());
  for (std::size_t k = 0; k < direct.recoveries.size(); ++k) {
    EXPECT_EQ(direct.recoveries[k].failed_at, facade.recoveries[k].failed_at);
    EXPECT_EQ(direct.recoveries[k].restored_to,
              facade.recoveries[k].restored_to);
    EXPECT_EQ(direct.recoveries[k].rung, facade.recoveries[k].rung);
    EXPECT_EQ(direct.recoveries[k].modeled_time,
              facade.recoveries[k].modeled_time);
  }
}

class SolveObserver : public ::testing::Test {
protected:
  SolveObserver() : a_(poisson2d(12, 12)), b_(xp::make_rhs(a_)) {}

  SolveSpec base_spec() const {
    SolveSpec spec;
    spec.matrix_data = &a_;
    spec.rhs = b_;
    return spec;
  }

  /// The ResilienceOptions the facade derives from `spec`: the shared
  /// SolverOptions whole, then the policy and the run-time fault fields.
  static ResilienceOptions options_for(const SolveSpec& spec) {
    ResilienceOptions opts;
    static_cast<SolverOptions&>(opts) = spec;
    opts.policy = recovery_policy_from_string(spec.recovery_policy);
    opts.extra_failures = spec.failures;
    opts.sdc_events = spec.sdc_events;
    opts.sdc_threshold = spec.sdc_threshold;
    return opts;
  }

  CsrMatrix a_;
  Vector b_;
};

TEST_F(SolveObserver, ResilientSolveReportsFailureAndRecovery) {
  SolveSpec spec = base_spec();
  spec.solver = "resilient-pcg";
  spec.precond = "block-jacobi";
  spec.nodes = 6;
  spec.strategy = Strategy::esrp;
  spec.interval = 5;
  spec.phi = 2;
  // Mid-interval failure (the storage pair lands at iterations 10/11), so
  // the recovery must roll back — the observer sees the iteration number
  // decrease.
  const FailureEvent event{13, contiguous_ranks(1, 2, 6)};
  spec.failures.push_back(event);

  RecordingObserver obs;
  const SolveReport report = solve(spec, &obs);
  ASSERT_TRUE(report.converged);

  // One call per executed iteration body plus the final converging check —
  // the uniform contract across all registered solvers.
  EXPECT_EQ(static_cast<index_t>(obs.iterations.size()),
            report.executed_iterations + 1);
  EXPECT_LT(obs.relres_values.back(), spec.rtol);

  // Exactly one failure, reported with the configured event...
  ASSERT_EQ(obs.failures.size(), 1u);
  EXPECT_EQ(obs.failures[0].iteration, event.iteration);
  EXPECT_EQ(obs.failures[0].ranks, event.ranks);
  // ...and one recovery whose record matches the report's.
  ASSERT_EQ(obs.recoveries.size(), 1u);
  ASSERT_EQ(report.recoveries.size(), 1u);
  EXPECT_EQ(obs.recoveries[0].failed_at, report.recoveries[0].failed_at);
  EXPECT_EQ(obs.recoveries[0].restored_to, report.recoveries[0].restored_to);

  // The rollback is visible: some consecutive pair of observed iteration
  // numbers decreases (back to the restored iteration).
  bool saw_rollback = false;
  for (std::size_t k = 1; k < obs.iterations.size(); ++k)
    saw_rollback = saw_rollback || obs.iterations[k] < obs.iterations[k - 1];
  EXPECT_TRUE(saw_rollback);
}

TEST_F(SolveObserver, SequentialSolversReportEveryIteration) {
  for (const char* solver : {"pcg", "pipelined"}) {
    SCOPED_TRACE(solver);
    SolveSpec spec = base_spec();
    spec.solver = solver;
    spec.precond = "jacobi";

    RecordingObserver obs;
    const SolveReport report = solve(spec, &obs);
    ASSERT_TRUE(report.converged);

    // The callback fires before the convergence check, so the converging
    // iteration is observed too.
    EXPECT_EQ(static_cast<index_t>(obs.iterations.size()),
              report.executed_iterations + 1);
    // Iteration numbers are 0..C with no failures to roll back.
    for (std::size_t k = 0; k < obs.iterations.size(); ++k)
      EXPECT_EQ(obs.iterations[k], static_cast<index_t>(k));
    // The last observed relres is the converged one.
    EXPECT_EQ(obs.relres_values.back(), report.final_relres);
  }
}

TEST_F(SolveObserver, DistPipelinedReportsRecovery) {
  SolveSpec spec = base_spec();
  spec.solver = "dist-pipelined";
  spec.precond = "block-jacobi";
  spec.nodes = 6;
  spec.strategy = Strategy::imcr;
  spec.interval = 5;
  spec.phi = 2;
  spec.failures.push_back(FailureEvent{11, contiguous_ranks(1, 2, 6)});

  RecordingObserver obs;
  const SolveReport report = solve(spec, &obs);
  ASSERT_TRUE(report.converged);
  EXPECT_EQ(obs.failures.size(), 1u);
  EXPECT_EQ(obs.recoveries.size(), 1u);
  EXPECT_EQ(static_cast<index_t>(obs.iterations.size()),
            report.executed_iterations + 1);
  EXPECT_LT(obs.relres_values.back(), spec.rtol);
}


TEST_F(SolveObserver, DirectResilientPcgObserverMatchesFacade) {
  SolveSpec spec = base_spec();
  spec.solver = "resilient-pcg";
  spec.precond = "block-jacobi";
  spec.nodes = 6;
  spec.strategy = Strategy::esrp;
  spec.interval = 5;
  spec.phi = 2;
  spec.failures.push_back(FailureEvent{13, contiguous_ranks(1, 2, 6)});
  spec.failures.push_back(FailureEvent{24, contiguous_ranks(4, 1, 6)});

  RecordingObserver facade;
  const SolveReport report = solve(spec, &facade);
  ASSERT_TRUE(report.converged);
  ASSERT_EQ(facade.failures.size(), 2u);

  const BlockRowPartition part(a_.rows(), spec.nodes);
  SimCluster cluster(part, xp::calibrated_cost(a_, spec.nodes));
  const BlockJacobiPreconditioner precond(a_, part, spec.block_size);
  ResilientPcg solver(a_, precond, cluster, options_for(spec));
  RecordingObserver direct;
  const SolveOutcome res = solver.solve(b_, {}, &direct);
  ASSERT_TRUE(res.converged);
  expect_same_sequence(direct, facade);
}

TEST_F(SolveObserver, DirectDistPipelinedObserverMatchesFacade) {
  SolveSpec spec = base_spec();
  spec.solver = "dist-pipelined";
  spec.precond = "block-jacobi";
  spec.nodes = 6;
  spec.strategy = Strategy::imcr;
  spec.interval = 5;
  spec.phi = 2;
  spec.failures.push_back(FailureEvent{11, contiguous_ranks(1, 2, 6)});

  RecordingObserver facade;
  const SolveReport report = solve(spec, &facade);
  ASSERT_TRUE(report.converged);
  ASSERT_EQ(facade.recoveries.size(), 1u);

  const BlockRowPartition part(a_.rows(), spec.nodes);
  SimCluster cluster(part, xp::calibrated_cost(a_, spec.nodes));
  const BlockJacobiPreconditioner precond(a_, part, spec.block_size);
  DistPipelinedPcg solver(a_, precond, cluster, options_for(spec));
  RecordingObserver direct;
  const SolveOutcome res = solver.solve(b_, {}, &direct);
  ASSERT_TRUE(res.converged);
  expect_same_sequence(direct, facade);
}

// The solver itself reports an injected bit-flip as an sdc-cause failure
// naming the corrupted entry's owner — no facade wrapper involved.
TEST_F(SolveObserver, DirectResilientPcgReportsSdcAsFailure) {
  SolveSpec spec = base_spec();
  spec.solver = "resilient-pcg";
  spec.precond = "block-jacobi";
  spec.nodes = 6;
  spec.residual_replacement = 5;
  spec.sdc_events.push_back(SdcEvent{12, "p", 30, 51});

  const BlockRowPartition part(a_.rows(), spec.nodes);
  SimCluster cluster(part, xp::calibrated_cost(a_, spec.nodes));
  const BlockJacobiPreconditioner precond(a_, part, spec.block_size);
  ResilientPcg solver(a_, precond, cluster, options_for(spec));
  RecordingObserver direct;
  const SolveOutcome res = solver.solve(b_, {}, &direct);
  ASSERT_EQ(res.sdc.size(), 1u);
  ASSERT_EQ(direct.failures.size(), 1u);
  EXPECT_EQ(direct.failures[0].cause, FailureCause::sdc);
  EXPECT_EQ(direct.failures[0].iteration, 12);
  EXPECT_EQ(direct.failures[0].ranks,
            std::vector<rank_t>{part.owner(30)});
  EXPECT_EQ(direct.failures[0].ranks[0], res.sdc[0].rank);
  EXPECT_TRUE(direct.recoveries.empty());

  RecordingObserver facade;
  (void)solve(spec, &facade);
  expect_same_sequence(direct, facade);
}

} // namespace
} // namespace esrp
