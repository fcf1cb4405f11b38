// The property-test harness of the scenario engine: 50 seeded random
// scenarios (25 per distributed solver) across strategies, storage
// intervals, and stochastic failure processes, each checked against the
// failure-free reference trajectory of the same spec.
//
// What "exact recovery" means per path (docs/resilience.md):
//   - empty schedule, or checkpoint restores (IMCR) and scratch restarts:
//     bitwise identical to the failure-free run — the solver re-executes
//     the same arithmetic, so relres and the x/r vectors match hash-exact;
//   - ESRP reconstruction: the lost entries are rebuilt by *inner solves*
//     at inner_rtol = 1e-14, so the recovered run follows the reference
//     trajectory to reconstruction accuracy (same iteration count ±1,
//     solution within 1e-7), not bitwise.
// Every scenario additionally proves reproducibility: the identical spec
// rerun at 4 threads yields a bitwise-identical report (the fixed-grain
// reductions in docs/parallelism.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/solve.hpp"
#include "common/rng.hpp"
#include "core/metrics.hpp"
#include "core/resilient_pcg.hpp"
#include "pipelined/dist_pipelined_pcg.hpp"
#include "precond/block_jacobi.hpp"
#include "scenario/failure_process.hpp"
#include "sparse/generators.hpp"
#include "xp/experiment.hpp"

namespace esrp {
namespace {

constexpr rank_t kNodes = 8;
constexpr real_t kEsrpRecoveryTol = 1e-7; ///< x deviation after reconstruction
constexpr const char* kDistributedSolvers[] = {"resilient-pcg",
                                               "dist-pipelined"};

std::uint64_t fnv1a(const Vector& v) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(real_t); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

struct PropertyCase {
  const char* solver;
  std::uint64_t seed;
};

void PrintTo(const PropertyCase& c, std::ostream* os) {
  *os << c.solver << "/seed" << c.seed;
}

class ScenarioRecoveryProperty
    : public ::testing::TestWithParam<PropertyCase> {
protected:
  static void SetUpTestSuite() {
    problem_ = new TestProblem(resolve_matrix("poisson2d:12,12"));
    rhs_ = new Vector(xp::make_rhs(problem_->matrix));
  }
  static void TearDownTestSuite() {
    delete problem_;
    delete rhs_;
    problem_ = nullptr;
    rhs_ = nullptr;
  }

  SolveSpec base_spec(const char* solver) const {
    SolveSpec spec;
    spec.matrix_data = &problem_->matrix;
    spec.rhs = *rhs_;
    spec.solver = solver;
    spec.precond = "block-jacobi";
    spec.nodes = kNodes;
    spec.phi = 2;
    spec.threads = 1;
    return spec;
  }

  static TestProblem* problem_;
  static Vector* rhs_;
};

TestProblem* ScenarioRecoveryProperty::problem_ = nullptr;
Vector* ScenarioRecoveryProperty::rhs_ = nullptr;

TEST_P(ScenarioRecoveryProperty, RecoversExactlyOnRandomScenario) {
  const PropertyCase& param = GetParam();
  Rng rng(0x5CE9A210ull ^ (param.seed * 0x9E3779B97F4A7C15ull));

  // --- draw the scenario -------------------------------------------------
  const Strategy strategy =
      rng.next_below(2) == 0 ? Strategy::esrp : Strategy::imcr;
  const index_t intervals[] = {1, 5, 10, 20};
  const index_t interval = intervals[rng.next_below(4)];
  const char* processes[] = {
      "exponential:mean=8",  "exponential:mean=15", "exponential:mean=30",
      "weibull:k=2,scale=20", "rack:2/exponential:mean=20"};
  const std::string process = processes[rng.next_below(5)];

  // --- failure-free reference on the same spec ---------------------------
  SolveSpec ref_spec = base_spec(param.solver);
  ref_spec.strategy = Strategy::none;
  const SolveReport ref = solve(ref_spec);
  ASSERT_TRUE(ref.converged);
  ASSERT_GT(ref.iterations, 10);

  // --- the scenario run --------------------------------------------------
  SolveSpec spec = base_spec(param.solver);
  spec.strategy = strategy;
  spec.interval = interval;
  spec.failures = sample_failure_schedule(process, kNodes, ref.iterations,
                                          param.seed + 1);
  SCOPED_TRACE(::testing::Message()
               << to_string(strategy) << " T=" << interval << " " << process
               << " events=" << spec.failures.size());
  const SolveReport res = solve(spec);
  ASSERT_TRUE(res.converged);
  EXPECT_GE(res.executed_iterations, res.iterations);
  EXPECT_LE(res.recoveries.size(), spec.failures.size());

  const bool scratch = res.restarted_from_scratch();
  const bool bitwise_path = spec.failures.empty() ||
                            (strategy == Strategy::imcr && !scratch) ||
                            (scratch && res.recoveries.size() == 1);
  if (bitwise_path) {
    // Copy-restore recovery (or none at all) re-executes the reference
    // arithmetic verbatim: hash-exact solution and residual, identical
    // hexfloat relres.
    EXPECT_EQ(res.iterations, ref.iterations);
    EXPECT_EQ(res.final_relres, ref.final_relres);
    EXPECT_EQ(fnv1a(res.x), fnv1a(ref.x));
    EXPECT_EQ(fnv1a(res.r), fnv1a(ref.r));
  } else if (!scratch) {
    // ESRP reconstruction: exact to inner-solve accuracy, not bitwise.
    EXPECT_LE(std::llabs(static_cast<long long>(res.iterations) -
                         static_cast<long long>(ref.iterations)),
              1);
    EXPECT_LT(vec_rel_diff_inf(res.x, ref.x), kEsrpRecoveryTol);
  } else {
    // A mid-run scratch restart replays a prefix before the restart, so
    // only the final answer is comparable.
    EXPECT_LT(true_relative_residual(problem_->matrix, *rhs_, res.x),
              1e-7);
  }

  // --- reproducibility: same spec, 4 threads, bitwise-identical report ---
  SolveSpec spec4 = spec;
  spec4.threads = 4;
  const SolveReport res4 = solve(spec4);
  ASSERT_TRUE(res4.converged);
  EXPECT_EQ(res4.iterations, res.iterations);
  EXPECT_EQ(res4.executed_iterations, res.executed_iterations);
  EXPECT_EQ(res4.final_relres, res.final_relres);
  EXPECT_EQ(res4.modeled_time, res.modeled_time);
  EXPECT_EQ(fnv1a(res4.x), fnv1a(res.x));
  EXPECT_EQ(fnv1a(res4.r), fnv1a(res.r));
}

// ----------------------------------------------------- cascading failures --
// Directed cascades the random processes only rarely sample: a second
// failure striking during the re-execution window of the first, and an
// all-ranks catastrophe. Each case is checked at 1 thread and proven
// bitwise-reproducible at 4 (the same contract as the random scenarios).

class CascadingRecovery : public ::testing::Test {
protected:
  static SolveSpec base_spec(const char* solver = "resilient-pcg") {
    SolveSpec spec;
    spec.matrix = "poisson2d:12,12";
    spec.solver = solver;
    spec.precond = "block-jacobi";
    spec.nodes = kNodes;
    spec.phi = 2;
    spec.threads = 1;
    return spec;
  }

  /// Reference trajectory (failure-free, strategy none) of base_spec.
  static SolveReport reference(const char* solver = "resilient-pcg") {
    SolveSpec ref = base_spec(solver);
    ref.strategy = Strategy::none;
    return solve(ref);
  }

  /// The partition a run of `spec` ends on, which the facade report does
  /// not carry: `spec` rerun directly on its solver, on the partition,
  /// block Jacobi and right-hand side the facade builds. `x` receives the
  /// direct run's solution.
  static BlockRowPartition final_partition(const SolveSpec& spec, Vector& x) {
    const TestProblem prob = resolve_matrix(spec.matrix);
    const Vector b = xp::make_rhs(prob.matrix);
    const BlockRowPartition part(prob.matrix.rows(), spec.nodes);
    const BlockJacobiPreconditioner precond(prob.matrix, part,
                                            spec.block_size);
    SimCluster cluster(part);
    ResilienceOptions opts;
    static_cast<SolverOptions&>(opts) = spec;
    opts.policy = recovery_policy_from_string(spec.recovery_policy);
    opts.extra_failures = spec.failures;
    // Copy the partition while the solver, which owns it, is alive.
    const auto run = [&](auto& solver) {
      x = solver.solve(b).x;
      return cluster.partition();
    };
    if (spec.solver == "dist-pipelined") {
      DistPipelinedPcg solver(prob.matrix, precond, cluster, opts);
      return run(solver);
    }
    ResilientPcg solver(prob.matrix, precond, cluster, opts);
    return run(solver);
  }

  /// Rerun `spec` at 4 threads and require a bitwise-identical report.
  static void expect_reproducible_at_4_threads(SolveSpec spec,
                                               const SolveReport& res) {
    spec.threads = 4;
    const SolveReport res4 = solve(spec);
    ASSERT_TRUE(res4.converged);
    EXPECT_EQ(res4.iterations, res.iterations);
    EXPECT_EQ(res4.executed_iterations, res.executed_iterations);
    EXPECT_EQ(res4.final_relres, res.final_relres);
    EXPECT_EQ(res4.modeled_time, res.modeled_time);
    EXPECT_EQ(fnv1a(res4.x), fnv1a(res.x));
    EXPECT_EQ(fnv1a(res4.r), fnv1a(res.r));
  }
};

TEST_F(CascadingRecovery, SecondFailureDuringReExecutionRecoversExactly) {
  // T = 20: the (20, 21) stage arms recovery; the failure at 25 rolls back
  // to 21, and the failure at 26 strikes during the re-executed iterations
  // — inside the same ESRP period, before any storage progress. Both climb
  // the ladder to the reconstruct rung off the same stage.
  const SolveReport ref = reference();
  ASSERT_TRUE(ref.converged);

  SolveSpec spec = base_spec();
  spec.strategy = Strategy::esrp;
  spec.interval = 20;
  spec.failures.push_back(FailureEvent{25, {1}});
  spec.failures.push_back(FailureEvent{26, {3}});
  const SolveReport res = solve(spec);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 2u);
  EXPECT_EQ(res.recoveries[0].rung, RecoveryRung::reconstruct);
  EXPECT_EQ(res.recoveries[1].rung, RecoveryRung::reconstruct);
  EXPECT_EQ(res.recoveries[0].copies_corrupt, 0);
  EXPECT_EQ(res.recoveries[1].copies_corrupt, 0);

  // Reconstruction-exact: the reference trajectory to inner-solve accuracy.
  EXPECT_LE(std::llabs(static_cast<long long>(res.iterations) -
                       static_cast<long long>(ref.iterations)),
            1);
  EXPECT_LT(vec_rel_diff_inf(res.x, ref.x), kEsrpRecoveryTol);

  expect_reproducible_at_4_threads(spec, res);
}

TEST_F(CascadingRecovery, BackToBackFailuresInOneEsrpPeriodStayBounded) {
  // Three failures inside one period: recoveries 1-3 all replay from the
  // same stage with no storage progress between them, exercising the retry
  // budget (default max_attempts = 3 — the third one still reconstructs).
  const SolveReport ref = reference();
  ASSERT_TRUE(ref.converged);

  SolveSpec spec = base_spec();
  spec.strategy = Strategy::esrp;
  spec.interval = 20;
  spec.failures.push_back(FailureEvent{23, {1}});
  spec.failures.push_back(FailureEvent{24, {3}});
  spec.failures.push_back(FailureEvent{25, {5}});
  const SolveReport res = solve(spec);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 3u);
  for (const RecoveryRecord& rec : res.recoveries)
    EXPECT_EQ(rec.rung, RecoveryRung::reconstruct);
  EXPECT_LT(vec_rel_diff_inf(res.x, ref.x), kEsrpRecoveryTol);

  expect_reproducible_at_4_threads(spec, res);
}

TEST_F(CascadingRecovery, AllRanksFailingRestartsFromScratchBitwise) {
  const SolveReport ref = reference();
  ASSERT_TRUE(ref.converged);

  SolveSpec spec = base_spec();
  spec.strategy = Strategy::esrp;
  spec.interval = 20;
  std::vector<rank_t> all;
  for (rank_t s = 0; s < kNodes; ++s) all.push_back(s);
  spec.failures.push_back(FailureEvent{30, all});
  const SolveReport res = solve(spec);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_EQ(res.recoveries[0].rung, RecoveryRung::scratch);
  EXPECT_TRUE(res.recoveries[0].restarted_from_scratch);
  EXPECT_EQ(res.recoveries[0].ranks_lost, kNodes);

  // A single scratch restart replays the reference arithmetic verbatim.
  EXPECT_EQ(res.iterations, ref.iterations);
  EXPECT_EQ(res.final_relres, ref.final_relres);
  EXPECT_EQ(fnv1a(res.x), fnv1a(ref.x));
  EXPECT_EQ(fnv1a(res.r), fnv1a(ref.r));

  expect_reproducible_at_4_threads(spec, res);
}

TEST_F(CascadingRecovery, ShrinkPolicyShrinksThenRejoins) {
  // A failure before the first storage stage is unrecoverable; under the
  // "shrink" policy the survivors absorb the lost ranges and restart on
  // the shrunken map, and the retired rank rejoins at the next
  // storage-stage boundary. Both distributed solvers take the engine's
  // one partition change.
  TestProblem prob = resolve_matrix("poisson2d:12,12");
  const Vector rhs = xp::make_rhs(prob.matrix);
  const BlockRowPartition full(prob.matrix.rows(), kNodes);
  for (const char* solver : kDistributedSolvers) {
    SCOPED_TRACE(solver);
    SolveSpec spec = base_spec(solver);
    spec.strategy = Strategy::esrp;
    spec.interval = 20;
    spec.recovery_policy = "shrink";
    spec.failures.push_back(FailureEvent{5, {2}});
    const SolveReport res = solve(spec);
    ASSERT_TRUE(res.converged);
    ASSERT_GE(res.recoveries.size(), 2u);
    EXPECT_EQ(res.recoveries[0].rung, RecoveryRung::shrink);
    EXPECT_EQ(res.recoveries[0].ranks_absorbed, 1);
    EXPECT_EQ(res.recoveries[1].rung, RecoveryRung::rejoin);
    EXPECT_EQ(res.recoveries[1].ranks_rejoined, 1);

    // The ladder never changes the answer, only the route to it.
    EXPECT_LT(true_relative_residual(prob.matrix, rhs, res.x), 1e-7);

    // Rank 2 owns its rows again.
    Vector x;
    EXPECT_EQ(final_partition(spec, x).local_size(2), full.local_size(2));
    EXPECT_EQ(fnv1a(x), fnv1a(res.x));

    expect_reproducible_at_4_threads(spec, res);
  }
}

// ------------------------------------------------------ no-spare recovery --
// The survivors absorb the failed ranks' ranges (ref. [22]) and the solve
// continues on the repartitioned cluster: ResilientPcg's no-spare cases
// (tests/core/resilient_pcg_test.cpp) run on both distributed solvers.

using NoSpareRecovery = CascadingRecovery;

TEST_F(NoSpareRecovery, ContinuesOnSurvivors) {
  for (const char* solver : kDistributedSolvers) {
    SCOPED_TRACE(solver);
    const SolveReport ref = reference(solver);
    ASSERT_TRUE(ref.converged);

    SolveSpec spec = base_spec(solver);
    spec.strategy = Strategy::esrp;
    spec.interval = 10;
    spec.spare_nodes = false;
    spec.failures.push_back(FailureEvent{18, {3, 4}});
    const SolveReport res = solve(spec);
    ASSERT_TRUE(res.converged);
    ASSERT_EQ(res.recoveries.size(), 1u);
    EXPECT_EQ(res.recoveries[0].rung, RecoveryRung::reconstruct);
    EXPECT_EQ(res.recoveries[0].ranks_absorbed, 2);
    EXPECT_LE(std::llabs(static_cast<long long>(res.iterations) -
                         static_cast<long long>(ref.iterations)),
              1);
    EXPECT_LT(vec_rel_diff_inf(res.x, ref.x), 1e-6);

    // The failed ranks retired.
    Vector x;
    const BlockRowPartition np = final_partition(spec, x);
    EXPECT_EQ(np.local_size(3), 0);
    EXPECT_EQ(np.local_size(4), 0);
    EXPECT_EQ(fnv1a(x), fnv1a(res.x));

    expect_reproducible_at_4_threads(spec, res);
  }
}

TEST_F(NoSpareRecovery, CopiesCapturedBeforeARepartitionFeedTheNextRecovery) {
  // The first recovery replaces the solver's plans; the second event
  // reconstructs again, on the absorbed partition.
  for (const char* solver : kDistributedSolvers) {
    SCOPED_TRACE(solver);
    const SolveReport ref = reference(solver);
    ASSERT_TRUE(ref.converged);

    SolveSpec spec = base_spec(solver);
    spec.strategy = Strategy::esrp;
    spec.interval = 10;
    spec.spare_nodes = false;
    spec.failures.push_back(FailureEvent{15, {6}});
    spec.failures.push_back(FailureEvent{18, {3, 4}});
    const SolveReport res = solve(spec);
    ASSERT_TRUE(res.converged);
    ASSERT_EQ(res.recoveries.size(), 2u);
    for (const RecoveryRecord& rec : res.recoveries)
      EXPECT_EQ(rec.rung, RecoveryRung::reconstruct);
    EXPECT_LT(vec_rel_diff_inf(res.x, ref.x), 1e-6);

    Vector x;
    const BlockRowPartition np = final_partition(spec, x);
    for (rank_t s : {3, 4, 6}) EXPECT_EQ(np.local_size(s), 0) << s;
    EXPECT_EQ(fnv1a(x), fnv1a(res.x));

    expect_reproducible_at_4_threads(spec, res);
  }
}

std::vector<PropertyCase> make_cases() {
  std::vector<PropertyCase> cases;
  for (const char* solver : {"resilient-pcg", "dist-pipelined"})
    for (std::uint64_t seed = 0; seed < 25; ++seed)
      cases.push_back({solver, seed});
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<PropertyCase>& info) {
  std::string solver = info.param.solver;
  for (char& c : solver)
    if (c == '-') c = '_';
  return solver + "_seed" + std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(FiftyScenarios, ScenarioRecoveryProperty,
                         ::testing::ValuesIn(make_cases()), case_name);

} // namespace
} // namespace esrp
