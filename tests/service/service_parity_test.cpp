// Service-vs-facade bitwise parity: a solve routed through
// SolveService::prepare + solve — prepared matrix, partition, plans, and
// factorized preconditioner injected into the drivers — must be bitwise
// identical to the same SolveSpec through esrp::solve, for every
// registered solver, at 1 and 4 kernel threads. "Bitwise" means memcmp on
// the solution (and residual) vectors and exact scalar equality; hashes
// print in failure messages so a diverging trajectory is identifiable.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "../parallel/thread_count_guard.hpp"
#include "api/solve.hpp"
#include "parallel/parallel.hpp"
#include "service/solve_service.hpp"
#include "sparse/generators.hpp"
#include "xp/experiment.hpp"

namespace esrp {
namespace {

constexpr int kThreadCounts[] = {1, 4};

std::uint64_t fnv1a(const Vector& v) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(real_t); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

void expect_bitwise(const Vector& facade, const Vector& service,
                    const char* what) {
  ASSERT_EQ(facade.size(), service.size()) << what;
  if (facade.empty()) return; // data() may be null: memcmp(null, ..) is UB
  EXPECT_EQ(0, std::memcmp(facade.data(), service.data(),
                           facade.size() * sizeof(real_t)))
      << what << " diverges: facade fnv=" << std::hex << fnv1a(facade)
      << " service fnv=" << fnv1a(service);
}

void expect_report_parity(const SolveReport& facade,
                          const SolveReport& service) {
  EXPECT_EQ(facade.converged, service.converged);
  EXPECT_EQ(facade.iterations, service.iterations);
  EXPECT_EQ(facade.executed_iterations, service.executed_iterations);
  {
    std::ostringstream msg;
    msg << std::hexfloat << "relres facade=" << facade.final_relres
        << " service=" << service.final_relres;
    EXPECT_EQ(facade.final_relres, service.final_relres) << msg.str();
  }
  EXPECT_EQ(facade.modeled_time, service.modeled_time);
  EXPECT_EQ(facade.recoveries.size(), service.recoveries.size());
  expect_bitwise(facade.x, service.x, "x");
  expect_bitwise(facade.r, service.r, "r");
}

class ServiceParity : public ::testing::Test {
protected:
  /// Facade and service solves of `spec` at 1 and 4 threads. The second
  /// service round trips the plan cache warm (hit == true) and must still
  /// match — a cached handle is the same handle.
  void check_parity(SolveSpec spec) {
    SolveService service;
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE(threads);
      set_num_threads(threads);
      const SolveReport facade = solve(spec);

      const PrepareResult cold = service.prepare(spec);
      const SolveReport routed = service.solve(*cold.handle, spec);
      expect_report_parity(facade, routed);

      const PrepareResult warm = service.prepare(spec);
      EXPECT_TRUE(warm.cache_hit);
      EXPECT_EQ(cold.handle.get(), warm.handle.get());
      const SolveReport rewarmed = service.solve(*warm.handle, spec);
      expect_report_parity(facade, rewarmed);
    }
  }

  ThreadCountGuard guard_;
};

TEST_F(ServiceParity, SequentialPcg) {
  SolveSpec spec;
  spec.matrix = "poisson2d:24,24";
  spec.solver = "pcg";
  spec.precond = "jacobi";
  check_parity(spec);
}

TEST_F(ServiceParity, SequentialPipelinedSsor) {
  SolveSpec spec;
  spec.matrix = "poisson2d:24,24";
  spec.solver = "pipelined";
  spec.precond = "ssor";
  check_parity(spec);
}

TEST_F(ServiceParity, ResilientPcgEsrpWithFailure) {
  SolveSpec spec;
  spec.matrix = "poisson2d:24,24";
  spec.solver = "resilient-pcg";
  spec.precond = "block-jacobi";
  spec.nodes = 8;
  spec.strategy = Strategy::esrp;
  spec.interval = 10;
  spec.phi = 1;
  spec.failures.push_back(FailureEvent{25, {0}});
  check_parity(spec);
}

TEST_F(ServiceParity, DistPipelinedEsrp) {
  SolveSpec spec;
  spec.matrix = "poisson2d:24,24";
  spec.solver = "dist-pipelined";
  spec.precond = "block-jacobi";
  spec.nodes = 8;
  spec.strategy = Strategy::esrp;
  spec.interval = 10;
  spec.phi = 1;
  spec.failures.push_back(FailureEvent{25, {0}});
  check_parity(spec);
}

// The ASpMV plan is prepared only for the esrp strategy, the one strategy
// that reads it, at the config's phi. Solves under every strategy still
// match the facade bitwise.
TEST_F(ServiceParity, AspmvPlanPreparedOnlyForEsrp) {
  for (const char* solver : {"resilient-pcg", "dist-pipelined"}) {
    for (const Strategy strategy :
         {Strategy::none, Strategy::esrp, Strategy::imcr}) {
      SCOPED_TRACE(std::string(solver) + " " + to_string(strategy));
      SolveSpec spec;
      spec.matrix = "poisson2d:24,24";
      spec.solver = solver;
      spec.precond = "block-jacobi";
      spec.nodes = 8;
      spec.strategy = strategy;
      spec.interval = 10;
      spec.phi = 2;
      spec.failures.push_back(FailureEvent{25, {0, 1}});

      SolveService service;
      const PrepareResult prep = service.prepare(spec);
      const ProblemHandle& handle = *prep.handle;
      EXPECT_NE(handle.spmv_plan(), nullptr);
      if (strategy == Strategy::esrp) {
        ASSERT_NE(handle.aspmv_plan(), nullptr);
        EXPECT_EQ(handle.aspmv_plan()->phi(), spec.phi);
      } else {
        EXPECT_EQ(handle.aspmv_plan(), nullptr);
      }
      check_parity(spec);
    }
  }
}

// A problem larger than the reduction grain (2^14 entries), so the 4-thread
// runs genuinely fan out and the prepared-parts path is exercised under the
// chunked deterministic reductions, not just the small-n serial path.
TEST_F(ServiceParity, PcgAboveReductionGrain) {
  SolveSpec spec;
  spec.matrix = "poisson2d:150,150"; // 22500 rows > kReduceGrain
  spec.solver = "pcg";
  spec.precond = "jacobi";
  check_parity(spec);
}

// A caller-supplied matrix (ProblemSpec::matrix_data) must behave like a
// registry matrix: the handle copies it, and the solve matches the facade
// borrowing the caller's buffer.
TEST_F(ServiceParity, CallerSuppliedMatrixData) {
  const TestProblem prob = resolve_matrix("poisson3d:8,8,8");
  SolveSpec spec;
  spec.matrix_data = &prob.matrix;
  spec.matrix_name = prob.name;
  spec.solver = "pcg";
  spec.precond = "jacobi";
  check_parity(spec);
}

// The per-session thread budget must reproduce the global setting bitwise:
// a solve under ThreadBudget(4) (service RunSpec::threads = 4, global count
// left at 1) equals the facade solve at global 4 threads.
TEST_F(ServiceParity, ThreadBudgetMatchesGlobalCount) {
  SolveSpec spec;
  spec.matrix = "poisson2d:150,150";
  spec.solver = "pcg";
  spec.precond = "jacobi";

  set_num_threads(4);
  const SolveReport facade = solve(spec);

  set_num_threads(1);
  SolveService service;
  const PrepareResult prep = service.prepare(spec);
  SolveSpec budgeted = spec;
  budgeted.threads = 4;
  const SolveReport routed = service.solve(*prep.handle, budgeted);
  expect_report_parity(facade, routed);
}

} // namespace
} // namespace esrp
