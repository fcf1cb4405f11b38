// End-to-end guard for the kernel determinism contract: the fused solver
// loops must reproduce these pinned trajectories bit-for-bit at fixed
// thread counts. The golden rows were first captured before the hot loops
// were rewired through common/fused.hpp (PR 4), then re-versioned ONCE —
// explicitly, as docs/parallelism.md sanctions — when the SIMD layer
// (common/simd.hpp) changed every sum-reduction's within-chunk association
// to the fixed 4-lane order. They are captured from that lane-ordered
// contract and must now stay stable across thread counts, ISAs
// (scalar/SSE2/AVX2), and the ESRP_FORCE_SCALAR fallback build — relres
// and flops as exact hexfloat bits, solution/residual vectors as
// FNV-1a-64 hashes over their raw bytes. Any kernel change that moves a
// single ULP anywhere in a trajectory changes a hash and fails here.
//
// The 1- and 4-thread rows of the large cases genuinely differ (chunked
// reductions), so both the serial and the multi-chunk fused paths are
// pinned. The resilient rows run a two-event failure/recovery schedule
// (ESRP reconstruction), an IMCR restore with nonzero initial guess and
// residual replacement, and the distributed pipelined solver with and
// without a failure.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <tuple>

#include "../parallel/thread_count_guard.hpp"
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

std::uint64_t fnv1a(const Vector& v) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(real_t); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

struct Golden {
  int threads;
  bool converged;
  std::int64_t iterations;
  real_t final_relres;
  double flops_or_executed; ///< flops (sequential) / executed (distributed)
  std::uint64_t x_hash;
  std::uint64_t r_hash; ///< 0 where the solver does not expose r
};

// clang-format off
constexpr Golden kPcgSmall[] = {
    {1, true, 51, 0x1.4e2430a2fc6aep-27, 0x1.228p+18, 0x2566b9d55b6bec24ull, 0},
    {4, true, 51, 0x1.4e2430a2fc6aep-27, 0x1.228p+18, 0x2566b9d55b6bec24ull, 0},
};
constexpr Golden kPcgLarge[] = {
    {1, true, 603, 0x1.487d050692d94p-27, 0x1.085bp+29, 0x00181c8e44833af0ull, 0},
    {4, true, 603, 0x1.487d050692d22p-27, 0x1.085bp+29, 0x3128a295a730f1bbull, 0},
};
constexpr Golden kPipeSmall[] = {
    {1, true, 45, 0x1.07e2ef8135ec5p-27, 0x1.0f3cp+19, 0xb814475ec5a3b016ull, 0},
    {4, true, 45, 0x1.07e2ef8135ec5p-27, 0x1.0f3cp+19, 0xb814475ec5a3b016ull, 0},
};
constexpr Golden kPipeLarge[] = {
    {1, true, 487, 0x1.4ea2b636ed607p-27, 0x1.e38572p+29, 0x357fc9ea590a2bc6ull, 0},
    {4, true, 487, 0x1.4ea5da0d7b211p-27, 0x1.e38572p+29, 0x700ba7900a9f1e30ull, 0},
};
constexpr Golden kResilientEsrp[] = {
    {1, true, 46, 0x1.cd74c392c15fp-28, 53, 0x1a7e778ad37153dcull, 0x7c8f5a43799b12dcull},
    {4, true, 46, 0x1.cd74c392c15fp-28, 53, 0x1a7e778ad37153dcull, 0x7c8f5a43799b12dcull},
};
constexpr Golden kResilientImcr[] = {
    {1, true, 46, 0x1.e117cee994124p-28, 50, 0x06066dc7adbbbd8dull, 0x4e3a865e6320584dull},
    {4, true, 46, 0x1.e117cee994124p-28, 50, 0x06066dc7adbbbd8dull, 0x4e3a865e6320584dull},
};
constexpr Golden kDistPipeImcr[] = {
    {1, true, 46, 0x1.cd74c1c42353p-28, 64, 0x952effc8a88af50bull, 0xb7a455f1106968caull},
    {4, true, 46, 0x1.cd74c1c42353p-28, 64, 0x952effc8a88af50bull, 0xb7a455f1106968caull},
};
constexpr Golden kDistPipePlain[] = {
    {1, true, 46, 0x1.cd74c1c42353p-28, 46, 0x952effc8a88af50bull, 0xb7a455f1106968caull},
    {4, true, 46, 0x1.cd74c1c42353p-28, 46, 0x952effc8a88af50bull, 0xb7a455f1106968caull},
};
// clang-format on

class FusedSolverParity : public ::testing::Test {
protected:
  FusedSolverParity()
      : small_(poisson2d(16, 16)),
        large_(poisson2d(200, 200)),
        b_small_(xp::make_rhs(small_)),
        b_large_(xp::make_rhs(large_)) {}

  ThreadCountGuard guard_;
  CsrMatrix small_, large_;
  Vector b_small_, b_large_;
};

TEST_F(FusedSolverParity, SequentialPcgMatchesPreFusionPin) {
  for (const auto& [matrix, b, goldens] :
       {std::tuple{&small_, &b_small_, std::span<const Golden>(kPcgSmall)},
        std::tuple{&large_, &b_large_, std::span<const Golden>(kPcgLarge)}}) {
    const JacobiPreconditioner precond(*matrix);
    for (const Golden& g : goldens) {
      SCOPED_TRACE(testing::Message()
                   << "rows=" << matrix->rows() << " threads=" << g.threads);
      set_num_threads(g.threads);
      Vector x(b->size(), 0);
      const SolveOutcome r = pcg_solve(*matrix, *b, x, &precond);
      EXPECT_EQ(g.converged, r.converged);
      EXPECT_EQ(g.iterations, r.iterations);
      EXPECT_EQ(g.final_relres, r.final_relres);
      EXPECT_EQ(g.flops_or_executed, r.flops);
      EXPECT_EQ(g.x_hash, fnv1a(x));
    }
  }
}

TEST_F(FusedSolverParity, SequentialPipelinedMatchesPreFusionPin) {
  for (const auto& [matrix, b, goldens] :
       {std::tuple{&small_, &b_small_, std::span<const Golden>(kPipeSmall)},
        std::tuple{&large_, &b_large_, std::span<const Golden>(kPipeLarge)}}) {
    const BlockJacobiPreconditioner precond(*matrix, 10);
    for (const Golden& g : goldens) {
      SCOPED_TRACE(testing::Message()
                   << "rows=" << matrix->rows() << " threads=" << g.threads);
      set_num_threads(g.threads);
      Vector x(b->size(), 0);
      const SolveOutcome r = pipelined_pcg_solve(*matrix, *b, x, &precond);
      EXPECT_EQ(g.converged, r.converged);
      EXPECT_EQ(g.iterations, r.iterations);
      EXPECT_EQ(g.final_relres, r.final_relres);
      EXPECT_EQ(g.flops_or_executed, r.flops);
      EXPECT_EQ(g.x_hash, fnv1a(x));
    }
  }
}

TEST_F(FusedSolverParity, ResilientEsrpTwoFailureScheduleMatchesPreFusionPin) {
  const rank_t nodes = 8;
  for (const Golden& g : kResilientEsrp) {
    SCOPED_TRACE(g.threads);
    set_num_threads(g.threads);
    const BlockRowPartition part(small_.rows(), nodes);
    SimCluster cluster(part, xp::calibrated_cost(small_, nodes));
    const BlockJacobiPreconditioner precond(small_, part, 10);
    ResilienceOptions opts;
    opts.strategy = Strategy::esrp;
    opts.interval = 5;
    opts.phi = 2;
    opts.extra_failures.push_back(
        FailureEvent{12, contiguous_ranks(2, 2, nodes)});
    opts.extra_failures.push_back(
        FailureEvent{25, contiguous_ranks(5, 1, nodes)});
    ResilientPcg solver(small_, precond, cluster, opts);
    const SolveOutcome r = solver.solve(b_small_);
    EXPECT_EQ(g.converged, r.converged);
    EXPECT_EQ(g.iterations, r.iterations);
    EXPECT_EQ(g.final_relres, r.final_relres);
    EXPECT_EQ(g.flops_or_executed,
              static_cast<double>(r.executed_iterations));
    EXPECT_EQ(g.x_hash, fnv1a(r.x));
    EXPECT_EQ(g.r_hash, fnv1a(r.r));
    ASSERT_EQ(2u, r.recoveries.size());
    EXPECT_EQ(11, r.recoveries[0].restored_to);
    EXPECT_EQ(21, r.recoveries[1].restored_to);
  }
}

TEST_F(FusedSolverParity, ResilientImcrRestartWithX0MatchesPreFusionPin) {
  const rank_t nodes = 8;
  for (const Golden& g : kResilientImcr) {
    SCOPED_TRACE(g.threads);
    set_num_threads(g.threads);
    const BlockRowPartition part(small_.rows(), nodes);
    SimCluster cluster(part, xp::calibrated_cost(small_, nodes));
    const BlockJacobiPreconditioner precond(small_, part, 10);
    ResilienceOptions opts;
    opts.strategy = Strategy::imcr;
    opts.interval = 6;
    opts.phi = 2;
    opts.residual_replacement = 10;
    opts.extra_failures.push_back(
        FailureEvent{15, contiguous_ranks(1, 2, nodes)});
    ResilientPcg solver(small_, precond, cluster, opts);
    const Vector x0(b_small_.size(), 0.5);
    const SolveOutcome r = solver.solve(b_small_, x0);
    EXPECT_EQ(g.converged, r.converged);
    EXPECT_EQ(g.iterations, r.iterations);
    EXPECT_EQ(g.final_relres, r.final_relres);
    EXPECT_EQ(g.flops_or_executed,
              static_cast<double>(r.executed_iterations));
    EXPECT_EQ(g.x_hash, fnv1a(r.x));
    EXPECT_EQ(g.r_hash, fnv1a(r.r));
  }
}

TEST_F(FusedSolverParity, DistPipelinedMatchesPreFusionPin) {
  const rank_t nodes = 8;
  for (const bool with_failure : {true, false}) {
    for (const Golden& g : with_failure ? kDistPipeImcr : kDistPipePlain) {
      SCOPED_TRACE(testing::Message()
                   << "failure=" << with_failure << " threads=" << g.threads);
      set_num_threads(g.threads);
      const BlockRowPartition part(small_.rows(), nodes);
      SimCluster cluster(part, xp::calibrated_cost(small_, nodes));
      const BlockJacobiPreconditioner precond(small_, part, 10);
      ResilienceOptions opts;
      if (with_failure) {
        opts.strategy = Strategy::imcr;
        opts.interval = 10;
        opts.phi = 2;
        opts.extra_failures.push_back(
            FailureEvent{17, contiguous_ranks(1, 3, nodes)});
      }
      DistPipelinedPcg solver(small_, precond, cluster, opts);
      const SolveOutcome r = solver.solve(b_small_);
      EXPECT_EQ(g.converged, r.converged);
      EXPECT_EQ(g.iterations, r.iterations);
      EXPECT_EQ(g.final_relres, r.final_relres);
      EXPECT_EQ(g.flops_or_executed,
                static_cast<double>(r.executed_iterations));
      EXPECT_EQ(g.x_hash, fnv1a(r.x));
      EXPECT_EQ(g.r_hash, fnv1a(r.r));
    }
  }
}

/// Facade-routed solves hit the same pins: the fused loops sit behind
/// esrp::solve unchanged (the PR 3 parity guarantee).
TEST_F(FusedSolverParity, FacadeRoutedSolveMatchesPreFusionPin) {
  for (const Golden& g : kPcgSmall) {
    SCOPED_TRACE(g.threads);
    set_num_threads(g.threads);
    SolveSpec spec;
    spec.matrix_data = &small_;
    spec.rhs = b_small_;
    spec.solver = "pcg";
    spec.precond = "jacobi";
    const SolveReport report = solve(spec);
    EXPECT_EQ(g.converged, report.converged);
    EXPECT_EQ(g.iterations, report.iterations);
    EXPECT_EQ(g.final_relres, report.final_relres);
    EXPECT_EQ(g.flops_or_executed, report.flops);
    EXPECT_EQ(g.x_hash, fnv1a(report.x));
  }
}

/// Flop accounting audit (fused kernels must report the unfused sequence's
/// counts): with the identity preconditioner the totals have a closed form.
/// PCG: init spmv + 4n, each executed body spmv + 12n. Pipelined: init
/// 2 spmv, each loop top 6n, each executed body spmv + 16n.
TEST_F(FusedSolverParity, FusedFlopAccountingMatchesUnfusedFormula) {
  const CsrMatrix a = poisson2d(30, 30);
  const Vector b = xp::make_rhs(a);
  const double spmv = static_cast<double>(a.spmv_flops());
  const double n = static_cast<double>(a.rows());

  Vector x(b.size(), 0);
  const SolveOutcome pcg = pcg_solve(a, b, x, nullptr);
  ASSERT_TRUE(pcg.converged);
  const double j = static_cast<double>(pcg.iterations);
  EXPECT_EQ(spmv + 4 * n + j * (spmv + 12 * n), pcg.flops);

  Vector xp2(b.size(), 0);
  const SolveOutcome pipe = pipelined_pcg_solve(a, b, xp2, nullptr);
  ASSERT_TRUE(pipe.converged);
  const double jp = static_cast<double>(pipe.iterations);
  EXPECT_EQ(2 * spmv + (jp + 1) * 6 * n + jp * (spmv + 16 * n), pipe.flops);
}

} // namespace
} // namespace esrp
