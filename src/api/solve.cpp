#include "api/solve.hpp"

#include <cstdint>
#include <optional>
#include <utility>

#include "api/registry.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/metrics.hpp"
#include "core/resilient_pcg.hpp"
#include "netsim/cluster.hpp"
#include "parallel/parallel.hpp"
#include "pipelined/dist_pipelined_pcg.hpp"
#include "pipelined/pipelined_pcg.hpp"
#include "scenario/cluster_shape.hpp"
#include "solver/pcg.hpp"
#include "xp/experiment.hpp"

namespace esrp {

namespace {

/// Apply spec.threads for the duration of one solve and restore the global
/// setting afterwards (threads = -1 keeps the caller's setting untouched).
class ThreadOverride {
public:
  explicit ThreadOverride(int threads) {
    if (threads >= 0) {
      saved_ = num_threads();
      set_num_threads(threads);
    }
  }
  ~ThreadOverride() {
    if (saved_ >= 0) set_num_threads(saved_);
  }
  ThreadOverride(const ThreadOverride&) = delete;
  ThreadOverride& operator=(const ThreadOverride&) = delete;

private:
  int saved_ = -1;
};

/// The preconditioner for this solve: the prepared handle's factorization
/// when one was injected, else a fresh factorization (stored in `owned`).
/// Both paths factorize from the same inputs, so they are interchangeable
/// bitwise — the service's warm path just skips the work.
const Preconditioner& resolve_precond(const SolveContext& ctx,
                                      const BlockRowPartition* part,
                                      std::unique_ptr<Preconditioner>& owned) {
  if (ctx.prepared != nullptr && ctx.prepared->precond != nullptr)
    return *ctx.prepared->precond;
  owned = precond_registry().get(ctx.spec.precond).make(
      PrecondContext{ctx.a, part, ctx.spec});
  return *owned;
}

// ------------------------------------------------- sequential solvers ----

/// pcg_solve and pipelined_pcg_solve share one signature.
using SequentialSolve = SolveOutcome (*)(const CsrMatrix&,
                                         std::span<const real_t>,
                                         std::span<real_t>,
                                         const Preconditioner*,
                                         const PcgOptions&, SolverObserver*);

SolveReport run_sequential(const SolveContext& ctx, SequentialSolve solve) {
  const SolveSpec& spec = ctx.spec;
  std::unique_ptr<Preconditioner> owned;
  const Preconditioner& precond = resolve_precond(ctx, nullptr, owned);
  Vector x(static_cast<std::size_t>(ctx.a.rows()), 0);
  if (!spec.x0.empty()) vec_copy(spec.x0, x);

  SolveReport report;
  static_cast<SolveOutcome&>(report) =
      solve(ctx.a, ctx.b, x, &precond, spec, ctx.observer);
  report.x = std::move(x);
  return report;
}

SolveReport run_pcg(const SolveContext& ctx) {
  return run_sequential(ctx, pcg_solve);
}

SolveReport run_pipelined(const SolveContext& ctx) {
  return run_sequential(ctx, pipelined_pcg_solve);
}

// ------------------------------------------------ distributed solvers ----

CostParams cluster_cost(const SolveContext& ctx) {
  return ctx.spec.calibrated_cost ? xp::calibrated_cost(ctx.a, ctx.spec.nodes)
                                  : CostParams{};
}

/// Base cost parameters shaped by the spec's cluster-shape key (empty =
/// homogeneous, charging bitwise identically to the plain CostParams path).
HeterogeneousCostModel cluster_model(const SolveContext& ctx) {
  return resolve_cluster_shape(ctx.spec.cluster_shape, cluster_cost(ctx),
                               ctx.spec.nodes);
}

/// Partition for a distributed solve: the prepared handle's (so the shared
/// plans' partition identity checks hold) or a locally built one. Both are
/// the same deterministic block-row split of (rows, nodes).
const BlockRowPartition& resolve_partition(
    const SolveContext& ctx, std::optional<BlockRowPartition>& local) {
  if (ctx.prepared != nullptr && ctx.prepared->part != nullptr) {
    ESRP_CHECK_MSG(ctx.prepared->part->num_nodes() == ctx.spec.nodes &&
                       ctx.prepared->part->global_size() == ctx.a.rows(),
                   "prepared partition does not match this spec's "
                   "(rows, nodes)");
    return *ctx.prepared->part;
  }
  local.emplace(ctx.a.rows(), ctx.spec.nodes);
  return *local;
}

/// The one SolveSpec -> ResilienceOptions mapping both distributed solvers
/// consume; fields a solver does not implement are rejected by
/// validate_spec before they get here.
ResilienceOptions resilience_options(const SolveSpec& spec) {
  ResilienceOptions opts;
  static_cast<SolverOptions&>(opts) = spec;
  opts.policy = recovery_policy_from_string(spec.recovery_policy);
  opts.extra_failures = spec.failures;
  opts.sdc_events = spec.sdc_events;
  opts.sdc_threshold = spec.sdc_threshold;
  return opts;
}

/// Shared body of the distributed drivers: build the cluster, the
/// preconditioner and the solver (borrowing the prepared plans when they
/// match this solve's phi), run `solve` on it, and report — including the
/// residual-accuracy metrics.
template <typename Solver, typename Solve>
SolveReport run_distributed(const SolveContext& ctx, Solve solve) {
  std::optional<BlockRowPartition> local_part;
  const BlockRowPartition& part = resolve_partition(ctx, local_part);
  SimCluster cluster(part, cluster_model(ctx));
  std::unique_ptr<Preconditioner> owned;
  const Preconditioner& precond = resolve_precond(ctx, &part, owned);
  const ResilienceOptions opts = resilience_options(ctx.spec);

  // Shared plans ride along only when they match this solve (same phi);
  // otherwise the solver builds its own, exactly as before.
  const SpmvPlan* plan =
      ctx.prepared != nullptr ? ctx.prepared->spmv : nullptr;
  const AspmvPlan* aug = nullptr;
  if (plan != nullptr && ctx.prepared->aspmv != nullptr &&
      ctx.prepared->aspmv->phi() == opts.phi)
    aug = ctx.prepared->aspmv;
  Solver solver(ctx.a, precond, cluster, opts, plan, aug);

  SolveReport report;
  static_cast<SolveOutcome&>(report) = solve(solver);
  report.nodes = ctx.spec.nodes;
  report.drift = residual_drift(ctx.a, ctx.b, report.x, report.r);
  report.true_relres = true_relative_residual(ctx.a, ctx.b, report.x);
  return report;
}

SolveReport run_resilient(const SolveContext& ctx) {
  return run_distributed<ResilientPcg>(ctx, [&](ResilientPcg& solver) {
    return solver.solve(ctx.b, ctx.spec.x0, ctx.observer);
  });
}

SolveReport run_dist_pipelined(const SolveContext& ctx) {
  return run_distributed<DistPipelinedPcg>(ctx, [&](DistPipelinedPcg& solver) {
    return solver.solve(ctx.b, ctx.observer);
  });
}

} // namespace

Registry<SolverEntry>& solver_registry() {
  static Registry<SolverEntry>* reg = [] {
    auto* r = new Registry<SolverEntry>("solver");
    r->add("pcg", "sequential preconditioned CG (paper Alg. 1)",
           SolverEntry{.run = run_pcg});
    r->add("pipelined",
           "sequential pipelined PCG (Ghysels & Vanroose, one fused "
           "reduction)",
           SolverEntry{.run = run_pipelined});
    r->add("resilient-pcg",
           "distributed PCG on the simulated cluster with ESRP/IMCR "
           "recovery (paper Alg. 3)",
           SolverEntry{.run = run_resilient,
                       .distributed = true,
                       .max_failure_events = SIZE_MAX,
                       .supports_esrp = true,
                       .supports_no_spare = true,
                       .supports_sdc = true,
                       .supports_shrink = true});
    r->add("dist-pipelined",
           "distributed pipelined PCG (communication hiding) with "
           "ESRP/IMCR recovery (ref. [16])",
           SolverEntry{.run = run_dist_pipelined,
                       .distributed = true,
                       .max_failure_events = SIZE_MAX,
                       .supports_esrp = true,
                       .supports_no_spare = false,
                       .supports_residual_replacement = false,
                       .supports_x0 = false});
    return r;
  }();
  return *reg;
}

namespace detail {

SolveReport run_resolved(const SolveSpec& spec, const CsrMatrix& a,
                         const std::string& name, std::span<const real_t> b,
                         SolverObserver* observer,
                         const PreparedParts* prepared) {
  const SolverEntry& entry = solver_registry().get(spec.solver);
  ESRP_CHECK_MSG(a.rows() == a.cols(), "solve() needs a square matrix");
  ESRP_CHECK_MSG(static_cast<index_t>(b.size()) == a.rows(),
                 "rhs size " << b.size() << " does not match matrix dimension "
                             << a.rows());
  ESRP_CHECK_MSG(spec.x0.empty() ||
                     static_cast<index_t>(spec.x0.size()) == a.rows(),
                 "x0 size " << spec.x0.size()
                            << " does not match matrix dimension "
                            << a.rows());

  // The one wall-clock measurement of a solve: everything the driver does,
  // per-solve setup included (a prepared handle has amortized its share).
  const WallTimer timer;
  SolveReport report = entry.run(SolveContext{a, b, spec, observer, prepared});
  report.wall_seconds = timer.seconds();
  report.solver = spec.solver;
  report.precond = spec.precond;
  report.matrix = name;
  report.rows = a.rows();
  report.nnz = a.nnz();
  return report;
}

} // namespace detail

SolveReport solve(const SolveSpec& spec, SolverObserver* observer) {
  validate_spec(spec);

  // Resolve the problem: borrowed matrix or registry-built one.
  TestProblem built;
  const CsrMatrix* a = spec.matrix_data;
  std::string name = spec.matrix_name.empty() ? "custom" : spec.matrix_name;
  if (a == nullptr) {
    built = resolve_matrix(spec.matrix);
    a = &built.matrix;
    name = built.name;
  }

  Vector rhs_storage;
  std::span<const real_t> b = spec.rhs;
  if (b.empty()) {
    rhs_storage = xp::make_rhs(*a);
    b = rhs_storage;
  }

  const ThreadOverride threads(spec.threads);
  return detail::run_resolved(spec, *a, name, b, observer, nullptr);
}

} // namespace esrp
