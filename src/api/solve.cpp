#include "api/solve.hpp"

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
#include "service/problem_handle.hpp"
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

// ------------------------------------------------- sequential solvers ----

/// pcg_solve and pipelined_pcg_solve share one signature.
using SequentialSolve = SolveOutcome (*)(const CsrMatrix&,
                                         std::span<const real_t>,
                                         std::span<real_t>,
                                         const Preconditioner*,
                                         const PcgOptions&, SolverObserver*);

SolveReport run_sequential(const SolveContext& ctx, SequentialSolve solve) {
  const SolveSpec& spec = ctx.spec;
  const CsrMatrix& a = ctx.handle.matrix();
  Vector x(static_cast<std::size_t>(a.rows()), 0);
  if (!spec.x0.empty()) vec_copy(spec.x0, x);

  SolveReport report;
  static_cast<SolveOutcome&>(report) =
      solve(a, ctx.b, x, &ctx.handle.precond(), spec, ctx.observer);
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
  return ctx.spec.calibrated_cost
             ? xp::calibrated_cost(ctx.handle.matrix(), ctx.spec.nodes)
             : CostParams{};
}

/// Base cost parameters shaped by the spec's cluster-shape key (empty =
/// homogeneous, charging bitwise identically to the plain CostParams path).
HeterogeneousCostModel cluster_model(const SolveContext& ctx) {
  return resolve_cluster_shape(ctx.spec.cluster_shape, cluster_cost(ctx),
                               ctx.spec.nodes);
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

/// The distributed drivers: build the cluster and the solver on the
/// handle's partition, plans and preconditioner, solve, and report —
/// including the residual-accuracy metrics.
template <typename Solver>
SolveReport run_distributed(const SolveContext& ctx) {
  const ProblemHandle& handle = ctx.handle;
  const CsrMatrix& a = handle.matrix();
  SimCluster cluster(*handle.partition(), cluster_model(ctx));
  Solver solver(a, handle.precond(), cluster, resilience_options(ctx.spec),
                handle.spmv_plan(), handle.aspmv_plan());

  SolveReport report;
  static_cast<SolveOutcome&>(report) =
      solver.solve(ctx.b, ctx.spec.x0, ctx.observer);
  report.nodes = ctx.spec.nodes;
  report.drift = residual_drift(a, ctx.b, report.x, report.r);
  report.true_relres = true_relative_residual(a, ctx.b, report.x);
  return report;
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
           SolverEntry{.run = run_distributed<ResilientPcg>,
                       .distributed = true,
                       .supports_sdc = true});
    r->add("dist-pipelined",
           "distributed pipelined PCG (communication hiding) with "
           "ESRP/IMCR recovery (ref. [16])",
           SolverEntry{.run = run_distributed<DistPipelinedPcg>,
                       .distributed = true,
                       .supports_residual_replacement = false});
    return r;
  }();
  return *reg;
}

namespace detail {

SolveReport solve_prepared(const ProblemHandle& handle, const RunSpec& run,
                           SolverObserver* observer) {
  SolveSpec spec;
  static_cast<ProblemSpec&>(spec) = handle.problem();
  static_cast<SolverConfig&>(spec) = handle.config();
  static_cast<RunSpec&>(spec) = run; // owning spans re-point (solve_spec.hpp)
  spec.threads = -1;
  validate_spec(spec);

  const CsrMatrix& a = handle.matrix();
  Vector rhs_storage;
  std::span<const real_t> b = spec.rhs;
  if (b.empty()) {
    rhs_storage = xp::make_rhs(a);
    b = rhs_storage;
  }
  ESRP_CHECK_MSG(static_cast<index_t>(b.size()) == a.rows(),
                 "rhs size " << b.size() << " does not match matrix dimension "
                             << a.rows());
  ESRP_CHECK_MSG(spec.x0.empty() ||
                     static_cast<index_t>(spec.x0.size()) == a.rows(),
                 "x0 size " << spec.x0.size()
                            << " does not match matrix dimension "
                            << a.rows());

  // The one wall-clock measurement of a solve: the driver call, with the
  // handle's setup (partition, plans, factorization) excluded.
  const SolverEntry& entry = solver_registry().get(spec.solver);
  const WallTimer timer;
  SolveReport report = entry.run(SolveContext{handle, b, spec, observer});
  report.wall_seconds = timer.seconds();
  report.solver = spec.solver;
  report.precond = spec.precond;
  report.matrix = handle.name();
  report.rows = a.rows();
  report.nnz = a.nnz();
  return report;
}

} // namespace detail

SolveReport solve(const SolveSpec& spec, SolverObserver* observer) {
  validate_spec(spec);
  const ThreadOverride threads(spec.threads);
  const auto handle = ProblemHandle::borrow(spec, spec);
  return detail::solve_prepared(*handle, spec, observer);
}

} // namespace esrp
