// SolveService — the prepare/solve split over the esrp::solve facade.
//
//   SolveService svc;
//   SolverConfig config;
//   config.solver = "pcg";
//   auto [handle, hit] =
//       svc.prepare(ProblemSpec{.matrix = "poisson2d:24,24"}, config);
//   SolveReport report = svc.solve(*handle, RunSpec{});
//
// prepare() amortizes everything that does not depend on the right-hand
// side — matrix assembly, partitioning, SpMV/ASpMV communication plans,
// preconditioner factorization — into a ProblemHandle stored in a keyed
// LRU PlanCache; repeat prepares of the same problem are cache hits that
// do zero re-factorization. solve() then routes the per-run half (rhs, x0,
// failure schedule, thread budget) through the exact same registry drivers
// as esrp::solve, injecting the prepared parts, so a service-routed solve
// is bitwise identical to the facade (tests/service/service_parity_test).
//
// Sessions: submit() multiplexes solves onto up to max_sessions service
// worker threads, each applying a per-session ThreadBudget
// (parallel/parallel.hpp) instead of mutating the process-global thread
// count — N sessions with budgets that sum to the machine share the pool
// without interfering, and each session's solve stays deterministic at a
// fixed budget.
#pragma once

#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "api/solve_spec.hpp"
#include "common/thread_annotations.hpp"
#include "service/plan_cache.hpp"
#include "service/problem_handle.hpp"

namespace esrp {

struct ServiceOptions {
  /// LRU bound on cached prepared handles.
  std::size_t cache_capacity = 16;
  /// Concurrent solve sessions backing submit(); lazily spawned.
  int max_sessions = 4;
};

struct PrepareResult {
  std::shared_ptr<const ProblemHandle> handle;
  /// True when the handle came out of the plan cache (no re-preparation).
  bool cache_hit = false;
};

/// Per-submit session parameters.
struct SessionOptions {
  /// Thread budget for this session's solve: -1 defers to RunSpec::threads,
  /// 0 pins the hardware concurrency, n > 0 pins exactly n. Budgets are
  /// thread-local overrides (parallel/parallel.hpp) — they never touch the
  /// global thread count, so concurrent sessions cannot perturb each other.
  int threads = -1;
};

class SolveService {
public:
  explicit SolveService(ServiceOptions opts = {});
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Resolve (problem, config) to a prepared handle: cache hit when an
  /// equal content key is resident, else build and insert. Thread-safe.
  PrepareResult prepare(const ProblemSpec& problem, const SolverConfig& config);
  /// Convenience: prepare from a legacy aggregate spec (slices the two
  /// prepare-relevant bases).
  PrepareResult prepare(const SolveSpec& spec) { return prepare(spec, spec); }

  /// Run one solve against a prepared handle. `run.rhs` empty means the
  /// experiment-standard rhs, drawn per solve (xp::make_rhs). Validates the
  /// assembled spec, applies the RunSpec thread budget, and dispatches through
  /// detail::run_resolved with the handle's prepared parts. Thread-safe:
  /// any number of threads may solve against the same handle.
  SolveReport solve(const ProblemHandle& handle, const RunSpec& run,
                    SolverObserver* observer = nullptr) const;

  /// Enqueue a solve on the session workers and return its future. The
  /// handle is held by shared_ptr for the duration (safe against cache
  /// eviction); the RunSpec is taken by value (its owning storage moves
  /// with it — see RunSpec::take_rhs). Errors surface through the future.
  std::future<SolveReport> submit(std::shared_ptr<const ProblemHandle> handle,
                                  RunSpec run, SessionOptions session = {});

  PlanCache::Stats cache_stats() const { return cache_.stats(); }
  void clear_cache() { cache_.clear(); }

private:
  SolveSpec assemble(const ProblemHandle& handle, const RunSpec& run) const;
  void session_loop();

  ServiceOptions opts_;
  mutable PlanCache cache_;

  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> jobs_ ESRP_GUARDED_BY(mu_);
  // Lazily spawned by submit(); swapped out under the lock and joined in the
  // destructor. Session workers are the one sanctioned std::thread use
  // outside src/parallel (they multiplex solves, they are not kernel
  // executors), blessed for esrp_lint below.
  std::vector<std::thread> sessions_ ESRP_GUARDED_BY(mu_); // esrp-lint: allow(raw-thread)
  bool stop_ ESRP_GUARDED_BY(mu_) = false;
};

} // namespace esrp
