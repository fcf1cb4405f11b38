#include "service/solve_service.hpp"

#include <utility>

#include "api/registry.hpp"
#include "api/solve.hpp"
#include "common/error.hpp"
#include "parallel/parallel.hpp"
#include "xp/experiment.hpp"

namespace esrp {

namespace {

/// RunSpec::threads / SessionOptions::threads -> ThreadBudget argument:
/// negative defers to the caller's ambient setting (inactive budget), 0
/// pins the hardware concurrency, n pins exactly n. Mirrors the facade's
/// ThreadOverride semantics, but as a thread-local budget so concurrent
/// sessions never touch the global count.
int resolve_budget(int threads) {
  if (threads < 0) return 0; // ThreadBudget(0) is inactive
  if (threads == 0) return hardware_threads();
  return threads;
}

} // namespace

SolveService::SolveService(ServiceOptions opts)
    : opts_(opts), cache_(opts.cache_capacity) {
  if (opts_.max_sessions < 1)
    throw Error("ServiceOptions::max_sessions must be >= 1, got " +
                std::to_string(opts_.max_sessions));
}

SolveService::~SolveService() {
  // Swap the workers out under the lock (sessions_ is guarded); join
  // outside it so a session draining its last job can still take mu_.
  std::vector<std::thread> sessions; // esrp-lint: allow(raw-thread)
  {
    MutexLock lock(mu_);
    stop_ = true;
    sessions.swap(sessions_);
  }
  cv_.notify_all();
  for (std::thread& t : sessions) t.join(); // esrp-lint: allow(raw-thread)
}

PrepareResult SolveService::prepare(const ProblemSpec& problem,
                                    const SolverConfig& config) {
  std::string key = ProblemHandle::content_key(problem, config);
  if (auto cached = cache_.find(key)) return PrepareResult{cached, true};
  auto handle = ProblemHandle::build(problem, config, std::move(key));
  cache_.insert(handle->key(), handle);
  return PrepareResult{handle, false};
}

SolveSpec SolveService::assemble(const ProblemHandle& handle,
                                 const RunSpec& run) const {
  SolveSpec spec;
  static_cast<ProblemSpec&>(spec) = handle.problem();
  static_cast<SolverConfig&>(spec) = handle.config();
  static_cast<RunSpec&>(spec) = run; // owning spans re-point (solve_spec.hpp)
  // The handle's matrix is the problem; the thread budget is applied by the
  // caller (never through the facade's global override).
  spec.matrix_data = &handle.matrix();
  spec.matrix_name = handle.name();
  spec.threads = -1;
  return spec;
}

SolveReport SolveService::solve(const ProblemHandle& handle, const RunSpec& run,
                                SolverObserver* observer) const {
  const SolveSpec spec = assemble(handle, run);
  validate_spec(spec);
  Vector rhs_storage;
  std::span<const real_t> b = spec.rhs;
  if (b.empty()) {
    rhs_storage = xp::make_rhs(handle.matrix());
    b = rhs_storage;
  }
  const ThreadBudget budget(resolve_budget(run.threads));
  const PreparedParts parts = handle.parts();
  return detail::run_resolved(spec, handle.matrix(), handle.name(), b,
                              observer, &parts);
}

std::future<SolveReport> SolveService::submit(
    std::shared_ptr<const ProblemHandle> handle, RunSpec run,
    SessionOptions session) {
  ESRP_CHECK_MSG(handle != nullptr, "submit() needs a prepared handle");
  auto promise = std::make_shared<std::promise<SolveReport>>();
  std::future<SolveReport> future = promise->get_future();
  {
    MutexLock lock(mu_);
    if (stop_) throw Error("SolveService is shutting down");
    while (static_cast<int>(sessions_.size()) < opts_.max_sessions)
      sessions_.emplace_back([this] { session_loop(); });
    jobs_.emplace_back([this, handle = std::move(handle), run = std::move(run),
                        session, promise]() mutable {
      try {
        if (session.threads >= 0) run.threads = session.threads;
        promise->set_value(solve(*handle, run));
      } catch (...) {
        promise->set_exception(std::current_exception());
      }
    });
  }
  cv_.notify_one();
  return future;
}

void SolveService::session_loop() {
  for (;;) {
    std::function<void()> job;
    {
      MutexLock lock(mu_);
      while (!stop_ && jobs_.empty()) cv_.wait(mu_);
      if (jobs_.empty()) return; // stop_ set and queue drained
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    job();
  }
}

} // namespace esrp
