// Concurrent solve sessions: N submits multiplexed onto the service's
// session workers must each produce the bitwise-identical report of the
// same solve run synchronously at the same thread budget — budgets are
// thread-local, so sessions cannot perturb each other or the global
// setting. Also pins error propagation through futures and shutdown with a
// drained queue. Run under TSan in CI, so any data race in the service or
// the shared-pool kernels fails loudly.
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <vector>

#include "../parallel/thread_count_guard.hpp"
#include "common/error.hpp"
#include "parallel/parallel.hpp"
#include "service/solve_service.hpp"
#include "sparse/generators.hpp"
#include "xp/experiment.hpp"

namespace esrp {
namespace {

void expect_bitwise(const Vector& expected, const Vector& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  if (expected.empty()) return; // data() may be null: memcmp(null, ..) is UB
  EXPECT_EQ(0, std::memcmp(expected.data(), actual.data(),
                           expected.size() * sizeof(real_t)));
}

void expect_report_parity(const SolveReport& expected,
                          const SolveReport& actual) {
  EXPECT_EQ(expected.converged, actual.converged);
  EXPECT_EQ(expected.iterations, actual.iterations);
  EXPECT_EQ(expected.final_relres, actual.final_relres);
  expect_bitwise(expected.x, actual.x);
}

TEST(ConcurrentSessionsTest, SubmittedSolvesMatchSynchronousReferences) {
  ThreadCountGuard guard;
  ServiceOptions opts;
  opts.max_sessions = 4;
  SolveService service(opts);

  SolveSpec spec;
  spec.matrix = "poisson2d:24,24";
  spec.solver = "pcg";
  spec.precond = "jacobi";
  const PrepareResult prep = service.prepare(spec);
  const CsrMatrix& a = prep.handle->matrix();

  // Distinct rhs per job, each with its own thread budget; reference runs
  // are synchronous at the same budget.
  constexpr std::size_t kJobs = 16;
  const Vector base = xp::make_rhs(a);
  std::vector<Vector> rhs(kJobs);
  std::vector<SolveReport> reference(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    rhs[i] = base;
    for (std::size_t row = 0; row < rhs[i].size(); ++row)
      rhs[i][row] += static_cast<real_t>(i) * static_cast<real_t>(row % 5);
    RunSpec run;
    run.rhs = rhs[i];
    run.threads = 1 + static_cast<int>(i % 2);
    reference[i] = service.solve(*prep.handle, run);
  }

  std::vector<std::future<SolveReport>> futures;
  futures.reserve(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    RunSpec run;
    run.rhs = rhs[i];
    run.threads = 1 + static_cast<int>(i % 2);
    futures.push_back(service.submit(prep.handle, std::move(run)));
  }
  for (std::size_t i = 0; i < kJobs; ++i) {
    SCOPED_TRACE(i);
    expect_report_parity(reference[i], futures[i].get());
  }
}

// SessionOptions::threads overrides the RunSpec budget for that session.
TEST(ConcurrentSessionsTest, SessionThreadOverrideMatchesBudgetedReference) {
  ThreadCountGuard guard;
  SolveService service;
  SolveSpec spec;
  spec.matrix = "poisson2d:16,16";
  spec.solver = "pcg";
  spec.precond = "jacobi";
  const PrepareResult prep = service.prepare(spec);

  RunSpec budgeted;
  budgeted.threads = 2;
  const SolveReport reference = service.solve(*prep.handle, budgeted);

  SessionOptions session;
  session.threads = 2;
  std::future<SolveReport> future =
      service.submit(prep.handle, RunSpec{}, session);
  expect_report_parity(reference, future.get());
}

// A submit whose RunSpec owns its rhs (take_rhs) stays valid after the
// caller's buffer is gone — the owning storage travels with the job.
TEST(ConcurrentSessionsTest, OwnedRhsSurvivesTheQueue) {
  SolveService service;
  SolveSpec spec;
  spec.matrix = "laplace1d:64";
  spec.solver = "pcg";
  spec.precond = "jacobi";
  const PrepareResult prep = service.prepare(spec);

  Vector b = xp::make_rhs(prep.handle->matrix());
  RunSpec reference_run;
  reference_run.rhs = b;
  const SolveReport reference = service.solve(*prep.handle, reference_run);

  std::future<SolveReport> future;
  {
    RunSpec run;
    run.take_rhs(Vector(b)); // owning copy; the scope ends before the solve
    future = service.submit(prep.handle, std::move(run));
  }
  expect_report_parity(reference, future.get());
}

TEST(ConcurrentSessionsTest, ErrorsPropagateThroughTheFuture) {
  SolveService service;
  SolveSpec spec;
  spec.matrix = "laplace1d:32";
  spec.solver = "pcg";
  spec.precond = "jacobi";
  const PrepareResult prep = service.prepare(spec);

  RunSpec bad;
  bad.take_rhs(Vector(7, 1.0)); // wrong dimension for a 32-row matrix
  std::future<SolveReport> future = service.submit(prep.handle, std::move(bad));
  EXPECT_ANY_THROW(future.get());

  // The session worker survives a failed job and keeps serving.
  std::future<SolveReport> good = service.submit(prep.handle, RunSpec{});
  EXPECT_TRUE(good.get().converged);
}

// Destruction with queued work: every future is satisfied (the queue drains
// before the workers exit), so no submit is silently dropped.
TEST(ConcurrentSessionsTest, ShutdownDrainsTheQueue) {
  SolveSpec spec;
  spec.matrix = "poisson2d:16,16";
  spec.solver = "pcg";
  spec.precond = "jacobi";

  std::vector<std::future<SolveReport>> futures;
  {
    ServiceOptions opts;
    opts.max_sessions = 2;
    SolveService service(opts);
    const PrepareResult prep = service.prepare(spec);
    for (int i = 0; i < 8; ++i)
      futures.push_back(service.submit(prep.handle, RunSpec{}));
  } // ~SolveService joins after the queue drains
  for (std::future<SolveReport>& f : futures)
    EXPECT_TRUE(f.get().converged);
}

// Many sessions hammering one shared handle: same handle, same rhs, same
// budget -> every result bitwise equal (the prepared parts are truly
// read-only under concurrency; TSan watches).
TEST(ConcurrentSessionsTest, SharedHandleStress) {
  ThreadCountGuard guard;
  ServiceOptions opts;
  opts.max_sessions = 8;
  SolveService service(opts);

  SolveSpec spec;
  spec.matrix = "poisson2d:24,24";
  spec.solver = "resilient-pcg";
  spec.precond = "block-jacobi";
  spec.nodes = 8;
  spec.strategy = Strategy::esrp;
  spec.interval = 10;
  spec.failures.push_back(FailureEvent{20, {0}});
  const PrepareResult prep = service.prepare(spec);

  RunSpec run = static_cast<const RunSpec&>(spec);
  run.threads = 1;
  const SolveReport reference = service.solve(*prep.handle, run);
  EXPECT_EQ(reference.recoveries.size(), 1u);

  std::vector<std::future<SolveReport>> futures;
  for (int i = 0; i < 24; ++i) {
    RunSpec job = static_cast<const RunSpec&>(spec);
    job.threads = 1;
    futures.push_back(service.submit(prep.handle, std::move(job)));
  }
  for (std::future<SolveReport>& f : futures) {
    const SolveReport report = f.get();
    expect_report_parity(reference, report);
    EXPECT_EQ(reference.modeled_time, report.modeled_time);
  }
}

} // namespace
} // namespace esrp
