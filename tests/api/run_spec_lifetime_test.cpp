// RunSpec owning-storage semantics (the borrowed-span lifetime fix) and
// the SolveSpec = ProblemSpec + SolverConfig + RunSpec decomposition: the
// aggregate must keep exposing every historical field flat, and copied /
// moved RunSpecs must carry their owned rhs/x0 storage with the spans
// re-pointed — never left dangling into the source.
#include <gtest/gtest.h>

#include <utility>

#include "api/solve.hpp"
#include "api/solve_spec.hpp"
#include "common/error.hpp"
#include "sparse/generators.hpp"
#include "xp/experiment.hpp"

namespace esrp {
namespace {

bool points_into(std::span<const real_t> s, const RunSpec& spec) {
  // Observable proxy for ownership: the accessor agrees with the span.
  (void)s;
  return spec.owns_rhs();
}

TEST(RunSpecLifetimeTest, BorrowedByDefault) {
  const Vector b(16, 1.0);
  RunSpec run;
  run.rhs = b;
  EXPECT_FALSE(run.owns_rhs());
  EXPECT_FALSE(run.owns_x0());
  EXPECT_EQ(run.rhs.data(), b.data()); // borrowing means no copy
}

TEST(RunSpecLifetimeTest, TakeRhsOwns) {
  RunSpec run;
  run.take_rhs(Vector(16, 2.5));
  EXPECT_TRUE(run.owns_rhs());
  ASSERT_EQ(run.rhs.size(), 16u);
  EXPECT_EQ(run.rhs[3], 2.5);
}

TEST(RunSpecLifetimeTest, CopyRepointsOwnedStorage) {
  RunSpec run;
  run.take_rhs(Vector(16, 3.0));
  run.take_x0(Vector(16, 0.5));

  RunSpec copy = run;
  EXPECT_TRUE(copy.owns_rhs());
  EXPECT_TRUE(copy.owns_x0());
  ASSERT_EQ(copy.rhs.size(), 16u);
  // The copy's spans must point into the copy's storage, not the source's.
  EXPECT_NE(copy.rhs.data(), run.rhs.data());
  EXPECT_NE(copy.x0.data(), run.x0.data());
  EXPECT_EQ(copy.rhs[0], 3.0);
  EXPECT_EQ(copy.x0[0], 0.5);
}

TEST(RunSpecLifetimeTest, CopyKeepsBorrowedSpansBorrowed) {
  const Vector b(8, 4.0);
  RunSpec run;
  run.rhs = b;
  RunSpec copy = run;
  EXPECT_FALSE(copy.owns_rhs());
  EXPECT_EQ(copy.rhs.data(), b.data());
}

TEST(RunSpecLifetimeTest, MoveTransfersOwnership) {
  RunSpec run;
  run.take_rhs(Vector(16, 5.0));
  const real_t* data = run.rhs.data();

  RunSpec moved = std::move(run);
  EXPECT_TRUE(moved.owns_rhs());
  EXPECT_EQ(moved.rhs.data(), data); // the buffer itself moved
  EXPECT_EQ(moved.rhs[7], 5.0);
  EXPECT_FALSE(points_into(run.rhs, run)); // NOLINT(bugprone-use-after-move)
}

TEST(RunSpecLifetimeTest, OwnedRhsOutlivesTheCallersBuffer) {
  // The exact footgun the redesign fixes: fill the spec from a temporary,
  // solve later. With take_rhs the storage is inside the spec.
  const CsrMatrix a = laplace1d(32);
  SolveSpec spec;
  spec.matrix_data = &a;
  spec.solver = "pcg";
  spec.precond = "jacobi";
  {
    Vector temp = xp::make_rhs(a);
    spec.take_rhs(std::move(temp));
  } // temp gone; spec.rhs still valid
  const SolveReport report = solve(spec);
  EXPECT_TRUE(report.converged);
}

TEST(RunSpecLifetimeTest, AggregateSlicesToItsBases) {
  SolveSpec spec;
  spec.matrix = "laplace1d:8";
  spec.solver = "pipelined";
  spec.rtol = 1e-6;
  spec.nodes = 32;
  spec.take_rhs(Vector(8, 1.0));

  // Each base view sees its own fields, and the views are the same object.
  const ProblemSpec& problem = spec;
  const SolverConfig& config = spec;
  const RunSpec& run = spec;
  EXPECT_EQ(problem.matrix, "laplace1d:8");
  EXPECT_EQ(problem.nodes, 32);
  EXPECT_EQ(config.solver, "pipelined");
  EXPECT_EQ(config.rtol, 1e-6);
  EXPECT_TRUE(run.owns_rhs());
  EXPECT_EQ(run.rhs.data(), spec.rhs.data());
}

} // namespace
} // namespace esrp
