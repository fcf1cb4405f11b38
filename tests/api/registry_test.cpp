// Registry layer: duplicate-registration rejection, unknown-key errors with
// "did you mean" suggestions, the builtin key sets, and matrix-spec parsing
// (the logic that used to live inside tools/esrp_cli.cpp).
#include <gtest/gtest.h>

#include <string>

#include "api/registry.hpp"
#include "api/solve.hpp"
#include "common/error.hpp"
#include "service/solve_service.hpp"
#include "sparse/generators.hpp"
#include "sparse/matrix_market.hpp"

namespace esrp {
namespace {

TEST(Registry, DuplicateRegistrationRejected) {
  Registry<int> reg("widget");
  reg.add("alpha", "first", 1);
  try {
    reg.add("alpha", "second", 2);
    FAIL() << "duplicate add must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate widget registration"),
              std::string::npos)
        << e.what();
  }
  // The original registration survives.
  EXPECT_EQ(reg.get("alpha"), 1);
  EXPECT_EQ(reg.help("alpha"), "first");
}

TEST(Registry, EmptyKeyRejected) {
  Registry<int> reg("widget");
  EXPECT_THROW(reg.add("", "help", 1), Error);
}

TEST(Registry, UnknownKeySuggestsClosestAndListsValid) {
  Registry<int> reg("widget");
  reg.add("pcg", "", 1);
  reg.add("pipelined", "", 2);
  try {
    reg.get("pgc");
    FAIL() << "unknown key must throw";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown widget \"pgc\""), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean \"pcg\""), std::string::npos) << msg;
    EXPECT_NE(msg.find("pipelined"), std::string::npos) << msg;
  }
}

TEST(Registry, WildlyWrongKeyOmitsSuggestion) {
  Registry<int> reg("widget");
  reg.add("pcg", "", 1);
  try {
    reg.get("completely-unrelated");
    FAIL();
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.find("did you mean"), std::string::npos) << msg;
    EXPECT_NE(msg.find("valid widget keys: pcg"), std::string::npos) << msg;
  }
}

TEST(Registry, KeysAreSorted) {
  Registry<int> reg("widget");
  reg.add("b", "", 1);
  reg.add("a", "", 2);
  reg.add("c", "", 3);
  EXPECT_EQ(reg.keys(), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(BuiltinRegistries, SolverKeys) {
  EXPECT_EQ(solver_registry().keys(),
            (std::vector<std::string>{"dist-pipelined", "pcg", "pipelined",
                                      "resilient-pcg"}));
  EXPECT_TRUE(solver_registry().get("resilient-pcg").distributed);
  EXPECT_TRUE(solver_registry().get("dist-pipelined").distributed);
  EXPECT_FALSE(solver_registry().get("pcg").distributed);
  EXPECT_FALSE(solver_registry().get("pipelined").distributed);
}

// SolveReport::wall_seconds is measured once, around the registered
// driver: every solver reports it, on the facade and the service path.
TEST(BuiltinRegistries, EverySolverReportsWallTime) {
  SolveService service;
  for (const std::string& key : solver_registry().keys()) {
    SCOPED_TRACE(key);
    SolveSpec spec;
    spec.matrix = "poisson2d:8,8";
    spec.solver = key;
    spec.precond = "block-jacobi";
    spec.nodes = 4;
    EXPECT_GT(solve(spec).wall_seconds, 0);
    const PrepareResult prep = service.prepare(spec);
    EXPECT_GT(service.solve(*prep.handle, spec).wall_seconds, 0);
  }
}

TEST(BuiltinRegistries, PrecondKeys) {
  EXPECT_EQ(precond_registry().keys(),
            (std::vector<std::string>{"block-jacobi", "ic0", "identity",
                                      "jacobi", "ssor"}));
}

TEST(BuiltinRegistries, MatrixKeys) {
  EXPECT_EQ(matrix_registry().keys(),
            (std::vector<std::string>{"audikw", "emilia", "laplace1d", "mm",
                                      "poisson2d", "poisson3d"}));
}

TEST(MatrixResolve, ParameterizedKeys) {
  const TestProblem p2 = resolve_matrix("poisson2d:6,5");
  EXPECT_EQ(p2.name, "poisson2d");
  EXPECT_EQ(p2.matrix.rows(), 30);

  const TestProblem p3 = resolve_matrix("poisson3d:3,4,5");
  EXPECT_EQ(p3.matrix.rows(), 60);

  const TestProblem l1 = resolve_matrix("laplace1d:17");
  EXPECT_EQ(l1.matrix.rows(), 17);

  // The stand-in generators accept an optional grid argument.
  const TestProblem em = resolve_matrix("emilia:6,6,6");
  EXPECT_EQ(em.matrix.rows(), 216);
  const TestProblem au = resolve_matrix("audikw:4,4,4");
  EXPECT_EQ(au.matrix.rows(), 3 * 64); // 3 dof per grid point
}

TEST(MatrixResolve, MalformedArguments) {
  EXPECT_THROW(resolve_matrix("poisson2d"), Error);      // missing dims
  EXPECT_THROW(resolve_matrix("poisson2d:6"), Error);    // too few
  EXPECT_THROW(resolve_matrix("poisson2d:6,7,8"), Error); // too many
  EXPECT_THROW(resolve_matrix("poisson2d:0,5"), Error);  // non-positive
  EXPECT_THROW(resolve_matrix("poisson2d:a,b"), Error);  // non-numeric
  EXPECT_THROW(resolve_matrix("poisson2d:4,-4"), Error); // negative
  EXPECT_THROW(resolve_matrix("mm"), Error);             // missing path
  EXPECT_THROW(resolve_matrix("mm:/does/not/exist.mtx"), Error);
}

TEST(MatrixResolve, MatrixMarketPathMayContainSemicolons) {
  // The spec splits at its first colon only; the rest is the file path
  // verbatim, ';' included.
  const std::string path = testing::TempDir() + "/esrp_registry;a;b.mtx";
  write_matrix_market_file(path, laplace1d(7));
  const TestProblem p = resolve_matrix("mm:" + path);
  EXPECT_EQ(p.name, path);
  EXPECT_EQ(p.matrix.rows(), 7);
  EXPECT_EQ(p.matrix.nnz(), laplace1d(7).nnz());
  EXPECT_DOUBLE_EQ(p.matrix.at(3, 2), -1);
}

TEST(MatrixResolve, LeftoverStorageOptionsAreRejected) {
  // A ';' suffix is part of the factory's argument, so it must fail the
  // argument parse, never be silently ignored.
  for (const std::string base : {"poisson2d:8,8", "emilia:4,4,4",
                                 "laplace1d:16"}) {
    for (const std::string suffix : {";format=sell", ";sigma=64"}) {
      EXPECT_THROW(resolve_matrix(base + suffix), Error) << base + suffix;
    }
  }
}

TEST(MatrixResolve, UnknownKeySuggests) {
  try {
    resolve_matrix("poison3d:4,4,4");
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean \"poisson3d\""),
              std::string::npos)
        << e.what();
  }
  // check_matrix_key validates without building anything.
  EXPECT_THROW(check_matrix_key("poison3d:4,4,4"), Error);
  EXPECT_NO_THROW(check_matrix_key("poisson3d:400,400,400"));
}

} // namespace
} // namespace esrp
