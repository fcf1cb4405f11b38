// The scenario sweep as the paper's grid runner: the optional phi axis,
// the kept per-repetition runs, cell keys of grids without a phi axis, and
// the failure-free reference spec.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "scenario/sweep.hpp"
#include "xp/experiment.hpp"

namespace esrp {
namespace {

SweepOptions small_options() {
  SweepOptions opts;
  opts.base.matrix = "poisson2d:10,10";
  opts.base.nodes = 6;
  opts.base.phi = 2;
  opts.repetitions = 2;
  opts.seed = 42;
  opts.base.threads = 1;
  return opts;
}

ParamGrid small_grid() {
  ParamGrid grid;
  grid["strategy"] = {std::string("esrp"), std::string("imcr")};
  grid["interval"] = {std::int64_t{5}, std::int64_t{10}};
  grid["process"] = {std::string("exponential:mean=20"),
                     std::string("fixed:it=12")};
  grid["cluster"] = {std::string("homogeneous"),
                     std::string("straggler:count=1,factor=4")};
  return grid;
}

TEST(SweepPhiAxis, EnumeratesTheFullProductAndResolvesCountPhi) {
  SweepOptions opts = small_options();
  opts.repetitions = 1;
  ParamGrid grid;
  grid["strategy"] = {std::string("esrp"), std::string("imcr")};
  grid["interval"] = {std::int64_t{5}};
  grid["phi"] = {std::int64_t{1}, std::int64_t{2}, std::int64_t{3}};
  grid["process"] = {std::string("none"),
                     std::string("fixed:it=worst,start=3,count=phi")};
  grid["cluster"] = {std::string("homogeneous")};
  const SweepResult result = run_sweep(grid, opts);
  ASSERT_EQ(result.cells.size(), 2u * 1u * 3u * 2u * 1u);
  for (const SweepCell& cell : result.cells) {
    EXPECT_NE(cell.key().find("|phi=" + std::to_string(cell.phi) + "|"),
              std::string::npos)
        << cell.key();
    ASSERT_EQ(cell.runs.size(), 1u);
    const SweepRun& run = cell.runs[0];
    EXPECT_TRUE(run.report.converged) << cell.key();
    EXPECT_TRUE(run.report.x.empty());
    EXPECT_TRUE(run.report.r.empty());
    if (cell.process == "none") {
      EXPECT_TRUE(run.failures.empty());
      EXPECT_TRUE(run.report.recoveries.empty());
      continue;
    }
    ASSERT_EQ(run.failures.size(), 1u);
    EXPECT_EQ(run.failures[0].iteration,
              xp::worst_case_failure_iteration(result.horizon, 5));
    EXPECT_EQ(run.failures[0].ranks, contiguous_ranks(3, cell.phi, 6));
    EXPECT_EQ(run.report.recoveries.size(), 1u);
  }
  // Every (strategy, phi, process) combination appears exactly once.
  std::set<std::string> keys;
  for (const SweepCell& cell : result.cells) keys.insert(cell.key());
  EXPECT_EQ(keys.size(), result.cells.size());
}

TEST(SweepPhiAxis, GridsWithoutItKeepPhiFreeCellKeys) {
  const SweepResult result = run_sweep(small_grid(), small_options());
  for (const SweepCell& cell : result.cells) {
    EXPECT_EQ(cell.phi, 0);
    EXPECT_EQ(cell.key(), cell.strategy + "|T=" +
                              std::to_string(cell.interval) + "|" +
                              cell.process + "|" + cell.cluster);
    EXPECT_EQ(cell.runs.size(), 2u);
  }
}

TEST(SweepReference, IsTheFailureFreeNonResilientSolveOfTheSpec) {
  SolveSpec spec;
  spec.strategy = Strategy::esrp;
  spec.spare_nodes = false;
  spec.recovery_policy = "shrink";
  spec.failures = {FailureEvent{3, {1}}};
  spec.sdc_events.push_back(SdcEvent{});
  spec.block_size = 7;
  const SolveSpec ref = reference_spec(spec);
  EXPECT_EQ(ref.strategy, Strategy::none);
  EXPECT_TRUE(ref.spare_nodes);
  EXPECT_EQ(ref.recovery_policy, SolveSpec{}.recovery_policy);
  EXPECT_TRUE(ref.failures.empty());
  EXPECT_TRUE(ref.sdc_events.empty());
  EXPECT_EQ(ref.block_size, 7);
}

} // namespace
} // namespace esrp
