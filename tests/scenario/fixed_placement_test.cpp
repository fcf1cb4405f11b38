// The paper's §5 failure placement as failure processes: "fixed:it=worst"
// resolves to the worst-case iteration of the run's C and T,
// "fixed:count=phi" to the run's phi, and "none" is the failure-free run
// of a grid. Misspelled symbolic values throw instead of falling back.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "scenario/failure_process.hpp"
#include "xp/experiment.hpp"

namespace esrp {
namespace {

TEST(FixedPlacement, FixedWorstIsThePapersPlacementForEachInterval) {
  for (const index_t interval : {1, 20, 50}) {
    const std::vector<FailureEvent> events =
        sample_failure_schedule("fixed:it=worst,start=4", 8, 688, 1, interval);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].iteration,
              xp::worst_case_failure_iteration(688, interval))
        << "T = " << interval;
    EXPECT_EQ(events[0].ranks, contiguous_ranks(4, 1, 8));
  }
}

TEST(FixedPlacement, FixedCountPhiFailsExactlyPhiRanks) {
  for (const int phi : {1, 3, 8}) {
    const std::vector<FailureEvent> events = sample_failure_schedule(
        "fixed:it=worst,start=8,count=phi", 16, 100, 1, 10, phi);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].ranks, contiguous_ranks(8, phi, 16)) << phi;
  }
}

TEST(FixedPlacement, NoneDrawsNoEvents) {
  EXPECT_TRUE(failure_process_registry().contains("none"));
  EXPECT_TRUE(sample_failure_schedule("none", 8, 100, 3).empty());
  EXPECT_THROW(resolve_failure_process("none:it=3"), Error);
}

TEST(FixedPlacement, MisspelledWorstAndPhiThrow) {
  EXPECT_THROW(resolve_failure_process("fixed:it=worts"), Error);
  EXPECT_THROW(resolve_failure_process("fixed:it=worst,count=phii"), Error);
  EXPECT_THROW(resolve_failure_process("fixed:it=17,count=Phi"), Error);
  // Without the run's interval and phi the symbolic spellings cannot
  // resolve, and say so instead of guessing.
  EXPECT_THROW(sample_failure_schedule("fixed:it=worst", 8, 100, 1), Error);
  EXPECT_THROW(sample_failure_schedule("fixed:it=5,count=phi", 8, 100, 1),
               Error);
}

} // namespace
} // namespace esrp
