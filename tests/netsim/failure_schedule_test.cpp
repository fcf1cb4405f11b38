// The centralized failure-schedule validation (netsim/failure.hpp):
// validate_failure_schedule and merge_failure_schedule are the single
// source of truth both resilience engines and validate_spec route through,
// so every malformed-schedule class is pinned here once.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "netsim/failure.hpp"

namespace esrp {
namespace {

constexpr rank_t kNodes = 8;

void expect_rejected(std::vector<FailureEvent> schedule,
                     const std::string& needle) {
  try {
    validate_failure_schedule(schedule, kNodes);
    FAIL() << "expected the schedule to be rejected (" << needle << ")";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(FailureSchedule, AcceptsWellFormedSchedules) {
  EXPECT_NO_THROW(validate_failure_schedule({}, kNodes));
  std::vector<FailureEvent> one{{10, {0}}};
  EXPECT_NO_THROW(validate_failure_schedule(one, kNodes));
  std::vector<FailureEvent> multi{{5, {0, 1}}, {6, {2}}, {40, {7}}};
  EXPECT_NO_THROW(validate_failure_schedule(multi, kNodes));
}

TEST(FailureSchedule, AllRanksFailingIsValid) {
  // The recovery ladder resolves an all-ranks event to a deterministic
  // scratch restart; it is not a schedule error.
  std::vector<FailureEvent> all{{10, {0, 1, 2, 3, 4, 5, 6, 7}}};
  EXPECT_NO_THROW(validate_failure_schedule(all, kNodes));
}

TEST(FailureSchedule, RejectsHalfSpecifiedEvents) {
  expect_rejected({{10, {}}}, "not fully specified");
  expect_rejected({{-1, {3}}}, "not fully specified");
}

TEST(FailureSchedule, RejectsNonIncreasingIterations) {
  expect_rejected({{10, {0}}, {10, {1}}}, "strictly increasing");
  expect_rejected({{10, {0}}, {5, {1}}}, "strictly increasing");
}

TEST(FailureSchedule, RejectsBadRanks) {
  expect_rejected({{10, {kNodes}}}, "outside");
  expect_rejected({{10, {-1}}}, "outside");
  expect_rejected({{10, {3, 3}}}, "more than once");
}

TEST(FailureSchedule, MergeSortsAndSkipsDisabledEvents) {
  std::vector<FailureEvent> events{
      {20, {1}}, {5, {0}}, FailureEvent{}, {30, {2}}};
  const std::vector<FailureEvent> merged =
      merge_failure_schedule(events, kNodes);
  ASSERT_EQ(merged.size(), 3u); // the default-constructed event is dropped
  EXPECT_EQ(merged[0].iteration, 5);
  EXPECT_EQ(merged[1].iteration, 20);
  EXPECT_EQ(merged[2].iteration, 30);
}

TEST(FailureSchedule, MergeWithDisabledPrimaryIsJustTheExtras) {
  // A disabled leading event is skipped like any other disabled slot.
  std::vector<FailureEvent> events{FailureEvent{}, {5, {0}}};
  const std::vector<FailureEvent> merged =
      merge_failure_schedule(events, kNodes);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].iteration, 5);
}

TEST(FailureSchedule, MergeKeepsHalfSpecifiedEventsForRejection) {
  // A half-specified event is a caller mistake, not a disabled slot: the
  // merge must surface it instead of silently dropping it.
  std::vector<FailureEvent> no_ranks{{7, {}}};
  EXPECT_THROW(merge_failure_schedule(no_ranks, kNodes), Error);
  std::vector<FailureEvent> no_iteration{{-1, {2}}};
  EXPECT_THROW(merge_failure_schedule(no_iteration, kNodes), Error);
}

TEST(FailureSchedule, MergeRejectsCollidingPrimaryAndExtra) {
  std::vector<FailureEvent> events{{10, {0}}, {10, {1}}};
  EXPECT_THROW(merge_failure_schedule(events, kNodes), Error);
}

} // namespace
} // namespace esrp
