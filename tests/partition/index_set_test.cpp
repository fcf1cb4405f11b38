#include "partition/index_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"

namespace esrp {
namespace {

TEST(IsIndexSet, AcceptsStrictlyIncreasing) {
  EXPECT_TRUE(is_index_set(IndexSet{1, 4, 9}));
  EXPECT_TRUE(is_index_set(IndexSet{}));
  EXPECT_TRUE(is_index_set(IndexSet{0}));
}

TEST(IsIndexSet, RejectsDuplicatesAndDisorder) {
  EXPECT_FALSE(is_index_set(IndexSet{1, 1}));
  EXPECT_FALSE(is_index_set(IndexSet{2, 1}));
}

TEST(IndexRange, HalfOpenInterval) {
  EXPECT_EQ(index_range(2, 5), (IndexSet{2, 3, 4}));
  EXPECT_TRUE(index_range(3, 3).empty());
  EXPECT_THROW(index_range(5, 2), Error);
}

TEST(SetUnion, MergesSorted) {
  EXPECT_EQ(set_union(IndexSet{1, 3}, IndexSet{2, 3, 7}),
            (IndexSet{1, 2, 3, 7}));
}

TEST(SetDifference, RemovesMembers) {
  EXPECT_EQ(set_difference(IndexSet{1, 2, 3, 4}, IndexSet{2, 4}),
            (IndexSet{1, 3}));
}

TEST(SetIntersection, KeepsCommon) {
  EXPECT_EQ(set_intersection(IndexSet{1, 2, 5}, IndexSet{2, 5, 9}),
            (IndexSet{2, 5}));
}

TEST(SetComplement, WithinDomain) {
  EXPECT_EQ(set_complement(IndexSet{0, 2, 3}, 5), (IndexSet{1, 4}));
  EXPECT_EQ(set_complement(IndexSet{}, 3), (IndexSet{0, 1, 2}));
}

TEST(SetComplement, OutOfDomainThrows) {
  EXPECT_THROW(set_complement(IndexSet{5}, 3), Error);
}

TEST(SetContains, BinarySearchMembership) {
  const IndexSet s{1, 4, 6};
  EXPECT_TRUE(set_contains(s, 4));
  EXPECT_FALSE(set_contains(s, 5));
  EXPECT_FALSE(set_contains(IndexSet{}, 0));
}

TEST(SetAlgebra, ComplementOfComplementIsIdentity) {
  const IndexSet s{0, 3, 7, 9};
  EXPECT_EQ(set_complement(set_complement(s, 10), 10), s);
}

TEST(SetAlgebra, UnionWithComplementIsDomain) {
  const IndexSet s{2, 5};
  EXPECT_EQ(set_union(s, set_complement(s, 6)), index_range(0, 6));
}

TEST(IndexRuns, PositionMatchesBinarySearchOverTheDomain) {
  // Two runs of rank ranges plus singletons at both ends of the domain.
  const IndexSet s{0, 4, 5, 6, 10, 11, 12, 13, 19};
  const IndexRuns runs(s);
  for (index_t x = -2; x < 22; ++x) {
    const auto it = std::lower_bound(s.begin(), s.end(), x);
    const index_t expected =
        it != s.end() && *it == x ? static_cast<index_t>(it - s.begin()) : -1;
    EXPECT_EQ(runs.position(x), expected) << "x = " << x;
  }
  EXPECT_EQ(IndexRuns(IndexSet{}).position(0), -1);
}

} // namespace
} // namespace esrp
