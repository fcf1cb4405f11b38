#include "partition/partition.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "netsim/failure.hpp"

namespace esrp {
namespace {

/// Ranks that own at least one row.
rank_t active_ranks(const BlockRowPartition& p) {
  rank_t active = 0;
  for (rank_t s = 0; s < p.num_nodes(); ++s)
    if (p.local_size(s) > 0) ++active;
  return active;
}

TEST(Partition, EvenSplit) {
  const BlockRowPartition p(12, 4);
  for (rank_t s = 0; s < 4; ++s) EXPECT_EQ(p.local_size(s), 3);
  EXPECT_EQ(p.begin(2), 6);
  EXPECT_EQ(p.end(3), 12);
}

TEST(Partition, RemainderGoesToLeadingNodes) {
  const BlockRowPartition p(10, 4); // 3,3,2,2
  EXPECT_EQ(p.local_size(0), 3);
  EXPECT_EQ(p.local_size(1), 3);
  EXPECT_EQ(p.local_size(2), 2);
  EXPECT_EQ(p.local_size(3), 2);
  EXPECT_EQ(p.end(3), 10);
}

TEST(Partition, MoreNodesThanRowsLeavesEmptyNodes) {
  const BlockRowPartition p(3, 5);
  index_t total = 0;
  for (rank_t s = 0; s < 5; ++s) total += p.local_size(s);
  EXPECT_EQ(total, 3);
  EXPECT_EQ(p.local_size(4), 0);
}

TEST(Partition, OwnerIsConsistentWithRanges) {
  const BlockRowPartition p(100, 7);
  for (index_t i = 0; i < 100; ++i) {
    const rank_t s = p.owner(i);
    EXPECT_GE(i, p.begin(s));
    EXPECT_LT(i, p.end(s));
  }
}

TEST(Partition, GlobalLocalRoundTrip) {
  const BlockRowPartition p(57, 5);
  for (index_t i = 0; i < 57; ++i) {
    const rank_t s = p.owner(i);
    EXPECT_EQ(p.to_global(s, p.to_local(i)), i);
  }
}

TEST(Partition, OwnerOutOfRangeThrows) {
  const BlockRowPartition p(10, 2);
  EXPECT_THROW(p.owner(10), Error);
  EXPECT_THROW(p.owner(-1), Error);
}

TEST(Partition, OwnedByContiguousRanks) {
  const BlockRowPartition p(12, 4);
  const std::vector<rank_t> f{1, 2};
  EXPECT_EQ(p.owned_by(f), index_range(3, 9));
}

TEST(Partition, OwnedByUnsortedRanksIsSorted) {
  const BlockRowPartition p(12, 4);
  const std::vector<rank_t> f{3, 0};
  const IndexSet lost = p.owned_by(f);
  EXPECT_TRUE(is_index_set(lost));
  EXPECT_EQ(lost.size(), 6u);
  EXPECT_EQ(lost.front(), 0);
  EXPECT_EQ(lost.back(), 11);
}

TEST(Partition, DuplicateRanksThrow) {
  const BlockRowPartition p(12, 4);
  const std::vector<rank_t> f{1, 1};
  EXPECT_THROW(p.owned_by(f), Error);
}

TEST(Partition, ComplementOfOwnedIsEverythingElse) {
  const BlockRowPartition p(20, 4);
  const std::vector<rank_t> f{0, 2};
  const IndexSet lost = p.owned_by(f);
  const IndexSet kept = p.complement_of(f);
  EXPECT_EQ(set_union(lost, kept), index_range(0, 20));
  EXPECT_TRUE(set_intersection(lost, kept).empty());
}

TEST(Partition, SingleNodeOwnsEverything) {
  const BlockRowPartition p(8, 1);
  EXPECT_EQ(p.local_size(0), 8);
  EXPECT_EQ(p.owner(7), 0);
}

TEST(Partition, ExplicitOffsetsWithEmptyRanges) {
  const BlockRowPartition p(std::vector<index_t>{0, 4, 4, 8});
  EXPECT_EQ(p.num_nodes(), 3);
  EXPECT_EQ(p.global_size(), 8);
  EXPECT_EQ(p.local_size(1), 0);
  EXPECT_EQ(p.owner(3), 0);
  EXPECT_EQ(p.owner(4), 2); // empty rank 1 owns nothing
  EXPECT_EQ(active_ranks(p), 2);
}

TEST(Partition, ExplicitOffsetsValidated) {
  EXPECT_THROW(BlockRowPartition(std::vector<index_t>{1, 4}), Error);
  EXPECT_THROW(BlockRowPartition(std::vector<index_t>{0, 4, 2}), Error);
  EXPECT_THROW(BlockRowPartition(std::vector<index_t>{0}), Error);
}

TEST(AbsorbRanks, MiddleBlockGoesToLeftNeighbor) {
  const BlockRowPartition p(12, 4); // 3 each
  const std::vector<rank_t> failed{1, 2};
  const BlockRowPartition q = absorb_ranks(p, failed);
  EXPECT_EQ(q.num_nodes(), 4);
  EXPECT_EQ(q.local_size(0), 9); // own 3 + ranges of 1 and 2
  EXPECT_EQ(q.local_size(1), 0);
  EXPECT_EQ(q.local_size(2), 0);
  EXPECT_EQ(q.local_size(3), 3);
  EXPECT_EQ(q.owner(5), 0);
}

TEST(AbsorbRanks, LeadingBlockGoesToRightNeighbor) {
  const BlockRowPartition p(12, 4);
  const std::vector<rank_t> failed{0};
  const BlockRowPartition q = absorb_ranks(p, failed);
  EXPECT_EQ(q.local_size(0), 0);
  EXPECT_EQ(q.local_size(1), 6);
  EXPECT_EQ(q.owner(0), 1);
}

TEST(AbsorbRanks, CoverageIsPreserved) {
  const BlockRowPartition p(57, 8);
  const std::vector<rank_t> failed{0, 3, 4, 7};
  const BlockRowPartition q = absorb_ranks(p, failed);
  index_t total = 0;
  for (rank_t s = 0; s < 8; ++s) {
    total += q.local_size(s);
    if (rank_in(failed, s)) {
      EXPECT_EQ(q.local_size(s), 0);
    }
  }
  EXPECT_EQ(total, 57);
  // Every index still has exactly one owner and ranges stay contiguous.
  for (index_t i = 0; i < 57; ++i) {
    const rank_t s = q.owner(i);
    EXPECT_GE(i, q.begin(s));
    EXPECT_LT(i, q.end(s));
    EXPECT_FALSE(rank_in(failed, s));
  }
}

TEST(AbsorbRanks, AllRanksFailedThrows) {
  const BlockRowPartition p(6, 2);
  const std::vector<rank_t> failed{0, 1};
  EXPECT_THROW(absorb_ranks(p, failed), Error);
}

TEST(Partition, PaperScale128Nodes) {
  const BlockRowPartition p(923136, 128);
  index_t total = 0;
  for (rank_t s = 0; s < 128; ++s) {
    total += p.local_size(s);
    EXPECT_NEAR(static_cast<double>(p.local_size(s)), 923136.0 / 128, 1.0);
  }
  EXPECT_EQ(total, 923136);
}

} // namespace
} // namespace esrp
