#include "netsim/dist_vector.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace esrp {
namespace {

TEST(DistVector, ConstructsZeroedSlices) {
  const BlockRowPartition part(10, 3);
  const DistVector v(part);
  for (rank_t s = 0; s < 3; ++s) {
    for (real_t x : v.local(s)) EXPECT_DOUBLE_EQ(x, 0);
  }
}

TEST(DistVector, ScatterGatherRoundTrip) {
  const BlockRowPartition part(10, 3);
  Vector g(10);
  for (std::size_t i = 0; i < 10; ++i) g[i] = static_cast<real_t>(i * i);
  const DistVector v(part, g);
  EXPECT_EQ(v.gather_global(), g);
}

TEST(DistVector, LocalSlicesMatchPartitionRanges) {
  const BlockRowPartition part(10, 3); // 4,3,3
  Vector g(10);
  for (std::size_t i = 0; i < 10; ++i) g[i] = static_cast<real_t>(i);
  const DistVector v(part, g);
  EXPECT_EQ(v.local(0).size(), 4u);
  EXPECT_DOUBLE_EQ(v.local(1)[0], 4);
  EXPECT_DOUBLE_EQ(v.local(2)[2], 9);
}

TEST(DistVector, ZeroRanksWipesOnlyThoseSlices) {
  const BlockRowPartition part(9, 3);
  Vector g(9, 1);
  DistVector v(part, g);
  const std::vector<rank_t> failed{1};
  v.zero_ranks(failed);
  EXPECT_DOUBLE_EQ(v.at(0), 1);
  EXPECT_DOUBLE_EQ(v.at(3), 0);
  EXPECT_DOUBLE_EQ(v.at(5), 0);
  EXPECT_DOUBLE_EQ(v.at(6), 1);
}

TEST(DistVector, AtAndSetAddressGlobalIndices) {
  const BlockRowPartition part(7, 2);
  DistVector v(part);
  v.set(5, 3.25);
  EXPECT_DOUBLE_EQ(v.at(5), 3.25);
  EXPECT_DOUBLE_EQ(v.local(1)[static_cast<std::size_t>(5 - part.begin(1))],
                   3.25);
}

TEST(DistVector, CopyFromReplicatesAllSlices) {
  const BlockRowPartition part(8, 4);
  Vector g{1, 2, 3, 4, 5, 6, 7, 8};
  const DistVector a(part, g);
  DistVector b(part);
  b.copy_from(a);
  EXPECT_EQ(b.gather_global(), g);
}

TEST(DistVector, MutatingLocalSliceAffectsGather) {
  const BlockRowPartition part(6, 2);
  DistVector v(part);
  v.local(1)[0] = 42;
  EXPECT_DOUBLE_EQ(v.gather_global()[3], 42);
}

TEST(DistVector, SizeMismatchOnScatterThrows) {
  const BlockRowPartition part(6, 2);
  DistVector v(part);
  const Vector wrong(5, 0);
  EXPECT_THROW(v.set_from_global(wrong), Error);
}

TEST(DistVector, ZeroAllClearsEverything) {
  const BlockRowPartition part(6, 3);
  DistVector v(part, Vector(6, 7));
  v.zero_all();
  for (real_t x : v.gather_global()) EXPECT_DOUBLE_EQ(x, 0);
}

/// Entries that differ in every bit pattern, so a bitwise comparison sees
/// any entry moved or lost.
Vector distinct_values(std::size_t n) {
  Vector g(n);
  for (std::size_t i = 0; i < n; ++i)
    g[i] = 1.0 / static_cast<real_t>(i + 3) - static_cast<real_t>(i);
  return g;
}

void expect_bitwise_equal(std::span<const real_t> got,
                          std::span<const real_t> want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << "entry " << i;
}

TEST(DistVector, AllEqualsGatherGlobalBitwise) {
  const BlockRowPartition part(11, 4);
  DistVector v(part, distinct_values(11));
  v.local(2)[1] = -0.0;
  const Vector g = v.gather_global();
  expect_bitwise_equal(v.all(), g);
}

TEST(DistVector, LocalSlicesAreSubspansOfAll) {
  // Slices sit back to back in global order, also where absorb_ranks left
  // some ranks empty (ranks 1, 2 and 5 fail here).
  const BlockRowPartition even(23, 7);
  const std::vector<rank_t> failed{1, 2, 5};
  const BlockRowPartition absorbed = absorb_ranks(even, failed);
  for (const BlockRowPartition* part : {&even, &absorbed}) {
    DistVector v(*part, distinct_values(23));
    const DistVector& cv = v;
    for (rank_t s = 0; s < part->num_nodes(); ++s) {
      const auto offset = static_cast<std::size_t>(part->begin(s));
      const auto size = static_cast<std::size_t>(part->local_size(s));
      EXPECT_EQ(cv.local(s).data(), cv.all().data() + offset) << "rank " << s;
      EXPECT_EQ(v.local(s).data(), cv.all().data() + offset) << "rank " << s;
      EXPECT_EQ(cv.local(s).size(), size) << "rank " << s;
    }
  }
  for (rank_t s : failed) EXPECT_EQ(absorbed.local_size(s), 0);
}

TEST(DistVector, ZeroRanksLeavesNeighbouringSlicesBitwiseIntact) {
  const BlockRowPartition part(17, 5);
  const Vector g = distinct_values(17);
  DistVector v(part, g);
  const std::vector<rank_t> failed{1, 3};
  v.zero_ranks(failed);
  for (rank_t s = 0; s < part.num_nodes(); ++s) {
    const auto slice = v.local(s);
    if (s == 1 || s == 3) {
      for (real_t x : slice) EXPECT_EQ(std::bit_cast<std::uint64_t>(x), 0u);
      continue;
    }
    const auto offset = static_cast<std::size_t>(part.begin(s));
    expect_bitwise_equal(slice,
                         std::span<const real_t>(g).subspan(offset, slice.size()));
  }
}

TEST(DistVector, RebindKeepsTheBytesAndFollowsTheNewPartition) {
  const BlockRowPartition part(17, 5);
  const std::vector<rank_t> failed{1, 3};
  const BlockRowPartition absorbed = absorb_ranks(part, failed);
  const Vector g = distinct_values(17);
  DistVector v(part, g);
  const real_t* data = v.all().data();
  v.rebind(absorbed);
  EXPECT_EQ(&v.partition(), &absorbed);
  EXPECT_EQ(v.all().data(), data); // no reallocation, no copy
  expect_bitwise_equal(v.all(), g);
  for (rank_t s = 0; s < absorbed.num_nodes(); ++s) {
    const auto offset = static_cast<std::size_t>(absorbed.begin(s));
    EXPECT_EQ(v.local(s).data(), data + offset) << "rank " << s;
    EXPECT_EQ(v.local(s).size(),
              static_cast<std::size_t>(absorbed.local_size(s)))
        << "rank " << s;
  }
  for (rank_t s : failed) EXPECT_TRUE(v.local(s).empty());
  v.rebind(part);
  EXPECT_EQ(v.local(1).size(), static_cast<std::size_t>(part.local_size(1)));
  expect_bitwise_equal(v.all(), g);
}

TEST(DistVector, RebindRejectsAMismatchedShape) {
  const BlockRowPartition part(17, 5);
  DistVector v(part);
  const BlockRowPartition other_size(18, 5);
  const BlockRowPartition other_nodes(17, 4);
  EXPECT_THROW(v.rebind(other_size), Error);
  EXPECT_THROW(v.rebind(other_nodes), Error);
  EXPECT_EQ(&v.partition(), &part);
}

} // namespace
} // namespace esrp
