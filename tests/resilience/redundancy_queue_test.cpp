// Queue-semantics tests, including a replay of the Fig. 1 timeline.
#include "resilience/redundancy_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "comm/dist_operator.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "partition/partition.hpp"
#include "precond/block_jacobi.hpp"
#include "sparse/generators.hpp"

namespace esrp {
namespace {

RedundantCopy make_copy(index_t tag) {
  // One entry (index 0) held by rank 1 of a 4-node cluster.
  const std::vector<IndexSet> held{{}, {0}, {}, {}};
  return RedundantCopy(tag, std::make_shared<const HolderLayout>(held),
                       Vector{static_cast<real_t>(tag)});
}

TEST(RedundancyQueue, StartsEmpty) {
  RedundancyQueue q;
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.capacity(), 3u);
  EXPECT_FALSE(q.newest_adjacent_pair().has_value());
  EXPECT_TRUE(q.tags().empty());
}

TEST(RedundancyQueue, CapacityBelowTwoRejected) {
  EXPECT_THROW(RedundancyQueue{1}, Error);
}

TEST(RedundancyQueue, EvictsOldestBeyondCapacity) {
  RedundancyQueue q(3);
  q.push(make_copy(1));
  q.push(make_copy(2));
  q.push(make_copy(3));
  q.push(make_copy(4));
  EXPECT_EQ(q.tags(), (std::vector<index_t>{2, 3, 4}));
  EXPECT_EQ(q.find(1), nullptr);
  EXPECT_NE(q.find(2), nullptr);
}

TEST(RedundancyQueue, PushSameTagReplacesInPlace) {
  RedundancyQueue q(3);
  q.push(make_copy(5));
  q.push(make_copy(6));
  q.push(make_copy(6)); // rollback re-execution
  EXPECT_EQ(q.tags(), (std::vector<index_t>{5, 6}));
}

TEST(RedundancyQueue, OutOfOrderNewTagThrows) {
  RedundancyQueue q(3);
  q.push(make_copy(5));
  EXPECT_THROW(q.push(make_copy(3)), Error);
}

TEST(RedundancyQueue, NewestAdjacentPairFindsLatest) {
  RedundancyQueue q(3);
  q.push(make_copy(20));
  q.push(make_copy(21));
  EXPECT_EQ(q.newest_adjacent_pair(), 21);
  q.push(make_copy(40));
  // [20, 21, 40]: the pair (20,21) is still the newest adjacent one.
  EXPECT_EQ(q.newest_adjacent_pair(), 21);
  q.push(make_copy(41));
  // [21, 40, 41]: now (40,41).
  EXPECT_EQ(q.newest_adjacent_pair(), 41);
}

TEST(RedundancyQueue, NoAdjacentPairWithGappedTags) {
  RedundancyQueue q(3);
  q.push(make_copy(20));
  q.push(make_copy(40));
  EXPECT_FALSE(q.newest_adjacent_pair().has_value());
}

TEST(RedundancyQueue, Figure1Timeline) {
  // Replays the queue states of the paper's Fig. 1 with T = 20:
  // j = 0..T-1 : [_, _, _]
  // j = T      : [_, _, p'(T)]
  // j = T+1    : [_, p'(T), p'(T+1)]
  // j = 2T     : [p'(T), p'(T+1), p'(2T)]
  // j = 2T+1   : [p'(T+1), p'(2T), p'(2T+1)]
  const index_t T = 20;
  RedundancyQueue q(3);
  auto step = [&](index_t j) {
    if (j >= T && (j % T == 0 || j % T == 1)) q.push(make_copy(j));
  };
  for (index_t j = 0; j < T; ++j) step(j);
  EXPECT_TRUE(q.tags().empty());
  step(T);
  EXPECT_EQ(q.tags(), (std::vector<index_t>{T}));
  step(T + 1);
  EXPECT_EQ(q.tags(), (std::vector<index_t>{T, T + 1}));
  for (index_t j = T + 2; j < 2 * T; ++j) step(j);
  EXPECT_EQ(q.tags(), (std::vector<index_t>{T, T + 1}));
  step(2 * T);
  EXPECT_EQ(q.tags(), (std::vector<index_t>{T, T + 1, 2 * T}));
  // Failure here must still reconstruct T+1 (the thin arrows of Fig. 1).
  EXPECT_EQ(q.newest_adjacent_pair(), T + 1);
  step(2 * T + 1);
  EXPECT_EQ(q.tags(), (std::vector<index_t>{T + 1, 2 * T, 2 * T + 1}));
  EXPECT_EQ(q.newest_adjacent_pair(), 2 * T + 1);
}

TEST(RedundancyQueue, TwoSlotQueueLosesThePreviousStage) {
  // The ablation the paper motivates: with only two slots, a failure right
  // after the first ASpMV of a storage stage has no adjacent pair left.
  const index_t T = 20;
  RedundancyQueue q(2);
  q.push(make_copy(T));
  q.push(make_copy(T + 1));
  EXPECT_EQ(q.newest_adjacent_pair(), T + 1);
  q.push(make_copy(2 * T)); // evicts p'(T)
  EXPECT_FALSE(q.newest_adjacent_pair().has_value());
}

TEST(RedundancyQueue, DropHoldersPropagatesToAllCopies) {
  RedundancyQueue q(3);
  q.push(make_copy(1));
  q.push(make_copy(2));
  const std::vector<rank_t> failed{1}; // holder rank used by make_copy
  q.drop_holders(failed);
  const std::vector<rank_t> none;
  EXPECT_FALSE(q.find(1)->find_surviving(0, none).has_value());
  EXPECT_FALSE(q.find(2)->find_surviving(0, none).has_value());
}

TEST(RedundancyQueue, ClearEmptiesQueue) {
  RedundancyQueue q(3);
  q.push(make_copy(1));
  q.clear();
  EXPECT_EQ(q.size(), 0u);
}

// --- Buffer reuse: push() hands back the displaced copy's buffer, and the
// next capture fills it in place with exactly a fresh capture's contents.

Vector random_vector(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(static_cast<std::size_t>(n));
  for (real_t& x : v) x = rng.uniform(-1, 1);
  return v;
}

std::vector<std::uint64_t> bits(const Vector& v) {
  std::vector<std::uint64_t> out;
  for (real_t x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

/// `got` was captured into the buffer at `buffer`; it must hold exactly what
/// the fresh capture holds.
void expect_refilled(RedundantCopy got, RedundantCopy fresh,
                     const real_t* buffer) {
  EXPECT_EQ(got.tag(), fresh.tag());
  EXPECT_TRUE(got.verify({}));
  EXPECT_TRUE(std::ranges::equal(got.seals(), fresh.seals()));
  const Vector values = std::move(got).release();
  EXPECT_EQ(values.data(), buffer);
  EXPECT_EQ(bits(values), bits(std::move(fresh).release()));
}

/// A storage stage's pieces on a small cluster: emilia 6^3 on 8 nodes.
struct StorageRig {
  CsrMatrix a = emilia_like(6, 6, 6).matrix;
  BlockRowPartition part{a.rows(), 8};
  BlockJacobiPreconditioner precond{a, part, 10};
  ResilienceOptions opts = [] {
    ResilienceOptions o;
    o.strategy = Strategy::esrp;
    o.phi = 2;
    return o;
  }();
  SimCluster cluster{part};
  DistOperator op{a, precond, cluster, opts};

  RedundantCopy capture(index_t tag, Vector buffer = {}) {
    const BlockRowPartition& p = op.partition();
    DistVector x(p, random_vector(a.rows(), 100 + static_cast<std::uint64_t>(tag)));
    DistVector y(p);
    return op.engine().aspmv(op.aug(), x, tag, y, std::move(buffer));
  }
  RedundantCopy disseminate(index_t tag, Vector buffer = {}) {
    DistVector x(op.partition(),
                 random_vector(a.rows(), 100 + static_cast<std::uint64_t>(tag)));
    return op.engine().disseminate(op.aug(), x, tag, std::move(buffer));
  }
};

TEST(RedundancyQueueReuse, EvictedBufferFillsTheNextCapture) {
  StorageRig rig;
  RedundancyQueue q(3);
  Vector spare;
  for (index_t tag = 0; tag < 3; ++tag) {
    spare = q.push(rig.capture(tag, std::move(spare)));
    EXPECT_TRUE(spare.empty()) << "nothing evicted before the queue is full";
  }
  spare = q.push(rig.capture(3, std::move(spare))); // evicts tag 0
  ASSERT_EQ(spare.size(), rig.op.aug().holder_layout()->total_entries());
  EXPECT_EQ(q.tags(), (std::vector<index_t>{1, 2, 3}));
  const real_t* evicted = spare.data();
  expect_refilled(rig.capture(4, std::move(spare)), rig.capture(4), evicted);
}

TEST(RedundancyQueueReuse, ReplacedBufferFillsTheNextCapture) {
  StorageRig rig;
  RedundancyQueue q(3);
  EXPECT_TRUE(q.push(rig.disseminate(5)).empty());
  EXPECT_TRUE(q.push(rig.disseminate(6)).empty());
  Vector spare = q.push(rig.disseminate(6)); // rollback re-execution
  ASSERT_EQ(spare.size(), rig.op.aug().holder_layout()->total_entries());
  EXPECT_EQ(q.tags(), (std::vector<index_t>{5, 6}));
  const real_t* replaced = spare.data();
  expect_refilled(rig.disseminate(7, std::move(spare)), rig.disseminate(7),
                  replaced);
}

// A repartitioning recovery rebuilds the plans while the spare buffer still
// has the old layout's size; the capture on the new layout must not care.
TEST(RedundancyQueueReuse, BufferOfAnotherLayoutSizeRefillsBitwise) {
  StorageRig rig;
  RedundancyQueue q(2);
  Vector spare;
  for (index_t tag = 0; tag < 3; ++tag)
    spare = q.push(rig.capture(tag, std::move(spare)));
  ASSERT_EQ(spare.size(), rig.op.aug().holder_layout()->total_entries());

  const rank_t failed[] = {3};
  const BlockRowPartition shrunk = absorb_ranks(rig.part, failed);
  rig.op.rebuild_on_partition(shrunk);
  // Absorbing rank 3 shrinks the layout, so the old buffer's capacity
  // suffices and the capture must land in it.
  ASSERT_LT(rig.op.aug().holder_layout()->total_entries(), spare.size());

  SimCluster cluster(shrunk);
  DistOperator fresh(rig.a, rig.precond, cluster, rig.opts);
  DistVector x(shrunk, random_vector(rig.a.rows(), 7)), y(shrunk);
  const real_t* buffer = spare.data();
  expect_refilled(
      rig.op.engine().aspmv(rig.op.aug(), x, 3, y, std::move(spare)),
      fresh.engine().aspmv(fresh.aug(), x, 3, y), buffer);
}

} // namespace
} // namespace esrp
