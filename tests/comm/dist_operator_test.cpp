#include "comm/dist_operator.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "../parallel/thread_count_guard.hpp"
#include "common/rng.hpp"
#include "partition/partition.hpp"
#include "precond/block_jacobi.hpp"
#include "sparse/generators.hpp"

namespace esrp {
namespace {

std::vector<std::uint64_t> bits(const Vector& v) {
  std::vector<std::uint64_t> out;
  out.reserve(v.size());
  for (real_t x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

/// Everything one round of the layer's operations leaves behind, as bits.
struct Observed {
  std::vector<std::uint64_t> spmv, aspmv, precond;
  /// [h] -> the values holder h stores, in its layout order.
  std::vector<std::vector<std::uint64_t>> copies;
  std::uint64_t dot = 0;
  std::array<std::uint64_t, kNumCommCategories> bytes{};
  std::uint64_t modeled = 0;
};

/// From zeroed accounting: SpMV, ASpMV (tag 7), P apply and dot of `xg`.
Observed drive(DistOperator& op, const Vector& xg) {
  SimCluster& cluster = op.cluster();
  cluster.reset_accounting();
  const BlockRowPartition& part = op.partition();
  DistVector x(part, xg), y(part), ya(part), z(part);

  Observed o;
  op.engine().spmv(x, y);
  const RedundantCopy copy = op.engine().aspmv(op.aug(), x, 7, ya);
  op.apply_precond(x, z);
  cluster.complete_step();
  o.dot = std::bit_cast<std::uint64_t>(op.dot(x, y));
  o.spmv = bits(y.gather_global());
  o.aspmv = bits(ya.gather_global());
  o.precond = bits(z.gather_global());

  // Holder h's value of entry i is the surviving one when every other rank
  // has failed.
  const HolderLayout& layout = *op.aug().holder_layout();
  const rank_t nodes = part.num_nodes();
  for (rank_t h = 0; h < nodes; ++h) {
    std::vector<rank_t> others;
    for (rank_t r = 0; r < nodes; ++r)
      if (r != h) others.push_back(r);
    std::vector<std::uint64_t> held;
    for (index_t i : layout.held(h)) {
      const auto found = copy.find_surviving(i, others);
      EXPECT_TRUE(found.has_value() && found->first == h);
      if (found) held.push_back(std::bit_cast<std::uint64_t>(found->second));
    }
    o.copies.push_back(std::move(held));
  }
  for (std::size_t c = 0; c < kNumCommCategories; ++c)
    o.bytes[c] = cluster.ledger().totals(static_cast<CommCategory>(c)).bytes;
  o.modeled = std::bit_cast<std::uint64_t>(cluster.modeled_time());
  return o;
}

void expect_same(const Observed& got, const Observed& fresh) {
  EXPECT_EQ(got.spmv, fresh.spmv);
  EXPECT_EQ(got.aspmv, fresh.aspmv);
  EXPECT_EQ(got.precond, fresh.precond);
  EXPECT_EQ(got.copies, fresh.copies);
  EXPECT_EQ(got.dot, fresh.dot);
  EXPECT_EQ(got.bytes, fresh.bytes);
  EXPECT_EQ(got.modeled, fresh.modeled);
}

class DistOperatorRebuild : public ::testing::TestWithParam<int> {};

TEST_P(DistOperatorRebuild, RebuiltLayerMatchesFreshLayerBitwise) {
  ThreadCountGuard guard;
  set_num_threads(GetParam());

  const CsrMatrix a = emilia_like(8, 8, 8).matrix;
  const BlockRowPartition part(a.rows(), 16);
  const BlockJacobiPreconditioner precond(a, part, 10);
  ResilienceOptions opts;
  opts.strategy = Strategy::esrp;
  opts.phi = 2;

  Vector xg(static_cast<std::size_t>(a.rows()));
  Rng rng(24);
  for (real_t& v : xg) v = rng.uniform(-1, 1);

  // The layer under test starts on borrowed plans, as a prepared handle
  // hands them in; the rebuilds must switch it to plans of its own.
  const SpmvPlan shared_plan(a, part);
  const AspmvPlan shared_aug(shared_plan, opts.phi);
  SimCluster cluster(part);
  DistOperator op(a, precond, cluster, opts, &shared_plan, &shared_aug);

  auto fresh = [&](const BlockRowPartition& p) {
    SimCluster c(p);
    DistOperator f(a, precond, c, opts);
    return drive(f, xg);
  };

  {
    SCOPED_TRACE("borrowed plans on the original partition");
    expect_same(drive(op, xg), fresh(part));
  }
  const rank_t failed[] = {3};
  const BlockRowPartition shrunk = absorb_ranks(part, failed);
  ASSERT_EQ(shrunk.local_size(3), 0);
  op.rebuild_on_partition(shrunk);
  EXPECT_EQ(&op.partition(), &shrunk);
  {
    SCOPED_TRACE("rebuilt onto absorb_ranks(part, {3})");
    expect_same(drive(op, xg), fresh(shrunk));
  }
  op.rebuild_on_partition(part);
  {
    SCOPED_TRACE("rebuilt back onto the original partition");
    expect_same(drive(op, xg), fresh(part));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, DistOperatorRebuild,
                         ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads" + std::to_string(info.param);
                         });

} // namespace
} // namespace esrp
