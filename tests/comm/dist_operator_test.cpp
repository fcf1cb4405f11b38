#include "comm/dist_operator.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "../parallel/thread_count_guard.hpp"
#include "common/fused.hpp"
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

// --- Range loops against the per-rank loops they replaced -------------------

Vector random_vector(index_t n, std::uint64_t seed) {
  Vector v(static_cast<std::size_t>(n));
  Rng rng(seed);
  for (real_t& x : v) x = rng.uniform(-1, 1);
  return v;
}

/// What one round of rank loops leaves behind, as bits: an axpy pair, a P
/// apply, dot, reduce_ranks<2> and <3>, then the ledger and modeled time.
struct LoopRound {
  std::vector<std::uint64_t> x, r, z;
  std::vector<std::uint64_t> sums; ///< dot, the two, then the three sums
  std::array<std::uint64_t, kNumCommCategories> bytes{};
  std::uint64_t modeled = 0;
};

/// The solver-facing side of one round, reduced to bits. `loops` runs the
/// round on vectors initialized from the shared random inputs.
LoopRound run_round(
    SimCluster& cluster,
    const std::function<void(DistVector& x, DistVector& p, DistVector& ap,
                             DistVector& r, DistVector& z,
                             std::vector<real_t>& sums)>& loops) {
  const BlockRowPartition& part = cluster.partition();
  const index_t n = part.global_size();
  cluster.reset_accounting();
  DistVector x(part, random_vector(n, 1)), p(part, random_vector(n, 2)),
      ap(part, random_vector(n, 3)), r(part, random_vector(n, 4)), z(part);
  std::vector<real_t> sums;
  loops(x, p, ap, r, z, sums);
  cluster.complete_step();

  LoopRound o;
  o.x = bits(x.gather_global());
  o.r = bits(r.gather_global());
  o.z = bits(z.gather_global());
  for (real_t v : sums) o.sums.push_back(std::bit_cast<std::uint64_t>(v));
  for (std::size_t c = 0; c < kNumCommCategories; ++c)
    o.bytes[c] = cluster.ledger().totals(static_cast<CommCategory>(c)).bytes;
  o.modeled = std::bit_cast<std::uint64_t>(cluster.modeled_time());
  return o;
}

constexpr real_t kAlpha = 0.375;

/// The round through DistOperator's range loops.
LoopRound range_round(DistOperator& op) {
  return run_round(op.cluster(), [&](DistVector& x, DistVector& p,
                                     DistVector& ap, DistVector& r,
                                     DistVector& z, std::vector<real_t>& sums) {
    op.for_each_rank(4.0, [&](RowRange rows) {
      fused_axpy2(x.rows(rows), kAlpha, p.rows(rows), r.rows(rows), -kAlpha,
                  ap.rows(rows));
    });
    op.apply_precond(r, z);
    op.cluster().complete_step();
    sums.push_back(op.dot(p, ap));
    for (real_t v : op.reduce_ranks<2>(4.0, {{{r, z}, {r, r}}}))
      sums.push_back(v);
    for (real_t v : op.reduce_ranks<3>(6.0, {{{r, z}, {p, z}, {r, r}}}))
      sums.push_back(v);
  });
}

/// The same round as one kernel call per rank, charging each rank after
/// its call, as the solvers' rank loops did before they took row ranges.
LoopRound per_rank_round(SimCluster& cluster, const Preconditioner& precond) {
  const BlockRowPartition& part = cluster.partition();
  const rank_t nodes = part.num_nodes();
  auto rows = [&](rank_t s) { return static_cast<double>(part.local_size(s)); };
  return run_round(cluster, [&](DistVector& x, DistVector& p, DistVector& ap,
                                DistVector& r, DistVector& z,
                                std::vector<real_t>& sums) {
    for (rank_t s = 0; s < nodes; ++s) {
      fused_axpy2(x.local(s), kAlpha, p.local(s), r.local(s), -kAlpha,
                  ap.local(s));
      cluster.add_compute(s, 4.0 * rows(s));
    }
    const auto p_ptr = precond.action_matrix()->row_ptr();
    for (rank_t s = 0; s < nodes; ++s) {
      precond.apply_local(part.begin(s), part.end(s), r.local(s), z.local(s));
      cluster.add_compute(
          s, static_cast<double>(2 * (p_ptr[part.end(s)] - p_ptr[part.begin(s)])));
    }
    cluster.complete_step();

    real_t dot = 0;
    for (rank_t s = 0; s < nodes; ++s) {
      dot += vec_dot(p.local(s), ap.local(s));
      cluster.add_compute(s, 2.0 * rows(s));
    }
    cluster.allreduce(1, CommCategory::allreduce);
    sums.push_back(dot);

    std::array<real_t, 2> two{};
    for (rank_t s = 0; s < nodes; ++s) {
      two[0] += vec_dot(r.local(s), z.local(s));
      two[1] += vec_dot(r.local(s), r.local(s));
      cluster.add_compute(s, 4.0 * rows(s));
    }
    sums.insert(sums.end(), two.begin(), two.end());

    std::array<real_t, 3> three{};
    for (rank_t s = 0; s < nodes; ++s) {
      const auto [a, b, c] = vec_dot3(r.local(s), z.local(s), p.local(s),
                                      z.local(s), r.local(s), r.local(s));
      three[0] += a;
      three[1] += b;
      three[2] += c;
      cluster.add_compute(s, 6.0 * rows(s));
    }
    sums.insert(sums.end(), three.begin(), three.end());
  });
}

void expect_same_round(const LoopRound& got, const LoopRound& want) {
  EXPECT_EQ(got.x, want.x);
  EXPECT_EQ(got.r, want.r);
  EXPECT_EQ(got.z, want.z);
  EXPECT_EQ(got.sums, want.sums);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.modeled, want.modeled);
}

/// Range loops on `part` (P built on `precond_part`) against the per-rank
/// reference on a separate cluster.
void expect_range_loops_match_per_rank(const CsrMatrix& a,
                                       const BlockRowPartition& precond_part,
                                       const BlockRowPartition& part) {
  const BlockJacobiPreconditioner precond(a, precond_part, 10);
  SimCluster cluster(part);
  DistOperator op(a, precond, cluster, ResilienceOptions{});
  SimCluster reference(part);
  expect_same_round(range_round(op), per_rank_round(reference, precond));
}

class DistOperatorRangeLoops : public ::testing::TestWithParam<int> {};

TEST_P(DistOperatorRangeLoops, MatchPerRankLoopsBitwise) {
  ThreadCountGuard guard;
  set_num_threads(GetParam());
  {
    SCOPED_TRACE("emilia_like 8^3 on 16 nodes");
    const CsrMatrix a = emilia_like(8, 8, 8).matrix;
    const BlockRowPartition part(a.rows(), 16);
    expect_range_loops_match_per_rank(a, part, part);
  }
  {
    SCOPED_TRACE("absorb_ranks: ranks 0, 4, 5 and 15 empty");
    const CsrMatrix a = emilia_like(8, 8, 8).matrix;
    const BlockRowPartition part(a.rows(), 16);
    const rank_t failed[] = {0, 4, 5, 15};
    const BlockRowPartition shrunk = absorb_ranks(part, failed);
    for (rank_t s : failed) ASSERT_EQ(shrunk.local_size(s), 0);
    expect_range_loops_match_per_rank(a, part, shrunk);
  }
  {
    SCOPED_TRACE("poisson3d 40^3 on 2 nodes: slices past kReduceGrain");
    const CsrMatrix a = poisson3d(40, 40, 40);
    const BlockRowPartition part(a.rows(), 2);
    ASSERT_GT(part.local_size(0), kReduceGrain);
    expect_range_loops_match_per_rank(a, part, part);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, DistOperatorRangeLoops,
                         ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads" + std::to_string(info.param);
                         });

} // namespace
} // namespace esrp
