#include "comm/exchange.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sparse/generators.hpp"

namespace esrp {
namespace {

Vector random_vector(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.uniform(-1, 1);
  return v;
}

class ExchangeFixture : public ::testing::Test {
protected:
  ExchangeFixture()
      : a_(poisson2d(8, 8)),
        part_(a_.rows(), 8),
        cluster_(part_),
        plan_(a_, part_),
        engine_(a_, plan_, cluster_) {}

  CsrMatrix a_;
  BlockRowPartition part_;
  SimCluster cluster_;
  SpmvPlan plan_;
  ExchangeEngine engine_;
};

TEST_F(ExchangeFixture, DistributedSpmvMatchesSequential) {
  const Vector x = random_vector(a_.rows(), 1);
  DistVector xd(part_, x), yd(part_);
  engine_.spmv(xd, yd);
  Vector y_ref(static_cast<std::size_t>(a_.rows()));
  a_.spmv(x, y_ref);
  const Vector y = yd.gather_global();
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], y_ref[i], 1e-13);
}

TEST_F(ExchangeFixture, SpmvRejectsAliasedInputAndOutput) {
  // The products read p in place while writing y, so y := A y would read
  // entries another rank has already overwritten.
  DistVector v(part_, random_vector(a_.rows(), 3));
  EXPECT_THROW(engine_.spmv(v, v), Error);
}

TEST_F(ExchangeFixture, SpmvChargesHaloAndCompute) {
  const Vector x = random_vector(a_.rows(), 2);
  DistVector xd(part_, x), yd(part_);
  engine_.spmv(xd, yd);
  EXPECT_GT(cluster_.modeled_time(), 0);
  EXPECT_EQ(cluster_.ledger().totals(CommCategory::spmv_halo).bytes,
            plan_.total_entries_sent() * CostParams::bytes_per_scalar);
  EXPECT_EQ(cluster_.ledger().totals(CommCategory::aspmv_extra).bytes, 0u);
}

TEST_F(ExchangeFixture, AspmvProductEqualsSpmvProduct) {
  const AspmvPlan aug(plan_, 3);
  const Vector x = random_vector(a_.rows(), 3);
  DistVector xd(part_, x), y1(part_), y2(part_);
  engine_.spmv(xd, y1);
  engine_.aspmv(aug, xd, /*tag=*/0, y2);
  EXPECT_EQ(y1.gather_global(), y2.gather_global());
}

TEST_F(ExchangeFixture, AspmvChargesExtraTraffic) {
  const AspmvPlan aug(plan_, 3);
  const Vector x = random_vector(a_.rows(), 4);
  DistVector xd(part_, x), yd(part_);
  engine_.aspmv(aug, xd, 0, yd);
  EXPECT_EQ(cluster_.ledger().totals(CommCategory::aspmv_extra).bytes,
            aug.total_extra_entries() * CostParams::bytes_per_scalar);
}

TEST_F(ExchangeFixture, CapturedCopyHoldsExactValues) {
  const AspmvPlan aug(plan_, 2);
  const Vector x = random_vector(a_.rows(), 5);
  DistVector xd(part_, x), yd(part_);
  const RedundantCopy copy = engine_.aspmv(aug, xd, 7, yd);
  EXPECT_EQ(copy.tag(), 7);
  // Every entry can be recovered from some non-owner holder with its exact
  // value, even when the owner "fails".
  for (index_t i = 0; i < a_.rows(); ++i) {
    const std::vector<rank_t> failed{part_.owner(i)};
    const auto hit = copy.find_surviving(i, failed);
    ASSERT_TRUE(hit.has_value()) << "entry " << i;
    EXPECT_DOUBLE_EQ(hit->second, x[static_cast<std::size_t>(i)]);
    EXPECT_NE(hit->first, part_.owner(i));
  }
}

TEST_F(ExchangeFixture, LookupsThroughOneSurvivingHolder) {
  const AspmvPlan aug(plan_, 1);
  const Vector x = random_vector(a_.rows(), 6);
  DistVector xd(part_, x), yd(part_);
  const RedundantCopy copy = engine_.aspmv(aug, xd, 0, yd);
  const HolderLayout& layout = *aug.holder_layout();
  for (rank_t h = 1; h < part_.num_nodes(); ++h) {
    // With every other rank failed, rank 0's entries resolve to h exactly
    // when the layout places them there.
    std::vector<rank_t> others;
    for (rank_t s = 0; s < part_.num_nodes(); ++s)
      if (s != h) others.push_back(s);
    for (index_t i = part_.begin(0); i < part_.end(0); ++i) {
      const auto hit = copy.find_surviving(i, others);
      ASSERT_EQ(hit.has_value(),
                set_contains(layout[static_cast<std::size_t>(h)], i));
      if (!hit) continue;
      EXPECT_EQ(hit->first, h);
      EXPECT_DOUBLE_EQ(hit->second, x[static_cast<std::size_t>(i)]);
    }
  }
}

TEST_F(ExchangeFixture, DropHoldersForgetsFailedNodesCopies) {
  const AspmvPlan aug(plan_, 1);
  const Vector x = random_vector(a_.rows(), 8);
  DistVector xd(part_, x), yd(part_);
  RedundantCopy copy = engine_.aspmv(aug, xd, 0, yd);
  const std::size_t before = copy.total_entries();
  std::vector<rank_t> all_but_owner;
  for (rank_t s = 1; s < part_.num_nodes(); ++s) all_but_owner.push_back(s);
  copy.drop_holders(all_but_owner);
  EXPECT_LT(copy.total_entries(), before);
  // With every non-owner holder gone, nothing survives an owner failure.
  const std::vector<rank_t> owner_failed{0};
  bool any = false;
  for (index_t i = part_.begin(0); i < part_.end(0) && !any; ++i)
    any = copy.find_surviving(i, owner_failed).has_value();
  EXPECT_FALSE(any);
}

TEST_F(ExchangeFixture, HaloAffinePlacementDeliversSameProductAndCopies) {
  const AspmvPlan aug(plan_, 3, AspmvPlacement::halo_affine);
  const Vector x = random_vector(a_.rows(), 21);
  DistVector xd(part_, x), y1(part_), y2(part_);
  engine_.spmv(xd, y1);
  const RedundantCopy copy = engine_.aspmv(aug, xd, 5, y2);
  EXPECT_EQ(y1.gather_global(), y2.gather_global());
  // Redundancy invariant holds through the engine: every entry survives the
  // failure of its owner plus two neighbors.
  for (index_t i = 0; i < a_.rows(); ++i) {
    const rank_t owner = part_.owner(i);
    const std::vector<rank_t> failed{
        owner, static_cast<rank_t>((owner + 1) % part_.num_nodes()),
        static_cast<rank_t>((owner + part_.num_nodes() - 1) %
                            part_.num_nodes())};
    const auto hit = copy.find_surviving(i, failed);
    ASSERT_TRUE(hit.has_value()) << "entry " << i;
    EXPECT_DOUBLE_EQ(hit->second, x[static_cast<std::size_t>(i)]);
  }
}

TEST_F(ExchangeFixture, NoBarrierSpmvLeavesSuperstepOpen) {
  const Vector x = random_vector(a_.rows(), 22);
  DistVector xd(part_, x), yd(part_);
  engine_.spmv(xd, yd, /*complete_step=*/false);
  const double before = cluster_.modeled_time();
  // Nothing charged yet: the step is still open.
  cluster_.complete_step();
  EXPECT_GT(cluster_.modeled_time(), before);
}

TEST(Exchange, SingleNodeClusterNeedsNoMessages) {
  const CsrMatrix a = laplace1d(10);
  const BlockRowPartition part(10, 1);
  SimCluster cluster(part);
  const SpmvPlan plan(a, part);
  ExchangeEngine engine(a, plan, cluster);
  DistVector x(part, Vector(10, 1)), y(part);
  engine.spmv(x, y);
  EXPECT_EQ(cluster.ledger().total_messages(), 0u);
  EXPECT_GT(cluster.modeled_time(), 0); // compute still charged
}

TEST(Exchange, WorksOnElasticityOperator) {
  const CsrMatrix a = elasticity3d(3, 3, 3, 10, 2);
  const BlockRowPartition part(a.rows(), 6);
  SimCluster cluster(part);
  const SpmvPlan plan(a, part);
  ExchangeEngine engine(a, plan, cluster);
  const Vector x = random_vector(a.rows(), 11);
  DistVector xd(part, x), yd(part);
  engine.spmv(xd, yd);
  Vector y_ref(static_cast<std::size_t>(a.rows()));
  a.spmv(x, y_ref);
  const Vector y = yd.gather_global();
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], y_ref[i], 1e-12);
}

TEST(Exchange, SpmvOnShrunkPartitionIsBitwiseSequential) {
  // The offsets partition shrink recovery leaves behind: empty ranks own no
  // rows and no ghosts, and nothing is sent to them.
  const CsrMatrix a = elasticity3d(4, 4, 4, 10, 3);
  const rank_t failed[] = {0, 2, 3, 6};
  const BlockRowPartition part =
      absorb_ranks(BlockRowPartition(a.rows(), 8), failed);
  ASSERT_EQ(part.active_nodes(), 4);
  SimCluster cluster(part);
  const SpmvPlan plan(a, part);
  ExchangeEngine engine(a, plan, cluster);
  const Vector x = random_vector(a.rows(), 12);
  DistVector xd(part, x), yd(part);
  engine.spmv(xd, yd);
  Vector y_ref(static_cast<std::size_t>(a.rows()));
  a.spmv(x, y_ref);
  const Vector y = yd.gather_global();
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(y[i]),
              std::bit_cast<std::uint64_t>(y_ref[i]))
        << "row " << i;
}

// ---------------------------------------------------------------------------
// Capture property: over matrices x node counts x phi, both capture paths
// store exactly the values the plan's holder layout places, bitwise. The
// grid ends with the bench/e2e emilia workloads' shape: 128 nodes, phi = 3.
// ---------------------------------------------------------------------------

using CaptureCase = std::tuple<std::string, rank_t, int>;

std::vector<CaptureCase> capture_grid() {
  std::vector<CaptureCase> grid;
  for (const char* name : {"poisson2d", "emilia", "banded"})
    for (rank_t nodes : {4, 7, 12})
      for (int phi : {1, 2, 3}) grid.emplace_back(name, nodes, phi);
  grid.emplace_back("emilia8", 128, 3);
  return grid;
}

CsrMatrix capture_matrix(const std::string& name) {
  if (name == "poisson2d") return poisson2d(10, 10);
  if (name == "emilia") return emilia_like(6, 6, 6).matrix;
  if (name == "emilia8") return emilia_like(8, 8, 8).matrix;
  if (name == "banded") return banded_spd(90, 5, 0.4, 13);
  throw Error("unknown matrix " + name);
}

class CaptureProperty : public ::testing::TestWithParam<CaptureCase> {};

TEST_P(CaptureProperty, AspmvAndDisseminateCaptureThePlacedValuesBitwise) {
  const auto& [name, nodes, phi] = GetParam();
  const CsrMatrix a = capture_matrix(name);
  const BlockRowPartition part(a.rows(), nodes);
  SimCluster cluster(part);
  const SpmvPlan plan(a, part);
  const AspmvPlan aug(plan, phi);
  ExchangeEngine engine(a, plan, cluster);
  // disseminate() gets a different vector than the aspmv() before it, so a
  // capture that read the buffers the aspmv() left behind would fail here.
  const Vector p = random_vector(a.rows(), 31);
  const Vector q = random_vector(a.rows(), 32);
  DistVector pd(part, p), qd(part, q), y(part);
  const RedundantCopy via_aspmv = engine.aspmv(aug, pd, 4, y);
  const RedundantCopy via_disseminate = engine.disseminate(aug, qd, 4);

  const HolderLayout& layout = *aug.holder_layout();
  std::size_t placed = 0;
  for (rank_t h = 0; h < nodes; ++h) {
    // Fail everyone but h, so every lookup must be served by h itself.
    std::vector<rank_t> others;
    for (rank_t s = 0; s < nodes; ++s)
      if (s != h) others.push_back(s);
    for (index_t i : layout[static_cast<std::size_t>(h)]) {
      const auto from_aspmv = via_aspmv.find_surviving(i, others);
      const auto from_dissem = via_disseminate.find_surviving(i, others);
      ASSERT_TRUE(from_aspmv.has_value() && from_dissem.has_value())
          << "entry " << i << " on holder " << h;
      EXPECT_EQ(from_aspmv->first, h);
      EXPECT_EQ(from_dissem->first, h);
      const auto k = static_cast<std::size_t>(i);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(from_aspmv->second),
                std::bit_cast<std::uint64_t>(p[k]));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(from_dissem->second),
                std::bit_cast<std::uint64_t>(q[k]));
    }
    placed += layout[static_cast<std::size_t>(h)].size();
  }
  EXPECT_EQ(via_aspmv.total_entries(), placed);
  EXPECT_EQ(via_disseminate.total_entries(), placed);
  EXPECT_TRUE(via_aspmv.verify({}));
  EXPECT_TRUE(via_disseminate.verify({}));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CaptureProperty, ::testing::ValuesIn(capture_grid()),
    [](const ::testing::TestParamInfo<CaptureCase>& info) {
      return std::get<0>(info.param) + "_N" +
             std::to_string(std::get<1>(info.param)) + "_phi" +
             std::to_string(std::get<2>(info.param));
    });

// The capture copies a holder that received only ghosts in one piece and
// walks the others entry by entry; the grid must run both.
TEST(CaptureGrid, HasHoldersWithAndWithoutReceipts) {
  std::size_t with_receipts = 0, ghosts_only = 0;
  for (const auto& [name, nodes, phi] : capture_grid()) {
    const CsrMatrix a = capture_matrix(name);
    const BlockRowPartition part(a.rows(), nodes);
    const SpmvPlan plan(a, part);
    const AspmvPlan aug(plan, phi);
    for (rank_t h = 0; h < nodes; ++h) {
      const std::size_t held =
          (*aug.holder_layout())[static_cast<std::size_t>(h)].size();
      const std::size_t ghosts = plan.ghosts(h).size();
      if (held > ghosts) ++with_receipts;
      else if (ghosts > 0) ++ghosts_only;
    }
  }
  EXPECT_GT(with_receipts, 0u);
  EXPECT_GT(ghosts_only, 0u);
}

} // namespace
} // namespace esrp
