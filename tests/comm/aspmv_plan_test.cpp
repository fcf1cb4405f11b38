// ASpMV augmentation-plan tests, including the paper's central redundancy
// invariant as a parameterized property: after one ASpMV every entry must
// reside on at least phi nodes besides its owner, so any phi-node failure
// leaves a surviving copy.
#include "comm/aspmv_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "comm/exchange.hpp"
#include "common/error.hpp"
#include "netsim/failure.hpp"
#include "sparse/generators.hpp"

namespace esrp {
namespace {

TEST(DesignatedDestination, MatchesEq1RingPattern) {
  // d_{s,k} = s + ceil(k/2) for odd k, s - k/2 for even k (mod N).
  EXPECT_EQ(designated_destination(5, 1, 10), 6);
  EXPECT_EQ(designated_destination(5, 2, 10), 4);
  EXPECT_EQ(designated_destination(5, 3, 10), 7);
  EXPECT_EQ(designated_destination(5, 4, 10), 3);
  EXPECT_EQ(designated_destination(5, 5, 10), 8);
}

TEST(DesignatedDestination, WrapsModuloN) {
  EXPECT_EQ(designated_destination(7, 1, 8), 0);
  EXPECT_EQ(designated_destination(0, 2, 8), 7);
  EXPECT_EQ(designated_destination(0, 4, 8), 6);
}

TEST(DesignatedDestination, FirstPhiDestinationsAreDistinct) {
  const rank_t n = 16;
  for (rank_t s = 0; s < n; ++s) {
    std::vector<rank_t> ds;
    for (int k = 1; k <= 8; ++k) ds.push_back(designated_destination(s, k, n));
    std::sort(ds.begin(), ds.end());
    EXPECT_EQ(std::adjacent_find(ds.begin(), ds.end()), ds.end());
    EXPECT_FALSE(std::binary_search(ds.begin(), ds.end(), s));
  }
}

TEST(AspmvPlan, PhiMustBeBelowNodeCount) {
  const CsrMatrix a = laplace1d(8);
  const BlockRowPartition part(8, 4);
  const SpmvPlan base(a, part);
  EXPECT_THROW(AspmvPlan(base, 4), Error);
  EXPECT_THROW(AspmvPlan(base, 0), Error);
  EXPECT_NO_THROW(AspmvPlan(base, 3));
}

TEST(HolderLayout, RejectsUnsortedOrNegativeHeldSets) {
  const std::vector<IndexSet> unsorted = {{0, 1}, {3, 2}};
  const std::vector<IndexSet> negative = {{-1, 0}, {2}};
  const std::vector<IndexSet> valid = {{0, 1}, {}, {2, 5}};
  EXPECT_THROW(HolderLayout{unsorted}, Error);
  EXPECT_THROW(HolderLayout{negative}, Error);
  const HolderLayout layout(valid);
  EXPECT_EQ(layout.holders_of(1).size(), 1u);
  EXPECT_TRUE(layout.holders_of(3).empty());
}

TEST(AspmvPlan, ExtraSendsAvoidRegularDuplicates) {
  const CsrMatrix a = poisson2d(6, 6);
  const BlockRowPartition part(36, 6);
  const SpmvPlan base(a, part);
  const AspmvPlan aug(base, 2);
  for (rank_t s = 0; s < 6; ++s) {
    for (const SendList& sl : aug.extra_sends(s)) {
      for (index_t i : sl.indices) {
        EXPECT_FALSE(set_contains(base.send_set(s, sl.to), i))
            << "entry " << i << " sent twice to node " << sl.to;
      }
    }
  }
}

TEST(AspmvPlan, NoOversending) {
  // Greedy augmentation sends exactly max(0, phi - m(i)) extra copies.
  const CsrMatrix a = poisson2d(8, 8);
  const BlockRowPartition part(64, 8);
  const SpmvPlan base(a, part);
  const int phi = 3;
  const AspmvPlan aug(base, phi);
  for (index_t i = 0; i < 64; ++i) {
    const int receivers = static_cast<int>(aug.receivers_of(i).size());
    EXPECT_EQ(receivers, std::max(phi, base.multiplicity(i)))
        << "entry " << i;
  }
}

TEST(AspmvPlan, HighMultiplicityEntriesNeedNoAugmentation) {
  const CsrMatrix a = laplace1d(6);
  const BlockRowPartition part(6, 6); // every entry already sent to neighbors
  const SpmvPlan base(a, part);
  const AspmvPlan aug(base, 1);
  EXPECT_EQ(aug.total_extra_entries(), 0u);
}

TEST(AspmvPlan, BandedMatrixHasLowerOverheadThanDiagonalOne) {
  // Paper §2.2: banded matrices minimize ASpMV augmentation because the
  // neighbors already receive much of the data.
  const index_t n = 64;
  const BlockRowPartition part(n, 8);
  const CsrMatrix banded = banded_spd(n, 10, 1.0, 3);
  // A (block-)diagonal-only matrix shares nothing in the regular SpMV.
  const CsrMatrix diag = csr_identity(n, 2.0);
  const SpmvPlan base_banded(banded, part);
  const AspmvPlan aug_banded(base_banded, 1);
  const SpmvPlan base_diag(diag, part);
  const AspmvPlan aug_diag(base_diag, 1);
  EXPECT_EQ(base_diag.total_entries_sent(), 0u);
  EXPECT_EQ(aug_diag.total_extra_entries(), static_cast<std::uint64_t>(n));
  EXPECT_LT(aug_banded.total_extra_entries(), aug_diag.total_extra_entries());
}

TEST(AspmvPlan, ExtraEntriesGrowWithPhi) {
  const CsrMatrix a = poisson2d(10, 10);
  const BlockRowPartition part(100, 10);
  const SpmvPlan base(a, part);
  std::uint64_t prev = 0;
  for (int phi : {1, 3, 8}) {
    const AspmvPlan aug(base, phi);
    EXPECT_GE(aug.total_extra_entries(), prev);
    prev = aug.total_extra_entries();
  }
  EXPECT_GT(prev, 0u);
}

TEST(AspmvPlacement, HaloAffinePrefersExistingRoutes) {
  const CsrMatrix a = poisson2d(10, 10);
  const BlockRowPartition part(100, 10);
  const SpmvPlan base(a, part);
  const AspmvPlan ring(base, 3, AspmvPlacement::ring);
  const AspmvPlan affine(base, 3, AspmvPlacement::halo_affine);
  // The halo-affine placement opens at most as many fresh sender->receiver
  // routes as the ring placement (usually strictly fewer).
  EXPECT_LE(affine.new_routes(), ring.new_routes());
}

TEST(AspmvPlacement, HaloAffineKeepsTheRedundancyInvariant) {
  const CsrMatrix a = diffusion3d_27pt(4, 5, 5, 50, 7);
  const BlockRowPartition part(a.rows(), 8);
  const SpmvPlan base(a, part);
  for (const int phi : {1, 3, 5}) {
    const AspmvPlan aug(base, phi, AspmvPlacement::halo_affine);
    for (index_t i = 0; i < a.rows(); ++i) {
      EXPECT_GE(static_cast<int>(aug.receivers_of(i).size()), phi)
          << "entry " << i << " phi " << phi;
    }
  }
}

TEST(AspmvPlacement, DestinationsAreDistinctAndNotOwner) {
  const CsrMatrix a = poisson3d(5, 5, 4);
  const BlockRowPartition part(a.rows(), 7);
  const SpmvPlan base(a, part);
  for (const AspmvPlacement placement :
       {AspmvPlacement::ring, AspmvPlacement::halo_affine}) {
    const AspmvPlan aug(base, 4, placement);
    for (rank_t s = 0; s < 7; ++s) {
      auto dests = aug.destinations_of(s);
      ASSERT_EQ(dests.size(), 4u);
      std::sort(dests.begin(), dests.end());
      EXPECT_EQ(std::adjacent_find(dests.begin(), dests.end()), dests.end());
      EXPECT_FALSE(std::binary_search(dests.begin(), dests.end(), s));
    }
  }
}

TEST(AspmvPlacement, RingMatchesEq1Destinations) {
  const CsrMatrix a = laplace1d(24);
  const BlockRowPartition part(24, 8);
  const SpmvPlan base(a, part);
  const AspmvPlan aug(base, 3);
  for (rank_t s = 0; s < 8; ++s) {
    const auto& dests = aug.destinations_of(s);
    for (int k = 1; k <= 3; ++k)
      EXPECT_EQ(dests[static_cast<std::size_t>(k - 1)],
                designated_destination(s, k, 8));
  }
}

// ---------------------------------------------------------------------------
// Property sweep: the redundancy invariant over matrices x node counts x phi.
// ---------------------------------------------------------------------------

struct RedundancyCase {
  const char* matrix;
  rank_t nodes;
  int phi;
};

class AspmvRedundancyProperty
    : public ::testing::TestWithParam<RedundancyCase> {
protected:
  static CsrMatrix make_matrix(const std::string& name) {
    if (name == "laplace1d") return laplace1d(96);
    if (name == "poisson2d") return poisson2d(10, 10);
    if (name == "poisson3d") return poisson3d(5, 5, 4);
    if (name == "banded") return banded_spd(90, 5, 0.4, 13);
    if (name == "emilia") return emilia_like(6, 6, 6).matrix;
    if (name == "diffusion") return diffusion3d_27pt(4, 5, 5, 50, 7);
    if (name == "elasticity") return elasticity3d(3, 3, 4, 20, 9);
    throw Error("unknown matrix " + name);
  }
};

TEST_P(AspmvRedundancyProperty, EveryEntryHasAtLeastPhiOffOwnerCopies) {
  const RedundancyCase& c = GetParam();
  const CsrMatrix a = make_matrix(c.matrix);
  const BlockRowPartition part(a.rows(), c.nodes);
  const SpmvPlan base(a, part);
  const AspmvPlan aug(base, c.phi);
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto receivers = aug.receivers_of(i);
    EXPECT_GE(static_cast<int>(receivers.size()), c.phi)
        << "entry " << i << " under-replicated";
    for (rank_t r : receivers) EXPECT_NE(r, part.owner(i));
  }
}

TEST_P(AspmvRedundancyProperty, AnyContiguousPhiFailureLeavesACopy) {
  const RedundancyCase& c = GetParam();
  const CsrMatrix a = make_matrix(c.matrix);
  const BlockRowPartition part(a.rows(), c.nodes);
  const SpmvPlan base(a, part);
  const AspmvPlan aug(base, c.phi);
  // Slide a contiguous failure window of psi = phi ranks over the ring.
  for (rank_t start = 0; start < c.nodes; ++start) {
    const auto failed =
        contiguous_ranks(start, static_cast<rank_t>(c.phi), c.nodes);
    for (rank_t f : failed) {
      for (index_t i = part.begin(f); i < part.end(f); ++i) {
        const auto receivers = aug.receivers_of(i);
        const bool survives = std::any_of(
            receivers.begin(), receivers.end(),
            [&](rank_t r) { return !rank_in(failed, r); });
        EXPECT_TRUE(survives) << "entry " << i << " lost when ranks starting "
                              << start << " fail";
      }
    }
  }
}

TEST_P(AspmvRedundancyProperty, HolderLayoutHoldsExactlyTheReceivedEntries) {
  const RedundancyCase& c = GetParam();
  const CsrMatrix a = make_matrix(c.matrix);
  const BlockRowPartition part(a.rows(), c.nodes);
  const SpmvPlan base(a, part);
  const AspmvPlan aug(base, c.phi);
  const HolderLayout& layout = *aug.holder_layout();
  ASSERT_EQ(layout.num_holders(), c.nodes);
  std::vector<IndexSet> held;
  for (rank_t h = 0; h < c.nodes; ++h) {
    held.push_back(layout.held(h));
    EXPECT_TRUE(is_index_set(held.back()));
  }
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto receivers = aug.receivers_of(i);
    for (rank_t h = 0; h < c.nodes; ++h) {
      EXPECT_EQ(set_contains(held[static_cast<std::size_t>(h)], i),
                std::binary_search(receivers.begin(), receivers.end(), h))
          << "entry " << i << ", holder " << h;
    }
  }
}

// The runs are maximal and expand to exactly ghosts(h) u receipts(h).
TEST_P(AspmvRedundancyProperty, HolderRunsAreTheMaximalRunsOfGhostsAndReceipts) {
  const RedundancyCase& c = GetParam();
  const CsrMatrix a = make_matrix(c.matrix);
  const BlockRowPartition part(a.rows(), c.nodes);
  const SpmvPlan base(a, part);
  const AspmvPlan aug(base, c.phi);
  const HolderLayout& layout = *aug.holder_layout();
  std::vector<IndexSet> receipts(static_cast<std::size_t>(c.nodes));
  for (rank_t s = 0; s < c.nodes; ++s) {
    for (const SendList& sl : aug.extra_sends(s)) {
      IndexSet& r = receipts[static_cast<std::size_t>(sl.to)];
      r.insert(r.end(), sl.indices.begin(), sl.indices.end());
    }
  }
  std::size_t offset = 0;
  for (rank_t h = 0; h < c.nodes; ++h) {
    const std::span<const IndexRun> runs = layout.runs(h);
    for (std::size_t k = 0; k < runs.size(); ++k) {
      EXPECT_GE(runs[k].length, 1) << "holder " << h << ", run " << k;
      if (k > 0) {
        EXPECT_LT(runs[k - 1].begin + runs[k - 1].length, runs[k].begin)
            << "holder " << h << ": runs " << k - 1 << " and " << k
            << " touch";
      }
    }
    IndexSet& r = receipts[static_cast<std::size_t>(h)];
    std::sort(r.begin(), r.end());
    EXPECT_EQ(layout.held(h), set_union(base.ghosts(h), r)) << "holder " << h;
    EXPECT_EQ(layout.offset(h), offset) << "holder " << h;
    offset += layout.size(h);
  }
  EXPECT_EQ(layout.total_entries(), offset);
}

// slot() and find_surviving() search the runs; they must answer every
// index, held or not, as a lower_bound over the expanded set does.
TEST_P(AspmvRedundancyProperty, RunLookupsMatchASearchOfTheExpandedSet) {
  const RedundancyCase& c = GetParam();
  const CsrMatrix a = make_matrix(c.matrix);
  const BlockRowPartition part(a.rows(), c.nodes);
  const SpmvPlan base(a, part);
  const AspmvPlan aug(base, c.phi);
  const auto layout = aug.holder_layout();
  // Each value is its own buffer position, so a lookup names its slot.
  Vector positions(layout->total_entries());
  for (std::size_t k = 0; k < positions.size(); ++k)
    positions[k] = static_cast<real_t>(k);
  const RedundantCopy copy(0, layout, positions);
  std::vector<IndexSet> held;
  for (rank_t h = 0; h < c.nodes; ++h) held.push_back(layout->held(h));

  for (index_t i = 0; i < a.rows(); ++i) {
    // Reference: holder h's slot of i by lower_bound; the surviving copy is
    // the lowest holder outside the failed set.
    std::vector<std::optional<std::size_t>> expected;
    for (rank_t h = 0; h < c.nodes; ++h) {
      const IndexSet& set = held[static_cast<std::size_t>(h)];
      const auto it = std::lower_bound(set.begin(), set.end(), i);
      expected.push_back(it != set.end() && *it == i
                             ? std::optional<std::size_t>(
                                   layout->offset(h) +
                                   static_cast<std::size_t>(it - set.begin()))
                             : std::nullopt);
      EXPECT_EQ(layout->slot(h, i), expected.back())
          << "entry " << i << ", holder " << h;
    }
    std::vector<rank_t> failed;
    for (rank_t h = 0; h <= c.nodes; ++h) {
      // Fail holders 0..h-1 in turn: the answer is the next holder of i.
      rank_t next = h;
      while (next < c.nodes && !expected[static_cast<std::size_t>(next)])
        ++next;
      const auto hit = copy.find_surviving(i, failed);
      if (next == c.nodes) {
        EXPECT_FALSE(hit.has_value()) << "entry " << i;
      } else {
        ASSERT_TRUE(hit.has_value()) << "entry " << i;
        EXPECT_EQ(hit->first, next) << "entry " << i;
        EXPECT_EQ(hit->second, static_cast<real_t>(
                                   *expected[static_cast<std::size_t>(next)]))
            << "entry " << i;
      }
      failed.push_back(h);
    }
  }
}

// holders_of() is the inverse of the held sets: entry i's holders,
// ascending, and nothing outside the matrix's rows.
TEST_P(AspmvRedundancyProperty, HoldersOfInvertsTheHeldSets) {
  const RedundancyCase& c = GetParam();
  const CsrMatrix a = make_matrix(c.matrix);
  const BlockRowPartition part(a.rows(), c.nodes);
  const SpmvPlan base(a, part);
  const AspmvPlan aug(base, c.phi);
  const auto layout = aug.holder_layout();
  std::vector<std::vector<rank_t>> expected(static_cast<std::size_t>(a.rows()));
  for (rank_t h = 0; h < c.nodes; ++h)
    for (index_t i : layout->held(h))
      expected[static_cast<std::size_t>(i)].push_back(h);
  for (index_t i = 0; i < a.rows(); ++i) {
    const std::span<const rank_t> got = layout->holders_of(i);
    EXPECT_EQ(std::vector<rank_t>(got.begin(), got.end()),
              expected[static_cast<std::size_t>(i)])
        << "entry " << i;
  }
  EXPECT_TRUE(layout->holders_of(-1).empty());
  EXPECT_TRUE(layout->holders_of(a.rows()).empty());
}

std::string case_name(const ::testing::TestParamInfo<RedundancyCase>& info) {
  return std::string(info.param.matrix) + "_N" +
         std::to_string(info.param.nodes) + "_phi" +
         std::to_string(info.param.phi);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AspmvRedundancyProperty,
    ::testing::Values(
        RedundancyCase{"laplace1d", 8, 1}, RedundancyCase{"laplace1d", 8, 3},
        RedundancyCase{"laplace1d", 12, 8}, RedundancyCase{"poisson2d", 10, 1},
        RedundancyCase{"poisson2d", 10, 3}, RedundancyCase{"poisson2d", 10, 8},
        RedundancyCase{"poisson3d", 7, 3}, RedundancyCase{"banded", 9, 2},
        RedundancyCase{"banded", 9, 5}, RedundancyCase{"diffusion", 8, 3},
        RedundancyCase{"elasticity", 6, 2}, RedundancyCase{"elasticity", 6, 4}),
    case_name);

// poisson2d, emilia 6^3 and banded at several node counts, phi 1 to 3: the
// same grid the capture property of tests/comm/exchange_test.cpp runs.
std::vector<RedundancyCase> layout_cases() {
  std::vector<RedundancyCase> cases;
  for (const char* matrix : {"poisson2d", "emilia", "banded"})
    for (const rank_t nodes : {4, 7, 12})
      for (const int phi : {1, 2, 3}) cases.push_back({matrix, nodes, phi});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(LayoutGrid, AspmvRedundancyProperty,
                         ::testing::ValuesIn(layout_cases()), case_name);

} // namespace
} // namespace esrp
