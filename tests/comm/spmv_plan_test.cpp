#include "comm/spmv_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"

namespace esrp {
namespace {

/// Square matrix with a diagonal plus `per_row` uniformly scattered columns
/// per row: ghosts from many owners, unlike a banded stencil.
CsrMatrix random_matrix(index_t n, int per_row, std::uint64_t seed) {
  Rng rng(seed);
  CooBuilder b(n, n);
  for (index_t i = 0; i < n; ++i) {
    b.add(i, i, 4);
    for (int k = 0; k < per_row; ++k)
      b.add(i, rng.uniform_index(0, n - 1), rng.uniform(0.5, 1.5));
  }
  return b.to_csr();
}

/// (label, matrix, partition) cases for the local-numbering tests: an even
/// split, and the offsets partition shrink recovery leaves behind, with
/// empty ranks at the front and in the middle.
std::vector<std::pair<std::string, std::pair<CsrMatrix, BlockRowPartition>>>
plan_cases() {
  const CsrMatrix rnd = random_matrix(300, 6, 7);
  const CsrMatrix stencil = poisson3d(6, 6, 6);
  const BlockRowPartition even(300, 9);
  const rank_t failed[] = {0, 3, 4, 7};
  return {{"random/even", {rnd, even}},
          {"random/shrunk", {rnd, absorb_ranks(even, failed)}},
          {"poisson/shrunk",
           {stencil, absorb_ranks(BlockRowPartition(216, 8), failed)}}};
}

TEST(SpmvPlan, Laplace1dSendsBoundaryEntriesToNeighbors) {
  const CsrMatrix a = laplace1d(8);
  const BlockRowPartition part(8, 4); // ranges [0,2) [2,4) [4,6) [6,8)
  const SpmvPlan plan(a, part);

  // Node 0 owns {0,1}; node 1's rows 2..3 reference column 1 -> I_{0,1}={1}.
  EXPECT_EQ(plan.send_set(0, 1), (IndexSet{1}));
  // Node 1 sends its first entry left and its last entry right.
  EXPECT_EQ(plan.send_set(1, 0), (IndexSet{2}));
  EXPECT_EQ(plan.send_set(1, 2), (IndexSet{3}));
  // Non-adjacent nodes exchange nothing for a tridiagonal matrix.
  EXPECT_TRUE(plan.send_set(0, 2).empty());
  EXPECT_TRUE(plan.send_set(0, 3).empty());
}

TEST(SpmvPlan, GhostsAreExactlyTheOffNodeColumns) {
  const CsrMatrix a = laplace1d(8);
  const BlockRowPartition part(8, 4);
  const SpmvPlan plan(a, part);
  EXPECT_EQ(plan.ghosts(0), (IndexSet{2}));
  EXPECT_EQ(plan.ghosts(1), (IndexSet{1, 4}));
  EXPECT_EQ(plan.ghosts(3), (IndexSet{5}));
}

TEST(SpmvPlan, MultiplicityCountsDistinctReceivers) {
  const CsrMatrix a = laplace1d(8);
  const BlockRowPartition part(8, 4);
  const SpmvPlan plan(a, part);
  // Interior entries of a node (e.g. index 0) are never sent: m = 0.
  EXPECT_EQ(plan.multiplicity(0), 0);
  // Boundary entries go to exactly one neighbor: m = 1.
  EXPECT_EQ(plan.multiplicity(1), 1);
  EXPECT_EQ(plan.multiplicity(2), 1);
}

TEST(SpmvPlan, TridiagonalDoesNotProvideFullRedundancy) {
  const CsrMatrix a = laplace1d(12);
  const BlockRowPartition part(12, 4);
  const SpmvPlan plan(a, part);
  // Paper §2.2: most matrices fail the full-redundancy condition.
  EXPECT_FALSE(plan.provides_full_redundancy());
}

TEST(SpmvPlan, OnePerNodeRowsGiveFullRedundancy) {
  // With one row per node, every off-diagonal entry crosses a node
  // boundary, so every entry of a connected stencil is sent somewhere.
  const CsrMatrix a = laplace1d(6);
  const BlockRowPartition part(6, 6);
  const SpmvPlan plan(a, part);
  EXPECT_TRUE(plan.provides_full_redundancy());
}

TEST(SpmvPlan, LocalNnzSumsToTotal) {
  const CsrMatrix a = poisson2d(8, 8);
  const BlockRowPartition part(64, 5);
  const SpmvPlan plan(a, part);
  index_t total = 0;
  for (rank_t s = 0; s < 5; ++s) total += plan.local_nnz(s);
  EXPECT_EQ(total, a.nnz());
}

TEST(SpmvPlan, SendListsNeverTargetSelf) {
  const CsrMatrix a = poisson2d(10, 10);
  const BlockRowPartition part(100, 7);
  const SpmvPlan plan(a, part);
  for (rank_t s = 0; s < 7; ++s) {
    for (const SendList& sl : plan.sends(s)) {
      EXPECT_NE(sl.to, s);
      EXPECT_TRUE(is_index_set(sl.indices));
      for (index_t i : sl.indices) EXPECT_EQ(part.owner(i), s);
    }
  }
}

TEST(SpmvPlan, TotalEntriesMatchesSumOfSendLists) {
  const CsrMatrix a = poisson2d(9, 9);
  const BlockRowPartition part(81, 6);
  const SpmvPlan plan(a, part);
  std::uint64_t manual = 0;
  for (rank_t s = 0; s < 6; ++s)
    for (const SendList& sl : plan.sends(s)) manual += sl.indices.size();
  EXPECT_EQ(plan.total_entries_sent(), manual);
  EXPECT_GT(manual, 0u);
}

TEST(SpmvPlan, SendSetsCoverEveryGhost) {
  const CsrMatrix a = poisson3d(4, 4, 4);
  const BlockRowPartition part(64, 8);
  const SpmvPlan plan(a, part);
  for (rank_t l = 0; l < 8; ++l) {
    for (index_t g : plan.ghosts(l)) {
      const rank_t owner = part.owner(g);
      EXPECT_TRUE(set_contains(plan.send_set(owner, l), g))
          << "ghost " << g << " of node " << l << " not covered";
    }
  }
}

TEST(SpmvPlan, DenserMatrixSendsMoreEntries) {
  // Paper §2.2: denser matrices move more data in the regular SpMV.
  const CsrMatrix narrow = banded_spd(60, 2, 1.0, 1);
  const CsrMatrix wide = banded_spd(60, 12, 1.0, 1);
  const BlockRowPartition part(60, 6);
  EXPECT_LT(SpmvPlan(narrow, part).total_entries_sent(),
            SpmvPlan(wide, part).total_entries_sent());
}

TEST(SpmvPlan, LocalColumnsAddressOwnedThenGhosts) {
  for (const auto& [label, mp] : plan_cases()) {
    const auto& [a, part] = mp;
    const SpmvPlan plan(a, part);
    for (rank_t s = 0; s < part.num_nodes(); ++s) {
      const index_t owned = part.local_size(s);
      const IndexSet& ghosts = plan.ghosts(s);
      const auto cols = plan.local_cols(s);
      ASSERT_EQ(static_cast<index_t>(cols.size()), plan.local_nnz(s)) << label;
      std::size_t q = 0;
      for (index_t i = part.begin(s); i < part.end(s); ++i) {
        IndexSet mapped;
        for (std::size_t k = 0; k < a.row_cols(i).size(); ++k, ++q) {
          const index_t c = cols[q];
          ASSERT_GE(c, 0) << label;
          ASSERT_LT(c, owned + static_cast<index_t>(ghosts.size())) << label;
          mapped.push_back(c < owned
                               ? part.begin(s) + c
                               : ghosts[static_cast<std::size_t>(c - owned)]);
        }
        const auto row = a.row_cols(i);
        EXPECT_EQ(mapped, IndexSet(row.begin(), row.end()))
            << label << " rank " << s << " row " << i;
      }
    }
  }
}

TEST(SpmvPlan, SendListsLandAtTheirSlot) {
  for (const auto& [label, mp] : plan_cases()) {
    const auto& [a, part] = mp;
    const SpmvPlan plan(a, part);
    for (rank_t s = 0; s < part.num_nodes(); ++s) {
      for (const SendList& sl : plan.sends(s)) {
        const IndexSet& ghosts = plan.ghosts(sl.to);
        const auto first =
            static_cast<std::ptrdiff_t>(sl.slot - part.local_size(sl.to));
        ASSERT_GE(first, 0) << label;
        ASSERT_LE(first + static_cast<std::ptrdiff_t>(sl.indices.size()),
                  static_cast<std::ptrdiff_t>(ghosts.size()))
            << label;
        EXPECT_EQ(IndexSet(ghosts.begin() + first,
                           ghosts.begin() + first +
                               static_cast<std::ptrdiff_t>(sl.indices.size())),
                  sl.indices)
            << label << " " << s << "->" << sl.to;
      }
    }
  }
}

TEST(SpmvPlan, OnePassBuildMatchesBruteForceReference) {
  for (const auto& [label, mp] : plan_cases()) {
    const auto& [a, part] = mp;
    const SpmvPlan plan(a, part);
    const rank_t n_nodes = part.num_nodes();
    // Reference: I_{s,l} straight from the definition, one owner at a time.
    std::vector<std::vector<SendList>> sends(static_cast<std::size_t>(n_nodes));
    std::vector<int> multiplicity(static_cast<std::size_t>(a.rows()), 0);
    for (rank_t l = 0; l < n_nodes; ++l) {
      IndexSet ghosts;
      for (rank_t s = 0; s < n_nodes; ++s) {
        if (s == l) continue;
        IndexSet need;
        for (index_t i = part.begin(l); i < part.end(l); ++i)
          for (index_t j : a.row_cols(i))
            if (part.owner(j) == s) need.push_back(j);
        std::sort(need.begin(), need.end());
        need.erase(std::unique(need.begin(), need.end()), need.end());
        for (index_t j : need) ++multiplicity[static_cast<std::size_t>(j)];
        ghosts = set_union(ghosts, need);
        if (!need.empty())
          sends[static_cast<std::size_t>(s)].push_back(SendList{l, need});
      }
      EXPECT_EQ(plan.ghosts(l), ghosts) << label << " rank " << l;
    }
    for (rank_t s = 0; s < n_nodes; ++s) {
      const auto& got = plan.sends(s);
      const auto& want = sends[static_cast<std::size_t>(s)];
      ASSERT_EQ(got.size(), want.size()) << label << " rank " << s;
      for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].to, want[k].to) << label;
        EXPECT_EQ(got[k].indices, want[k].indices) << label;
      }
    }
    for (index_t i = 0; i < a.rows(); ++i)
      EXPECT_EQ(plan.multiplicity(i), multiplicity[static_cast<std::size_t>(i)])
          << label << " entry " << i;
  }
}

} // namespace
} // namespace esrp
