#include "precond/block_jacobi.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <latch>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "../parallel/thread_count_guard.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "precond/jacobi.hpp"
#include "sparse/coo.hpp"
#include "sparse/dense.hpp"
#include "sparse/generators.hpp"

namespace esrp {
namespace {

/// The block Jacobi P and M assembled through triplets, each block inverted
/// one unit right-hand side at a time: the reference the in-place build is
/// pinned to.
struct CooReference {
  CsrMatrix p;
  CsrMatrix m;
};

CooReference coo_reference(const CsrMatrix& a,
                           const std::vector<index_t>& starts) {
  CooBuilder inv_builder(a.rows(), a.rows());
  CooBuilder mat_builder(a.rows(), a.rows());
  for (std::size_t b = 0; b + 1 < starts.size(); ++b) {
    const index_t lo = starts[b], hi = starts[b + 1];
    const index_t len = hi - lo;
    if (len == 0) continue;
    DenseMatrix block(len, len);
    for (index_t i = lo; i < hi; ++i) {
      const auto cols = a.row_cols(i);
      const auto vals = a.row_vals(i);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        const index_t j = cols[k];
        if (j >= lo && j < hi) {
          block(i - lo, j - lo) = vals[k];
          mat_builder.add(i, j, vals[k]);
        }
      }
    }
    const Cholesky chol(block);
    Vector e(static_cast<std::size_t>(len), 0);
    for (index_t bj = 0; bj < len; ++bj) {
      e[static_cast<std::size_t>(bj)] = 1;
      const Vector col = chol.solve(e);
      e[static_cast<std::size_t>(bj)] = 0;
      for (index_t bi = 0; bi < len; ++bi) {
        const real_t v = col[static_cast<std::size_t>(bi)];
        if (v != real_t{0}) inv_builder.add(lo + bi, lo + bj, v);
      }
    }
  }
  return {inv_builder.to_csr(), mat_builder.to_csr()};
}

bool bitwise_equal(std::span<const real_t> got, std::span<const real_t> want) {
  const auto bits = [](real_t v) { return std::bit_cast<std::uint64_t>(v); };
  return std::ranges::equal(got, want, {}, bits, bits);
}

void expect_bitwise_equal(const CsrMatrix& got, const CsrMatrix& want) {
  EXPECT_EQ(got.rows(), want.rows());
  EXPECT_EQ(got.cols(), want.cols());
  EXPECT_TRUE(std::ranges::equal(got.row_ptr(), want.row_ptr()));
  EXPECT_TRUE(std::ranges::equal(got.col_idx(), want.col_idx()));
  EXPECT_TRUE(bitwise_equal(got.values(), want.values()));
}

Vector random_vector(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(static_cast<std::size_t>(n));
  for (real_t& x : v) x = rng.uniform(-1, 1);
  return v;
}

/// Blocks whose inverse holds no exact zero: the ones the CSR action
/// matrix stores whole (len^2 entries). The dense kernel multiplies the
/// zeros of the others too.
index_t zero_free_blocks(const BlockJacobiPreconditioner& p) {
  const auto row_ptr = p.action_matrix()->row_ptr();
  const auto& starts = p.block_starts();
  index_t whole = 0;
  for (std::size_t k = 0; k + 1 < starts.size(); ++k) {
    const index_t len = starts[k + 1] - starts[k];
    if (row_ptr[starts[k + 1]] - row_ptr[starts[k]] == len * len) ++whole;
  }
  return whole;
}

/// apply() is bitwise the action matrix's spmv, at 1 and 4 threads.
void expect_apply_matches_spmv(const Preconditioner& p) {
  ThreadCountGuard guard;
  const Vector r = random_vector(p.dim(), 11);
  Vector want(r.size());
  p.action_matrix()->spmv(r, want);
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    Vector got(r.size(), std::numeric_limits<real_t>::quiet_NaN());
    p.apply(r, got);
    EXPECT_TRUE(bitwise_equal(got, want)) << p.name() << ", " << threads
                                          << " threads";
  }
}

/// apply_local on each node range is bitwise the spmv of the node's
/// extracted diagonal block of P — the per-node copy the distributed
/// solvers applied before apply_local.
void expect_apply_local_matches_extract(const Preconditioner& p,
                                        const BlockRowPartition& part) {
  const Vector r = random_vector(p.dim(), 12);
  for (rank_t s = 0; s < part.num_nodes(); ++s) {
    const index_t lo = part.begin(s), hi = part.end(s);
    const IndexSet range = index_range(lo, hi);
    const CsrMatrix block = p.action_matrix()->extract(range, range);
    const auto rs = std::span<const real_t>(r).subspan(
        static_cast<std::size_t>(lo), static_cast<std::size_t>(hi - lo));
    Vector want(rs.size());
    Vector got(rs.size(), std::numeric_limits<real_t>::quiet_NaN());
    block.spmv(rs, want);
    p.apply_local(lo, hi, rs, got);
    EXPECT_TRUE(bitwise_equal(got, want)) << p.name() << ", node " << s;
  }
}

TEST(UniformBlocks, FewestBlocksUnderCap) {
  // 25 rows, cap 10 -> 3 blocks of sizes 9,8,8.
  const auto starts = uniform_blocks(0, 25, 10);
  EXPECT_EQ(starts, (std::vector<index_t>{0, 9, 17, 25}));
}

TEST(UniformBlocks, ExactMultiple) {
  const auto starts = uniform_blocks(5, 25, 10);
  EXPECT_EQ(starts, (std::vector<index_t>{5, 15, 25}));
}

TEST(UniformBlocks, EmptyRange) {
  EXPECT_EQ(uniform_blocks(3, 3, 10), (std::vector<index_t>{3}));
}

TEST(UniformBlocks, CapOneGivesSingletons) {
  EXPECT_EQ(uniform_blocks(0, 3, 1), (std::vector<index_t>{0, 1, 2, 3}));
}

TEST(BlockJacobi, BlocksAlignWithNodeBoundaries) {
  const CsrMatrix a = poisson2d(8, 8); // 64 rows
  const BlockRowPartition part(64, 4); // 16 per node
  BlockJacobiPreconditioner p(a, part, 10);
  const auto& starts = p.block_starts();
  // Node boundaries 16, 32, 48 must appear among the block boundaries.
  for (index_t boundary : {16, 32, 48}) {
    EXPECT_TRUE(std::find(starts.begin(), starts.end(), boundary) !=
                starts.end());
  }
  // No block exceeds the cap.
  for (std::size_t k = 0; k + 1 < starts.size(); ++k)
    EXPECT_LE(starts[k + 1] - starts[k], 10);
}

TEST(BlockJacobi, ActionIsExactInverseOnEachBlock) {
  const CsrMatrix a = banded_spd(24, 2, 1.0, 5);
  BlockJacobiPreconditioner p(a, /*max_block_size=*/6);
  const CsrMatrix* act = p.action_matrix();
  ASSERT_NE(act, nullptr);
  // For each block B: act_block * B = I.
  const auto& starts = p.block_starts();
  const DenseMatrix ad = DenseMatrix::from_csr(a);
  const DenseMatrix pd = DenseMatrix::from_csr(*act);
  for (std::size_t k = 0; k + 1 < starts.size(); ++k) {
    const index_t lo = starts[k], hi = starts[k + 1];
    const index_t len = hi - lo;
    DenseMatrix b(len, len), inv(len, len);
    for (index_t i = 0; i < len; ++i)
      for (index_t j = 0; j < len; ++j) {
        b(i, j) = ad(lo + i, lo + j);
        inv(i, j) = pd(lo + i, lo + j);
      }
    const DenseMatrix prod = inv.multiply(b);
    EXPECT_LT(prod.max_abs_diff(DenseMatrix::identity(len)), 1e-10);
  }
}

TEST(BlockJacobi, ActionMatrixIsSymmetric) {
  const CsrMatrix a = poisson3d(3, 3, 3);
  BlockJacobiPreconditioner p(a, 10);
  EXPECT_TRUE(p.action_matrix()->is_symmetric(1e-10));
}

TEST(BlockJacobi, BlockSizeOneEqualsPointJacobi) {
  const CsrMatrix a = banded_spd(15, 3, 0.6, 8);
  BlockJacobiPreconditioner p(a, 1);
  const Vector d = a.diagonal();
  Vector r(15, 1), z(15);
  p.apply(r, z);
  for (std::size_t i = 0; i < 15; ++i)
    EXPECT_NEAR(z[i], 1.0 / d[i], 1e-14);
}

TEST(BlockJacobi, ApplySolvesBlockSystems) {
  // For block-diagonal A (bandwidth smaller than block size), the block
  // Jacobi action is the full inverse: A * (P r) = r.
  const CsrMatrix a = banded_spd(20, 1, 1.0, 3);
  BlockJacobiPreconditioner p(a, 20); // one block = full matrix
  Rng rng(4);
  Vector r(20), z(20), az(20);
  for (auto& v : r) v = rng.uniform(-1, 1);
  p.apply(r, z);
  a.spmv(z, az);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_NEAR(az[i], r[i], 1e-10);
}

TEST(BlockJacobi, NodeLocalRowsNeverCrossNodeBoundary) {
  const CsrMatrix a = diffusion3d_27pt(4, 4, 4, 10, 6);
  const BlockRowPartition part(64, 5);
  BlockJacobiPreconditioner p(a, part, 10);
  const CsrMatrix* act = p.action_matrix();
  for (rank_t s = 0; s < 5; ++s) {
    for (index_t i = part.begin(s); i < part.end(s); ++i) {
      for (index_t j : act->row_cols(i)) {
        EXPECT_GE(j, part.begin(s));
        EXPECT_LT(j, part.end(s));
      }
    }
  }
}

TEST(BlockJacobi, PaperDefaultBlockSizeIsTen) {
  const CsrMatrix a = poisson2d(10, 10);
  const BlockRowPartition part(100, 4);
  BlockJacobiPreconditioner p(a, part);
  const auto& starts = p.block_starts();
  for (std::size_t k = 0; k + 1 < starts.size(); ++k)
    EXPECT_LE(starts[k + 1] - starts[k], 10);
}

TEST(BlockJacobi, InPlaceBuildMatchesCooReferenceBitwise) {
  const auto check = [](const CsrMatrix& a, const BlockJacobiPreconditioner& p) {
    const CooReference ref = coo_reference(a, p.block_starts());
    expect_bitwise_equal(*p.action_matrix(), ref.p);
    expect_bitwise_equal(*p.matrix_form(), ref.m);
    return ref;
  };
  {
    // emilia's blocks are reducible, so their inverses hold exact zeros
    // that both builds must drop.
    const CsrMatrix a = emilia_like(20, 20, 20).matrix;
    const BlockJacobiPreconditioner p(a, BlockRowPartition(a.rows(), 128));
    const CooReference ref = check(a, p);
    std::size_t block_entries = 0;
    const auto& starts = p.block_starts();
    for (std::size_t k = 0; k + 1 < starts.size(); ++k)
      block_entries += static_cast<std::size_t>((starts[k + 1] - starts[k]) *
                                                (starts[k + 1] - starts[k]));
    EXPECT_LT(static_cast<std::size_t>(ref.p.nnz()), block_entries);
  }
  {
    const CsrMatrix a = poisson3d(12, 12, 12);
    check(a, BlockJacobiPreconditioner(a));
  }
  {
    // Empty ranks first, in the middle and last, as absorb_ranks leaves them.
    const CsrMatrix a = emilia_like(6, 6, 6).matrix; // 216 rows
    const BlockRowPartition part({0, 0, 50, 50, 123, 216, 216});
    check(a, BlockJacobiPreconditioner(a, part));
  }
  {
    // Stored zeros at (2, 3) and (3, 2), inside the first block of 4.
    const CsrMatrix l = laplace1d(8);
    std::vector<real_t> vals(l.values().begin(), l.values().end());
    for (index_t i : {2, 3}) {
      const auto cols = l.row_cols(i);
      for (std::size_t k = 0; k < cols.size(); ++k)
        if (cols[k] == 5 - i)
          vals[static_cast<std::size_t>(l.row_ptr()[i]) + k] = 0;
    }
    const CsrMatrix a(
        8, 8, std::vector<index_t>(l.row_ptr().begin(), l.row_ptr().end()),
        std::vector<col_t>(l.col_idx().begin(), l.col_idx().end()),
        std::move(vals));
    check(a, BlockJacobiPreconditioner(a, 4));
  }
}

TEST(BlockJacobi, ApplyMatchesActionMatrixSpmvBitwise) {
  {
    // Single domain, each block one grid line: no inverse holds a zero.
    const CsrMatrix a = poisson3d(10, 10, 10);
    const BlockJacobiPreconditioner p(a);
    EXPECT_EQ(zero_free_blocks(p), p.num_blocks());
    expect_apply_matches_spmv(p);
  }
  {
    // emilia's reducible blocks hold exact zeros, which the CSR drops and
    // the dense kernel multiplies: the sums still agree bit for bit.
    const CsrMatrix a = emilia_like(20, 20, 20).matrix;
    const BlockJacobiPreconditioner p(a, BlockRowPartition(a.rows(), 128));
    EXPECT_GT(zero_free_blocks(p), 0);
    EXPECT_LT(zero_free_blocks(p), p.num_blocks());
    expect_apply_matches_spmv(p);
  }
  {
    const CsrMatrix a = audikw_like(6, 6, 6).matrix;
    expect_apply_matches_spmv(
        BlockJacobiPreconditioner(a, BlockRowPartition(a.rows(), 16)));
  }
  {
    const CsrMatrix a = banded_spd(50, 3, 0.6, 8);
    expect_apply_matches_spmv(BlockJacobiPreconditioner(a, 1));
  }
  {
    // Empty ranks first, in the middle and last, as absorb_ranks leaves them.
    const CsrMatrix a = emilia_like(6, 6, 6).matrix; // 216 rows
    const BlockRowPartition part({0, 0, 50, 50, 123, 216, 216});
    expect_apply_matches_spmv(BlockJacobiPreconditioner(a, part));
  }
  {
    // Every block length from 1 to 12: the kernels specialized by length
    // and, above 10, the one for any length. 1000 rows make several
    // parallel chunks of blocks at 4 threads.
    const CsrMatrix a = emilia_like(10, 10, 10).matrix;
    for (index_t size = 1; size <= 12; ++size) {
      const BlockJacobiPreconditioner p(a, size);
      ASSERT_EQ(p.block_starts()[1], size);
      expect_apply_matches_spmv(p);
    }
  }
}

TEST(BlockJacobi, ApplyLocalMatchesExtractedBlockBitwise) {
  {
    const CsrMatrix a = emilia_like(20, 20, 20).matrix;
    const BlockRowPartition part(a.rows(), 128);
    expect_apply_local_matches_extract(BlockJacobiPreconditioner(a, part),
                                       part);
  }
  {
    const CsrMatrix a = emilia_like(6, 6, 6).matrix; // 216 rows
    const BlockRowPartition part({0, 0, 50, 50, 123, 216, 216});
    expect_apply_local_matches_extract(BlockJacobiPreconditioner(a, part),
                                       part);
  }
  {
    // Decoupled 2x2 pairs under blocks of 4: the ranges [0, 2), [2, 6) and
    // [6, 8) cut both blocks, yet P couples nothing across them.
    CooBuilder b(8, 8);
    for (index_t i = 0; i < 8; i += 2) {
      b.add(i, i, 4.0);
      b.add(i + 1, i + 1, 3.0);
      b.add_sym(i, i + 1, 1.0);
    }
    const CsrMatrix a = b.to_csr();
    const BlockJacobiPreconditioner p(a, 4);
    ASSERT_EQ(p.block_starts(), (std::vector<index_t>{0, 4, 8}));
    const BlockRowPartition part({0, 2, 6, 8});
    check_node_local(p, part);
    expect_apply_local_matches_extract(p, part);
  }
  {
    // The default path: point Jacobi walks its action matrix's rows.
    const CsrMatrix a = poisson2d(9, 9);
    const BlockRowPartition part(a.rows(), 7);
    expect_apply_local_matches_extract(JacobiPreconditioner(a), part);
  }
  {
    // A range P couples outside is rejected, not truncated.
    const CsrMatrix a = poisson3d(4, 4, 4);
    const BlockJacobiPreconditioner p(a, 10);
    const Vector r(5, 1.0);
    Vector z(5);
    EXPECT_THROW(p.apply_local(0, 5, r, z), Error);
  }
}

/// The base class's CSR-scan defaults over another preconditioner's action
/// matrix: the reference for block Jacobi's answers from its blocks.
class CsrScan final : public Preconditioner {
public:
  explicit CsrScan(const Preconditioner& p) : p_(*p.action_matrix()) {}
  std::string name() const override { return "csr_scan"; }
  index_t dim() const override { return p_.rows(); }
  void apply(std::span<const real_t> r, std::span<real_t> z) const override {
    p_.spmv(r, z);
  }
  const CsrMatrix* action_matrix() const override { return &p_; }
  double apply_flops() const override {
    return 2.0 * static_cast<double>(p_.nnz());
  }

private:
  const CsrMatrix& p_;
};

/// On every range [lo, hi) of p, apply_local_flops and
/// first_row_coupled_outside equal the CSR scan's.
void expect_range_queries_match_csr_scan(const Preconditioner& p) {
  const CsrScan scan(p);
  EXPECT_EQ(p.apply_flops(), scan.apply_flops());
  for (index_t lo = 0; lo <= p.dim(); ++lo)
    for (index_t hi = lo; hi <= p.dim(); ++hi) {
      ASSERT_EQ(p.apply_local_flops(lo, hi), scan.apply_local_flops(lo, hi))
          << "[" << lo << ", " << hi << ")";
      ASSERT_EQ(p.first_row_coupled_outside(lo, hi),
                scan.first_row_coupled_outside(lo, hi))
          << "[" << lo << ", " << hi << ")";
    }
}

TEST(BlockJacobi, RangeQueriesMatchCsrScan) {
  {
    // Reducible blocks: rows whose inverse has exact zeros at the columns
    // a cut falls between.
    const CsrMatrix a = emilia_like(4, 4, 4).matrix; // 64 rows
    expect_range_queries_match_csr_scan(BlockJacobiPreconditioner(a, 10));
    expect_range_queries_match_csr_scan(
        BlockJacobiPreconditioner(a, BlockRowPartition({0, 0, 13, 40, 64})));
  }
  {
    const CsrMatrix a = audikw_like(2, 2, 3).matrix; // 36 rows, 3 dof
    expect_range_queries_match_csr_scan(BlockJacobiPreconditioner(a, 12));
  }
  {
    // The decoupled 2x2 pairs of ApplyLocalMatchesExtractedBlockBitwise.
    CooBuilder b(8, 8);
    for (index_t i = 0; i < 8; i += 2) {
      b.add(i, i, 4.0);
      b.add(i + 1, i + 1, 3.0);
      b.add_sym(i, i + 1, 1.0);
    }
    const CsrMatrix a = b.to_csr();
    expect_range_queries_match_csr_scan(BlockJacobiPreconditioner(a, 4));
  }
}

TEST(BlockJacobi, SingleDomainBlocksAcrossRanksAreRejected) {
  // Single-domain blocks of 10, 9, 9, ... on 64 rows. The block [10, 19)
  // is reducible: rows 10..15 (the grid line pair y = 2, 3 of plane z = 0)
  // couple only among themselves, so the plane boundary at 16 cuts
  // nothing, but a rank boundary at 12 does.
  const CsrMatrix a = poisson3d(4, 4, 4);
  const BlockJacobiPreconditioner p(a, 10);
  ASSERT_EQ(p.block_starts()[1], 10);
  check_node_local(p, BlockRowPartition(a.rows(), 4));
  const BlockRowPartition part({0, 12, 64});
  EXPECT_EQ(p.first_row_coupled_outside(0, 12), 10);
  EXPECT_EQ(p.first_row_coupled_outside(12, 64), 12);
  try {
    check_node_local(p, part);
    FAIL() << "expected esrp::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("row 10 crosses the boundary of node 0"),
              std::string::npos)
        << what;
  }
  EXPECT_THROW(check_node_local(CsrScan(p), part), Error);
}

TEST(BlockJacobi, ConcurrentFirstActionMatrixCallsBuildOnce) {
  const CsrMatrix a = emilia_like(10, 10, 10).matrix;
  const BlockJacobiPreconditioner p(a, BlockRowPartition(a.rows(), 16));
  constexpr int kThreads = 4;
  std::vector<const CsrMatrix*> got(kThreads, nullptr);
  std::latch start(kThreads);
  // Naked threads, not the pool: every first call must race the others.
  std::vector<std::thread> workers; // esrp-lint: allow(raw-thread)
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      start.arrive_and_wait();
      got[static_cast<std::size_t>(t)] = p.action_matrix();
    });
  for (std::thread& w : workers) w.join(); // esrp-lint: allow(raw-thread)
  for (const CsrMatrix* m : got) EXPECT_EQ(m, got[0]);
  ASSERT_NE(got[0], nullptr);
  expect_bitwise_equal(*got[0], coo_reference(a, p.block_starts()).p);
}

TEST(BlockJacobi, ConcurrentFirstMatrixFormCallsBuildOnce) {
  const CsrMatrix a = emilia_like(10, 10, 10).matrix;
  const BlockJacobiPreconditioner p(a, BlockRowPartition(a.rows(), 16));
  constexpr int kThreads = 4;
  std::vector<const CsrMatrix*> got(kThreads, nullptr);
  std::latch start(kThreads);
  // Naked threads, not the pool: every first call must race the others.
  std::vector<std::thread> workers; // esrp-lint: allow(raw-thread)
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      start.arrive_and_wait();
      got[static_cast<std::size_t>(t)] = p.matrix_form();
    });
  for (std::thread& w : workers) w.join(); // esrp-lint: allow(raw-thread)
  for (const CsrMatrix* m : got) EXPECT_EQ(m, got[0]);
  ASSERT_NE(got[0], nullptr);
  expect_bitwise_equal(*got[0], coo_reference(a, p.block_starts()).m);
  EXPECT_EQ(p.matrix_form(), got[0]);
}

TEST(BlockJacobi, NonSpdBlockNamesItsRows) {
  // Tridiagonal, positive on rows [0, 10) and negative on rows [10, 20):
  // with blocks of 10 the second diagonal block is negative definite.
  CooBuilder b(20, 20);
  for (index_t i = 0; i < 20; ++i) {
    b.add(i, i, i < 10 ? 4.0 : -4.0);
    if (i + 1 < 20) b.add_sym(i, i + 1, 1.0);
  }
  const CsrMatrix a = b.to_csr();
  try {
    BlockJacobiPreconditioner p(a, 10);
    FAIL() << "expected esrp::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rows [10, 20)"), std::string::npos) << what;
    EXPECT_NE(what.find("not SPD"), std::string::npos) << what;
  }
}

} // namespace
} // namespace esrp
