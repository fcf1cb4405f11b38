// Direct tests of the Alg. 2 reconstruction: build a consistent synthetic
// PCG state (r = b - A x, z = P r, p_cur = z + beta p_prev), poison the
// failed nodes' slices with NaN, and verify the reconstruction recovers the
// exact lost entries from the surviving data plus the redundant copies.
#include "core/reconstruction.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>

#include "common/rng.hpp"
#include "precond/block_jacobi.hpp"
#include "sparse/generators.hpp"

namespace esrp {
namespace {

Vector random_vector(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.uniform(-1, 1);
  return v;
}

struct SyntheticState {
  Vector x, r, z, p_prev, p_cur, b;
  real_t beta;
};

SyntheticState make_state(const CsrMatrix& a, const Preconditioner& precond,
                          std::uint64_t seed) {
  const index_t n = a.rows();
  SyntheticState st;
  st.x = random_vector(n, seed);
  st.b = random_vector(n, seed + 1);
  st.p_prev = random_vector(n, seed + 2);
  st.beta = 0.37;
  st.r.resize(static_cast<std::size_t>(n));
  a.spmv(st.x, st.r);
  for (std::size_t i = 0; i < st.r.size(); ++i) st.r[i] = st.b[i] - st.r[i];
  st.z.resize(static_cast<std::size_t>(n));
  precond.apply(st.r, st.z);
  st.p_cur.resize(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < st.z.size(); ++i)
    st.p_cur[i] = st.z[i] + st.beta * st.p_prev[i];
  return st;
}

/// Redundant copy holding all entries of `values` on `holder` (a surviving
/// node in the tests).
RedundantCopy full_copy(index_t tag, rank_t num_nodes, rank_t holder,
                        std::span<const real_t> values) {
  std::vector<IndexSet> held(static_cast<std::size_t>(num_nodes));
  held[static_cast<std::size_t>(holder)] =
      index_range(0, static_cast<index_t>(values.size()));
  return RedundantCopy(tag, std::make_shared<const HolderLayout>(held),
                       Vector(values.begin(), values.end()));
}

/// A star vector after the failure: the failed ranks' slices hold quiet NaN,
/// so any read of a lost entry poisons the result instead of adding 0.
DistVector lost_star(const BlockRowPartition& part, std::span<const real_t> v,
                     std::span<const rank_t> failed) {
  Vector poisoned(v.begin(), v.end());
  for (index_t i : part.owned_by(failed))
    poisoned[static_cast<std::size_t>(i)] =
        std::numeric_limits<real_t>::quiet_NaN();
  return DistVector(part, poisoned);
}

class ReconstructionFixture : public ::testing::Test {
protected:
  ReconstructionFixture()
      : a_(poisson2d(6, 6)),
        part_(a_.rows(), 6),
        cluster_(part_),
        precond_(a_, part_, 6),
        state_(make_state(a_, precond_, 99)) {}

  ReconstructionInputs make_inputs(const std::vector<rank_t>& failed,
                                   const RedundantCopy& prev,
                                   const RedundantCopy& cur,
                                   const DistVector& x_star,
                                   const DistVector& r_star) {
    ReconstructionInputs in;
    in.a = &a_;
    in.p_action = precond_.action_matrix();
    in.part = &part_;
    in.failed = failed;
    in.p_prev = &prev;
    in.p_cur = &cur;
    in.beta_prev = state_.beta;
    in.x_star = &x_star;
    in.r_star = &r_star;
    in.b_global = state_.b;
    return in;
  }

  CsrMatrix a_;
  BlockRowPartition part_;
  SimCluster cluster_;
  BlockJacobiPreconditioner precond_;
  SyntheticState state_;
};

TEST_F(ReconstructionFixture, RecoversExactLostEntries) {
  const std::vector<rank_t> failed{2};
  const rank_t holder = 4;
  const RedundantCopy prev = full_copy(9, 6, holder, state_.p_prev);
  const RedundantCopy cur = full_copy(10, 6, holder, state_.p_cur);

  // The reconstruction must not read the failed slices.
  const DistVector x_star = lost_star(part_, state_.x, failed);
  const DistVector r_star = lost_star(part_, state_.r, failed);

  const ReconstructionOutput out =
      reconstruct_state(make_inputs(failed, prev, cur, x_star, r_star),
                        cluster_);
  ASSERT_TRUE(out.ok);
  ASSERT_EQ(out.lost, part_.owned_by(failed));
  for (std::size_t k = 0; k < out.lost.size(); ++k) {
    const auto i = static_cast<std::size_t>(out.lost[k]);
    EXPECT_NEAR(out.p_f[k], state_.p_cur[i], 1e-12);
    EXPECT_NEAR(out.z_f[k], state_.z[i], 1e-12);
    EXPECT_NEAR(out.r_f[k], state_.r[i], 1e-9);
    EXPECT_NEAR(out.x_f[k], state_.x[i], 1e-8);
  }
}

TEST_F(ReconstructionFixture, MultipleFailedNodes) {
  const std::vector<rank_t> failed{0, 1, 5};
  const rank_t holder = 3;
  const RedundantCopy prev = full_copy(0, 6, holder, state_.p_prev);
  const RedundantCopy cur = full_copy(1, 6, holder, state_.p_cur);
  const DistVector x_star = lost_star(part_, state_.x, failed);
  const DistVector r_star = lost_star(part_, state_.r, failed);
  const ReconstructionOutput out =
      reconstruct_state(make_inputs(failed, prev, cur, x_star, r_star),
                        cluster_);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.lost.size(),
            static_cast<std::size_t>(part_.local_size(0) +
                                     part_.local_size(1) +
                                     part_.local_size(5)));
  for (std::size_t k = 0; k < out.lost.size(); ++k) {
    const auto i = static_cast<std::size_t>(out.lost[k]);
    EXPECT_NEAR(out.x_f[k], state_.x[i], 1e-8);
    EXPECT_NEAR(out.r_f[k], state_.r[i], 1e-9);
  }
}

TEST_F(ReconstructionFixture, MissingCopyReportsFailure) {
  const std::vector<rank_t> failed{2};
  // Copies held only on rank 2 itself -> destroyed with the failure.
  RedundantCopy prev = full_copy(9, 6, /*holder=*/2, state_.p_prev);
  RedundantCopy cur = full_copy(10, 6, /*holder=*/2, state_.p_cur);
  prev.drop_holders(failed);
  cur.drop_holders(failed);
  const DistVector x_star = lost_star(part_, state_.x, failed);
  const DistVector r_star = lost_star(part_, state_.r, failed);
  const ReconstructionOutput out =
      reconstruct_state(make_inputs(failed, prev, cur, x_star, r_star),
                        cluster_);
  EXPECT_FALSE(out.ok);
}

TEST_F(ReconstructionFixture, ChargesRecoveryCommunication) {
  const std::vector<rank_t> failed{3};
  const RedundantCopy prev = full_copy(9, 6, 0, state_.p_prev);
  const RedundantCopy cur = full_copy(10, 6, 0, state_.p_cur);
  const DistVector x_star = lost_star(part_, state_.x, failed);
  const DistVector r_star = lost_star(part_, state_.r, failed);
  const double t0 = cluster_.modeled_time();
  const ReconstructionOutput out =
      reconstruct_state(make_inputs(failed, prev, cur, x_star, r_star),
                        cluster_);
  ASSERT_TRUE(out.ok);
  EXPECT_GT(cluster_.ledger().totals(CommCategory::recovery).messages, 0u);
  EXPECT_GT(cluster_.modeled_time(), t0);
  EXPECT_GT(out.flops, 0);
  EXPECT_GT(out.inner_iterations_matrix, 0);
}

TEST_F(ReconstructionFixture, BlockJacobiMakesPreconditionerSolveTrivial) {
  // With node-aligned block Jacobi, P_{I_f, I\I_f} = 0, so the inner solve
  // for r works on a block-diagonal SPD system and converges quickly.
  const std::vector<rank_t> failed{1};
  const RedundantCopy prev = full_copy(9, 6, 4, state_.p_prev);
  const RedundantCopy cur = full_copy(10, 6, 4, state_.p_cur);
  const DistVector x_star = lost_star(part_, state_.x, failed);
  const DistVector r_star = lost_star(part_, state_.r, failed);
  const ReconstructionOutput out =
      reconstruct_state(make_inputs(failed, prev, cur, x_star, r_star),
                        cluster_);
  ASSERT_TRUE(out.ok);
  // The extracted P_{I_f,I_f} has blocks of size <= 6 and its block Jacobi
  // inner preconditioner inverts them exactly: few iterations needed.
  EXPECT_LE(out.inner_iterations_precond, 10);
}

TEST_F(ReconstructionFixture, MatrixFormulationRecoversExactly) {
  // The "preconditioner itself" formulation of [20]: r_f comes from a
  // direct multiplication with M, no inner solve.
  const std::vector<rank_t> failed{2};
  const RedundantCopy prev = full_copy(9, 6, 4, state_.p_prev);
  const RedundantCopy cur = full_copy(10, 6, 4, state_.p_cur);
  const DistVector x_star = lost_star(part_, state_.x, failed);
  const DistVector r_star = lost_star(part_, state_.r, failed);
  const DistVector z_star = lost_star(part_, state_.z, failed);

  ReconstructionInputs in = make_inputs(failed, prev, cur, x_star, r_star);
  in.formulation = PrecondFormulation::matrix;
  in.p_matrix = precond_.matrix_form();
  in.z_star = &z_star;
  const ReconstructionOutput out = reconstruct_state(in, cluster_);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.inner_iterations_precond, 0); // no inner solve for r
  EXPECT_GT(out.inner_iterations_matrix, 0);  // x still needs one
  for (std::size_t k = 0; k < out.lost.size(); ++k) {
    const auto i = static_cast<std::size_t>(out.lost[k]);
    EXPECT_NEAR(out.r_f[k], state_.r[i], 1e-11);
    EXPECT_NEAR(out.x_f[k], state_.x[i], 1e-8);
  }
}

TEST_F(ReconstructionFixture, FormulationsAgree) {
  const std::vector<rank_t> failed{0, 3};
  const RedundantCopy prev = full_copy(9, 6, 4, state_.p_prev);
  const RedundantCopy cur = full_copy(10, 6, 4, state_.p_cur);
  const DistVector x_star = lost_star(part_, state_.x, failed);
  const DistVector r_star = lost_star(part_, state_.r, failed);
  const DistVector z_star = lost_star(part_, state_.z, failed);

  ReconstructionInputs inv = make_inputs(failed, prev, cur, x_star, r_star);
  const ReconstructionOutput a = reconstruct_state(inv, cluster_);

  ReconstructionInputs mat = make_inputs(failed, prev, cur, x_star, r_star);
  mat.formulation = PrecondFormulation::matrix;
  mat.p_matrix = precond_.matrix_form();
  mat.z_star = &z_star;
  const ReconstructionOutput b = reconstruct_state(mat, cluster_);

  ASSERT_TRUE(a.ok && b.ok);
  for (std::size_t k = 0; k < a.lost.size(); ++k) {
    EXPECT_NEAR(a.r_f[k], b.r_f[k], 1e-10);
    EXPECT_NEAR(a.x_f[k], b.x_f[k], 1e-8);
  }
  // The matrix form does strictly less floating-point work.
  EXPECT_LT(b.flops, a.flops);
}

TEST_F(ReconstructionFixture, MatrixFormulationRequiresInputs) {
  const std::vector<rank_t> failed{2};
  const RedundantCopy prev = full_copy(9, 6, 4, state_.p_prev);
  const RedundantCopy cur = full_copy(10, 6, 4, state_.p_cur);
  const DistVector x_star = lost_star(part_, state_.x, failed);
  const DistVector r_star = lost_star(part_, state_.r, failed);
  ReconstructionInputs in = make_inputs(failed, prev, cur, x_star, r_star);
  in.formulation = PrecondFormulation::matrix; // p_matrix/z_star missing
  EXPECT_THROW(reconstruct_state(in, cluster_), Error);
}

TEST_F(ReconstructionFixture, MismatchedCopyTagsRejected) {
  const std::vector<rank_t> failed{2};
  const RedundantCopy prev = full_copy(5, 6, 4, state_.p_prev);
  const RedundantCopy cur = full_copy(10, 6, 4, state_.p_cur); // not 5+1
  const DistVector x_star = lost_star(part_, state_.x, failed);
  const DistVector r_star = lost_star(part_, state_.r, failed);
  EXPECT_THROW(reconstruct_state(
                   make_inputs(failed, prev, cur, x_star, r_star), cluster_),
               Error);
}

TEST_F(ReconstructionFixture, StraddlingBlocksReadSurvivorTerms) {
  // Single-domain block Jacobi with blocks of up to 8 on 6-row nodes: the
  // blocks [0,8), [8,15), [22,29) and [29,36) cross the node boundaries at
  // 6, 12, 24 and 30 and couple grid neighbours 6 rows apart, so
  // P_{I_f,I\I_f} and M_{I_f,I\I_f} are non-empty for nodes 1 and 4, and
  // both formulations need the survivors' r and z (Alg. 2 step 5). (Blocks
  // of 4 straddle the boundaries too, but a node boundary here is a grid
  // line, and 4 rows span no coupling across it.)
  const BlockJacobiPreconditioner straddling(a_, 8);
  const SyntheticState st = make_state(a_, straddling, 7);
  const std::vector<rank_t> failed{1, 4};
  const RedundantCopy prev = full_copy(9, 6, 3, st.p_prev);
  const RedundantCopy cur = full_copy(10, 6, 3, st.p_cur);
  const DistVector x_star = lost_star(part_, st.x, failed);
  const DistVector r_star = lost_star(part_, st.r, failed);
  const DistVector z_star = lost_star(part_, st.z, failed);

  SimCluster probe(part_);
  const IndexSet lost = part_.owned_by(failed);
  ASSERT_GT(reconstruct_row_product(*straddling.action_matrix(), lost, part_,
                                    {}, r_star, probe).survivor_nnz, 0);
  ASSERT_GT(reconstruct_row_product(*straddling.matrix_form(), lost, part_, {},
                                    z_star, probe).survivor_nnz, 0);

  for (const PrecondFormulation f :
       {PrecondFormulation::inverse, PrecondFormulation::matrix}) {
    SCOPED_TRACE(to_string(f));
    ReconstructionInputs in;
    in.a = &a_;
    in.p_action = straddling.action_matrix();
    in.formulation = f;
    in.p_matrix = straddling.matrix_form();
    in.z_star = &z_star;
    in.part = &part_;
    in.failed = failed;
    in.p_prev = &prev;
    in.p_cur = &cur;
    in.beta_prev = st.beta;
    in.x_star = &x_star;
    in.r_star = &r_star;
    in.b_global = st.b;
    const ReconstructionOutput out = reconstruct_state(in, cluster_);
    ASSERT_TRUE(out.ok);
    ASSERT_EQ(out.lost, lost);
    for (std::size_t k = 0; k < out.lost.size(); ++k) {
      const auto i = static_cast<std::size_t>(out.lost[k]);
      EXPECT_NEAR(out.p_f[k], st.p_cur[i], 1e-12);
      EXPECT_NEAR(out.z_f[k], st.z[i], 1e-12);
      EXPECT_NEAR(out.r_f[k], st.r[i], 1e-9);
      EXPECT_NEAR(out.x_f[k], st.x[i], 1e-8);
    }
  }
}

TEST_F(ReconstructionFixture, RowProductMatchesPerRowSumsBitwise) {
  // M v restricted to rows I_f splits as M_{I_f,I_f} v_f + M_{I_f,I\I_f} v_c
  // (Alg. 2 steps 5 and 7); each part is a sum from +0 over the row's stored
  // columns in order, with v_f compact and v_c read from the star vector.
  // A is the 5-point stencil; the straddling block Jacobi P has dense
  // blocks across node boundaries, so several lost rows read the same
  // survivor column and the gather must count it once.
  const BlockJacobiPreconditioner straddling(a_, 8);
  const std::vector<rank_t> failed{1, 4};
  const IndexSet lost = part_.owned_by(failed);
  const Vector v = random_vector(a_.rows(), 5);
  Vector v_f;
  for (index_t i : lost) v_f.push_back(v[static_cast<std::size_t>(i)]);
  const DistVector v_star = lost_star(part_, v, failed);

  const CsrMatrix* const matrices[] = {&a_, straddling.action_matrix()};
  for (const CsrMatrix* m : matrices) {
    SCOPED_TRACE(m == &a_ ? "A" : "P");
    SimCluster cluster(part_);
    const LostRowProduct pr =
        reconstruct_row_product(*m, lost, part_, v_f, v_star, cluster);
    ASSERT_EQ(pr.lost.size(), lost.size());
    ASSERT_EQ(pr.survivors.size(), lost.size());

    index_t lost_nnz = 0, survivor_nnz = 0;
    std::map<std::pair<rank_t, rank_t>, IndexSet> gathered;
    for (std::size_t k = 0; k < lost.size(); ++k) {
      const auto cols = m->row_cols(lost[k]);
      const auto vals = m->row_vals(lost[k]);
      real_t lost_ref = 0, survivor_ref = 0;
      for (std::size_t e = 0; e < cols.size(); ++e) {
        const index_t j = cols[e];
        const real_t term = vals[e] * v[static_cast<std::size_t>(j)];
        if (std::binary_search(lost.begin(), lost.end(), j)) {
          lost_ref += term;
          ++lost_nnz;
        } else {
          survivor_ref += term;
          ++survivor_nnz;
          IndexSet& g = gathered[{part_.owner(j), part_.owner(lost[k])}];
          if (!std::binary_search(g.begin(), g.end(), j)) {
            g.push_back(j);
            std::sort(g.begin(), g.end());
          }
        }
      }
      EXPECT_EQ(pr.lost[k], lost_ref) << "row " << lost[k];
      EXPECT_EQ(pr.survivors[k], survivor_ref) << "row " << lost[k];
    }
    EXPECT_EQ(pr.lost_nnz, lost_nnz);
    EXPECT_EQ(pr.survivor_nnz, survivor_nnz);
    ASSERT_GT(survivor_nnz, 0);

    // One recovery message per (owner, replacement) pair, one scalar per
    // distinct survivor column it covers.
    std::uint64_t distinct = 0;
    for (const auto& [pair, cols] : gathered) distinct += cols.size();
    if (m != &a_) {
      EXPECT_LT(distinct, static_cast<std::uint64_t>(survivor_nnz));
    }
    const CategoryTotals& t = cluster.ledger().totals(CommCategory::recovery);
    EXPECT_EQ(t.messages, gathered.size());
    EXPECT_EQ(t.bytes, distinct * CostParams::bytes_per_scalar);

    // The two parts reassemble rows I_f of the full product.
    Vector full(v.size());
    m->spmv(v, full);
    const Vector sum = pr.sum();
    real_t scale = 0, err = 0;
    for (std::size_t k = 0; k < lost.size(); ++k) {
      const real_t ref = full[static_cast<std::size_t>(lost[k])];
      scale = std::max(scale, std::abs(ref));
      err = std::max(err, std::abs(sum[k] - ref));
    }
    EXPECT_LE(err, 1e-14 * scale);

    // Without v_f the lost columns are skipped: the survivor sums alone.
    const LostRowProduct survivors_only =
        reconstruct_row_product(*m, lost, part_, {}, v_star, cluster);
    for (std::size_t k = 0; k < lost.size(); ++k) {
      EXPECT_EQ(survivors_only.lost[k], 0);
      EXPECT_EQ(survivors_only.survivors[k], pr.survivors[k]);
    }
  }
}

} // namespace
} // namespace esrp
