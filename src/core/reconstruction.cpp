#include "core/reconstruction.hpp"

#include <algorithm>
#include <map>

#include "common/error.hpp"
#include "common/vec.hpp"
#include "netsim/failure.hpp"
#include "precond/block_jacobi.hpp"
#include "solver/pcg.hpp"

namespace esrp {

std::string to_string(PrecondFormulation f) {
  switch (f) {
    case PrecondFormulation::inverse: return "inverse";
    case PrecondFormulation::matrix: return "matrix";
  }
  return "?";
}

PrecondFormulation formulation_from_string(std::string_view name) {
  if (name == "inverse") return PrecondFormulation::inverse;
  if (name == "matrix") return PrecondFormulation::matrix;
  throw Error("unknown preconditioner formulation \"" + std::string(name) +
              "\" (valid: inverse, matrix)");
}

namespace {

/// Gather the I_f entries of a redundant copy into a compact vector ordered
/// like `lost`. Charges one recovery message per (holder, replacement) pair.
/// Returns false if any entry has no surviving copy.
bool gather_copy(const RedundantCopy& copy, std::span<const index_t> lost,
                 const BlockRowPartition& part, std::span<const rank_t> failed,
                 SimCluster& cluster, Vector& out) {
  out.assign(lost.size(), 0);
  std::map<std::pair<rank_t, rank_t>, std::size_t> batch; // (holder, repl) -> n
  for (std::size_t k = 0; k < lost.size(); ++k) {
    const index_t i = lost[k];
    const auto hit = copy.find_surviving(i, failed);
    if (!hit) return false;
    out[k] = hit->second;
    ++batch[{hit->first, part.owner(i)}];
  }
  for (const auto& [pair, count] : batch) {
    cluster.send(pair.first, pair.second,
                 count * CostParams::bytes_per_scalar, CommCategory::recovery);
  }
  return true;
}

/// The inner solves' tolerance: tight enough that the recovered state
/// lands on the failure-free trajectory (the paper's 1e-14).
constexpr real_t kInnerRtol = 1e-14;

struct InnerSolve {
  Vector solution;
  index_t iterations = 0;
  double flops = 0;
};

/// Inner solve M y = rhs with block-Jacobi-preconditioned PCG at the
/// reconstruction tolerance, under PCG's own iteration cap.
InnerSolve inner_solve(const CsrMatrix& m, std::span<const real_t> rhs,
                       index_t block_size) {
  InnerSolve out;
  out.solution.assign(rhs.size(), 0);
  BlockJacobiPreconditioner precond(m, block_size);
  PcgOptions opts;
  opts.rtol = kInnerRtol;
  const SolveOutcome res = pcg_solve(m, rhs, out.solution, &precond, opts);
  ESRP_CHECK_MSG(res.converged, "inner reconstruction solve did not reach "
                                    << kInnerRtol << " within "
                                    << res.iterations << " iterations");
  out.iterations = res.iterations;
  out.flops = res.flops;
  return out;
}

} // namespace

ReconstructionOutput reconstruct_state(const ReconstructionInputs& in,
                                       SimCluster& cluster) {
  ESRP_CHECK(in.a && in.p_action && in.part && in.x_star && in.r_star);
  ESRP_CHECK(in.p_prev && in.p_cur);
  ESRP_CHECK(in.p_cur->tag() == in.p_prev->tag() + 1);
  const BlockRowPartition& part = *in.part;
  ESRP_CHECK(static_cast<index_t>(in.b_global.size()) == part.global_size());

  ReconstructionOutput out;
  out.lost = part.owned_by(in.failed);
  const IndexSet& lost = out.lost;
  const std::size_t nf = lost.size();
  ESRP_CHECK_MSG(!in.failed.empty() && nf > 0, "no failed data to reconstruct");
  const auto num_failed = static_cast<double>(in.failed.size());

  // Step 3: retrieve beta* and the two redundant search-direction copies.
  const std::vector<rank_t> survivors =
      surviving_ranks(in.failed, part.num_nodes());
  ESRP_CHECK_MSG(!survivors.empty(), "all nodes failed — unrecoverable");
  for (rank_t repl : in.failed)
    cluster.send(survivors.front(), repl, CostParams::bytes_per_scalar,
                 CommCategory::recovery);

  Vector p_prev_f, p_cur_f;
  if (!gather_copy(*in.p_prev, lost, part, in.failed, cluster, p_prev_f) ||
      !gather_copy(*in.p_cur, lost, part, in.failed, cluster, p_cur_f)) {
    return out; // ok = false: redundancy destroyed (more than phi failures)
  }
  out.p_f = p_cur_f;
  out.p_prev_f = p_prev_f;

  // Step 4: z_f = p_f - beta* p_prev_f.
  out.z_f.assign(nf, 0);
  for (std::size_t k = 0; k < nf; ++k)
    out.z_f[k] = p_cur_f[k] - in.beta_prev * p_prev_f[k];
  out.flops += 2.0 * static_cast<double>(nf);

  if (in.formulation == PrecondFormulation::inverse) {
    // Step 5: v = z_f - P_{I_f, I\I_f} r_{I\I_f}.
    const LostRowProduct pr =
        reconstruct_row_product(*in.p_action, lost, part, {}, *in.r_star,
                                cluster);
    Vector v = out.z_f;
    if (pr.survivor_nnz > 0) {
      for (std::size_t k = 0; k < nf; ++k) v[k] -= pr.survivors[k];
      out.flops += 2.0 * static_cast<double>(pr.survivor_nnz) +
                   static_cast<double>(nf);
    }

    // Step 6: solve P_{I_f,I_f} r_f = v.
    const CsrMatrix p_ff = in.p_action->extract(lost, lost);
    const InnerSolve r_solve = inner_solve(p_ff, v, in.inner_block_size);
    out.r_f = r_solve.solution;
    out.inner_iterations_precond = r_solve.iterations;
    out.flops += r_solve.flops;
  } else {
    // Matrix formulation ([20]): r = M z is available directly, so
    // r_f = M_{I_f,I_f} z_f + M_{I_f,I\I_f} z_{I\I_f} — no inner solve.
    ESRP_CHECK_MSG(in.p_matrix && in.z_star,
                   "matrix formulation requires p_matrix and z_star");
    const LostRowProduct pr =
        reconstruct_row_product(*in.p_matrix, lost, part, out.z_f, *in.z_star,
                                cluster);
    out.r_f = pr.sum();
    out.flops += 2.0 * static_cast<double>(pr.lost_nnz + pr.survivor_nnz);
  }

  // Step 7: w = b_f - r_f - A_{I_f, I\I_f} x_{I\I_f}.
  const LostRowProduct ax =
      reconstruct_row_product(*in.a, lost, part, {}, *in.x_star, cluster);
  Vector w(nf);
  for (std::size_t k = 0; k < nf; ++k)
    w[k] = in.b_global[static_cast<std::size_t>(lost[k])] - out.r_f[k] -
           ax.survivors[k];
  out.flops += 2.0 * static_cast<double>(ax.survivor_nnz) +
               2.0 * static_cast<double>(nf);

  // Step 8: solve A_{I_f,I_f} x_f = w.
  const CsrMatrix a_ff = in.a->extract(lost, lost);
  const InnerSolve x_solve = inner_solve(a_ff, w, in.inner_block_size);
  out.x_f = x_solve.solution;
  out.inner_iterations_matrix = x_solve.iterations;
  out.flops += x_solve.flops;

  // Charge the reconstruction compute, spread over the replacement nodes,
  // plus the inner-solve collectives on the replacement subgroup.
  for (rank_t repl : in.failed)
    cluster.add_compute(repl, out.flops / num_failed);
  const double inner_iters = static_cast<double>(out.inner_iterations_precond +
                                                 out.inner_iterations_matrix);
  cluster.charge_time(inner_iters *
                      allreduce_time(cluster.cost_params(),
                                     static_cast<rank_t>(in.failed.size()),
                                     2 * CostParams::bytes_per_scalar));
  out.ok = true;
  return out;
}

Vector LostRowProduct::sum() const {
  Vector out(lost.size());
  for (std::size_t k = 0; k < out.size(); ++k) out[k] = lost[k] + survivors[k];
  return out;
}

LostRowProduct reconstruct_row_product(const CsrMatrix& m, const IndexSet& lost,
                                       const BlockRowPartition& part,
                                       std::span<const real_t> v_f,
                                       const DistVector& v_star,
                                       SimCluster& cluster) {
  ESRP_CHECK(v_f.empty() || v_f.size() == lost.size());
  ESRP_CHECK(v_star.global_size() == m.cols());
  const std::span<const real_t> star = v_star.all();
  LostRowProduct out;
  out.lost.assign(lost.size(), 0);
  out.survivors.assign(lost.size(), 0);
  // (owner, replacement) -> the survivor columns its rows read.
  std::map<std::pair<rank_t, rank_t>, std::vector<index_t>> needed;
  const IndexRuns lost_runs(lost);
  for (std::size_t k = 0; k < lost.size(); ++k) {
    const rank_t repl = part.owner(lost[k]);
    const auto cols = m.row_cols(lost[k]);
    const auto vals = m.row_vals(lost[k]);
    // Per-row sums in stored order, as CsrMatrix::spmv_rows forms them: one
    // serial fixed-order sum per output entry. esrp-lint: allow(fp-accumulate)
    real_t lost_acc = 0, survivor_acc = 0;
    for (std::size_t e = 0; e < cols.size(); ++e) {
      const index_t j = cols[e];
      const index_t pos = lost_runs.position(j);
      if (pos >= 0) {
        ++out.lost_nnz;
        if (!v_f.empty())
          lost_acc += vals[e] * v_f[static_cast<std::size_t>(pos)];
      } else {
        ++out.survivor_nnz;
        survivor_acc += vals[e] * star[static_cast<std::size_t>(j)];
        needed[{part.owner(j), repl}].push_back(j);
      }
    }
    out.lost[k] = lost_acc;
    out.survivors[k] = survivor_acc;
  }
  for (auto& [pair, cols] : needed) {
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    cluster.send(pair.first, pair.second,
                 cols.size() * CostParams::bytes_per_scalar,
                 CommCategory::recovery);
  }
  return out;
}

} // namespace esrp
