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

/// Charge the gather of surviving-vector entries the replacement nodes need
/// to multiply rows I_f of `m` with the surviving part of a vector: one
/// message per (owner, replacement) pair covering the distinct off-I_f
/// columns referenced.
void charge_offblock_gather(const CsrMatrix& m, std::span<const index_t> lost,
                            const BlockRowPartition& part,
                            SimCluster& cluster) {
  std::map<std::pair<rank_t, rank_t>, std::vector<index_t>> needed;
  for (index_t i : lost) {
    const rank_t repl = part.owner(i);
    for (index_t j : m.row_cols(i)) {
      if (set_contains(lost, j)) continue;
      needed[{part.owner(j), repl}].push_back(j);
    }
  }
  for (auto& [pair, cols] : needed) {
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    cluster.send(pair.first, pair.second,
                 cols.size() * CostParams::bytes_per_scalar,
                 CommCategory::recovery);
  }
}

/// Compact vector of surviving entries (complement of `lost`), taken from a
/// rolled-back distributed vector.
Vector surviving_compact(const DistVector& v, std::span<const index_t> lost) {
  const Vector global = v.gather_global();
  Vector out;
  out.reserve(global.size() - lost.size());
  std::size_t k = 0;
  for (std::size_t i = 0; i < global.size(); ++i) {
    if (k < lost.size() && lost[k] == static_cast<index_t>(i)) {
      ++k;
    } else {
      out.push_back(global[i]);
    }
  }
  return out;
}

struct InnerSolve {
  Vector solution;
  index_t iterations = 0;
  double flops = 0;
};

/// Inner solve M y = rhs with block-Jacobi-preconditioned PCG at the
/// reconstruction tolerance.
InnerSolve inner_solve(const CsrMatrix& m, std::span<const real_t> rhs,
                       real_t rtol, index_t max_iterations,
                       index_t block_size) {
  InnerSolve out;
  out.solution.assign(rhs.size(), 0);
  BlockJacobiPreconditioner precond(m, block_size);
  PcgOptions opts;
  opts.rtol = rtol;
  opts.max_iterations = max_iterations;
  const SolveOutcome res = pcg_solve(m, rhs, out.solution, &precond, opts);
  ESRP_CHECK_MSG(res.converged, "inner reconstruction solve did not reach "
                                    << rtol << " within "
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
    const CsrMatrix p_fc = in.p_action->extract_excluding_cols(lost, lost);
    charge_offblock_gather(*in.p_action, lost, part, cluster);
    Vector v = out.z_f;
    if (p_fc.nnz() > 0) {
      const Vector r_c = surviving_compact(*in.r_star, lost);
      Vector tmp(nf);
      p_fc.spmv(r_c, tmp);
      for (std::size_t k = 0; k < nf; ++k) v[k] -= tmp[k];
      out.flops += static_cast<double>(p_fc.spmv_flops()) +
                   static_cast<double>(nf);
    }

    // Step 6: solve P_{I_f,I_f} r_f = v.
    const CsrMatrix p_ff = in.p_action->extract(lost, lost);
    const InnerSolve r_solve = inner_solve(p_ff, v, in.inner_rtol,
                                           in.inner_max_iterations,
                                           in.inner_block_size);
    out.r_f = r_solve.solution;
    out.inner_iterations_precond = r_solve.iterations;
    out.flops += r_solve.flops;
  } else {
    // Matrix formulation ([20]): r = M z is available directly, so
    // r_f = M_{I_f,I_f} z_f + M_{I_f,I\I_f} z_{I\I_f} — no inner solve.
    ESRP_CHECK_MSG(in.p_matrix && in.z_star,
                   "matrix formulation requires p_matrix and z_star");
    const CsrMatrix m_ff = in.p_matrix->extract(lost, lost);
    const CsrMatrix m_fc = in.p_matrix->extract_excluding_cols(lost, lost);
    charge_offblock_gather(*in.p_matrix, lost, part, cluster);
    out.r_f.assign(nf, 0);
    m_ff.spmv(out.z_f, out.r_f);
    if (m_fc.nnz() > 0) {
      const Vector z_c = surviving_compact(*in.z_star, lost);
      Vector tmp(nf);
      m_fc.spmv(z_c, tmp);
      for (std::size_t k = 0; k < nf; ++k) out.r_f[k] += tmp[k];
      out.flops += static_cast<double>(m_fc.spmv_flops());
    }
    out.flops += static_cast<double>(m_ff.spmv_flops());
  }

  // Step 7: w = b_f - r_f - A_{I_f, I\I_f} x_{I\I_f}.
  const CsrMatrix a_fc = in.a->extract_excluding_cols(lost, lost);
  charge_offblock_gather(*in.a, lost, part, cluster);
  const Vector x_c = surviving_compact(*in.x_star, lost);
  Vector w(nf);
  a_fc.spmv(x_c, w);
  for (std::size_t k = 0; k < nf; ++k)
    w[k] = in.b_global[static_cast<std::size_t>(lost[k])] - out.r_f[k] - w[k];
  out.flops += static_cast<double>(a_fc.spmv_flops()) +
               2.0 * static_cast<double>(nf);

  // Step 8: solve A_{I_f,I_f} x_f = w.
  const CsrMatrix a_ff = in.a->extract(lost, lost);
  const InnerSolve x_solve = inner_solve(a_ff, w, in.inner_rtol,
                                         in.inner_max_iterations,
                                         in.inner_block_size);
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

Vector reconstruct_row_product(const CsrMatrix& m, const IndexSet& lost,
                               const BlockRowPartition& part,
                               std::span<const real_t> v_f,
                               const DistVector& v_star, SimCluster& cluster,
                               double& flops) {
  ESRP_CHECK(v_f.size() == lost.size());
  const std::size_t nf = lost.size();
  const CsrMatrix m_ff = m.extract(lost, lost);
  const CsrMatrix m_fc = m.extract_excluding_cols(lost, lost);
  charge_offblock_gather(m, lost, part, cluster);

  Vector out(nf, 0);
  m_ff.spmv(v_f, out);
  flops += static_cast<double>(m_ff.spmv_flops());
  if (m_fc.nnz() > 0) {
    const Vector v_c = surviving_compact(v_star, lost);
    Vector tmp(nf);
    m_fc.spmv(v_c, tmp);
    for (std::size_t k = 0; k < nf; ++k) out[k] += tmp[k];
    flops += static_cast<double>(m_fc.spmv_flops()) + static_cast<double>(nf);
  }
  return out;
}

} // namespace esrp
