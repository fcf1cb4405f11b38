#include "pipelined/pipelined_esr.hpp"

#include "common/error.hpp"

namespace esrp {

namespace {

/// One derived step: rows I_f of `m` times the repaired full vector
/// (reconstructed I_f entries `v_f` + the survivors' star entries).
Vector derived_rows(const CsrMatrix& m, const IndexSet& lost,
                    const BlockRowPartition& part, std::span<const real_t> v_f,
                    const DistVector& v_star, SimCluster& cluster,
                    double& flops) {
  const LostRowProduct pr =
      reconstruct_row_product(m, lost, part, v_f, v_star, cluster);
  flops += 2.0 * static_cast<double>(pr.lost_nnz);
  if (pr.survivor_nnz > 0)
    flops += 2.0 * static_cast<double>(pr.survivor_nnz) +
             static_cast<double>(lost.size());
  return pr.sum();
}

} // namespace

PipelinedEsrOutput reconstruct_pipelined_state(ReconstructionInputs in,
                                               const StateSnapshot& stars,
                                               SimCluster& cluster) {
  ESRP_CHECK(stars.num_vectors() == kPipelinedVectors);

  // Steps 1-5: the Alg. 2 core. The pipelined p-update inverts to the
  // preconditioned residual u (classic CG's z role), so reconstruct_state's
  // z_f IS u_f; its p_prev_f is the search direction at the rollback tag.
  in.x_star = &stars.vec(kPipeX);
  in.r_star = &stars.vec(kPipeR);
  in.z_star = &stars.vec(kPipeU);
  const ReconstructionOutput base = reconstruct_state(in, cluster);

  PipelinedEsrOutput out;
  out.lost = base.lost;
  if (!base.ok) return out; // redundancy destroyed (more than phi failures)
  out.x_f = base.x_f;
  out.r_f = base.r_f;
  out.u_f = base.z_f;
  out.p_f = base.p_prev_f;
  out.inner_iterations_precond = base.inner_iterations_precond;
  out.inner_iterations_matrix = base.inner_iterations_matrix;

  // Step 6: the four derived recurrence vectors, each one row-product over
  // the repaired full vector (reconstructed I_f entries + survivors' star
  // entries). Order matters: q needs s, z needs q.
  const BlockRowPartition& part = *in.part;
  double flops = 0;
  out.s_f = derived_rows(*in.a, out.lost, part, out.p_f, stars.vec(kPipeP),
                         cluster, flops);
  out.w_f = derived_rows(*in.a, out.lost, part, out.u_f, stars.vec(kPipeU),
                         cluster, flops);
  out.q_f = derived_rows(*in.p_action, out.lost, part, out.s_f,
                         stars.vec(kPipeS), cluster, flops);
  out.z_f = derived_rows(*in.a, out.lost, part, out.q_f, stars.vec(kPipeQ),
                         cluster, flops);

  // Spread the derived-product compute over the replacement nodes, like
  // reconstruct_state does for the Alg. 2 core.
  const auto num_failed = static_cast<double>(in.failed.size());
  for (rank_t repl : in.failed) cluster.add_compute(repl, flops / num_failed);

  out.ok = true;
  return out;
}

} // namespace esrp
