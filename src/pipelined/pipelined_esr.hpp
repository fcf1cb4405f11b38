// Exact state reconstruction for the pipelined PCG recurrences — the
// contribution of the paper's reference [16] (Levonyak et al., scalable
// resilience for communication-hiding PCG), composed from the standard
// Alg. 2 machinery of core/reconstruction.hpp.
//
// The pipelined iteration carries eight recurrence vectors
// (x, r, u, w, z, q, s, p). In exact arithmetic they satisfy
//
//   r = b - A x,  u = P r,  w = A u,  s = A p,  q = P s,  z = A q,
//
// so the whole state at the rollback target t is determined by x and p —
// everything else follows by row products and the two Alg. 2 inner solves.
// Unlike classic CG, the iteration's SpMV input is m = P w, not p, so the
// storage stage disseminates dedicated redundant copies of p
// (ExchangeEngine::disseminate), and the p-update
//
//   p^(t+1) = u^(t) + beta^(t) p^(t)
//
// involves the *previous* u: inverting it with copies p'^(t), p'^(t+1)
// yields u at the OLDER tag t (the engine's leading copy pairing), whereas
// classic CG's update yields z at the newer tag. The recovery therefore
// rolls back to the first storage iteration t and proceeds:
//
//   1. retrieve beta^(t), gamma^(t-1), alpha^(t-1) from a survivor
//   2. u_f = p'^(t+1)_f - beta^(t) p'^(t)_f        (recurrence inversion)
//   3. solve P_{I_f,I_f} r_f = u_f - P_{I_f,I\I_f} r*_{I\I_f}   (Alg. 2)
//   4. solve A_{I_f,I_f} x_f = b_f - r_f - A_{I_f,I\I_f} x*_{I\I_f}
//   5. p_f = p'^(t)_f                              (the copy itself)
//   6. s_f = A_{I_f,.} [p_f | p*],  w_f = A_{I_f,.} [u_f | u*],
//      q_f = P_{I_f,.} [s_f | s*],  z_f = A_{I_f,.} [q_f | q*]
//
// (steps 3-4 are reconstruct_state; each product of step 6 is one
// reconstruct_row_product, which reads the star vectors in place; the
// matrix formulation of [20] replaces step 3 exactly as in classic ESR).
// Everything is charged to the SimCluster under CommCategory::recovery,
// matching the paper's measurement protocol.
#pragma once

#include "core/reconstruction.hpp"
#include "netsim/cluster.hpp"
#include "partition/index_set.hpp"
#include "resilience/solver_state.hpp"

namespace esrp {

/// Fixed order of the eight recurrence vectors in the pipelined solver's
/// SolverState, its checkpoints, and its star snapshots.
enum PipelinedVec : std::size_t {
  kPipeX = 0,
  kPipeR = 1,
  kPipeU = 2,
  kPipeW = 3,
  kPipeZ = 4,
  kPipeQ = 5,
  kPipeS = 6,
  kPipeP = 7,
};
inline constexpr std::size_t kPipelinedVectors = 8;

struct PipelinedEsrOutput {
  /// false: a redundant copy did not survive; only `lost` is set then.
  bool ok = false;
  IndexSet lost;             ///< I_f (sorted)
  /// Reconstructed entries, compact over I_f.
  Vector x_f, r_f, u_f, w_f, z_f, q_f, s_f, p_f;
  index_t inner_iterations_precond = 0;
  index_t inner_iterations_matrix = 0;
};

/// `in` is filled as for reconstruct_state, with the copies of the leading
/// pairing: p_prev = p'^(t) (the state restored), p_cur = p'^(t+1) and
/// beta_prev = beta^(t), stored at the stage. Its x_star, r_star and z_star
/// are ignored: they are pointed into `stars`, the star snapshot at
/// iteration t (the eight vectors in PipelinedVec order; only the
/// survivors' slices are read).
PipelinedEsrOutput reconstruct_pipelined_state(ReconstructionInputs in,
                                               const StateSnapshot& stars,
                                               SimCluster& cluster);

} // namespace esrp
