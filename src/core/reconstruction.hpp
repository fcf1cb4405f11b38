// Exact state reconstruction — the paper's Alg. 2, run by the replacement
// nodes after a failure:
//
//   1. retrieve static data A_{I_f,I}, P_{I_f,I}, b_{I_f}   (safe storage)
//   2. read surviving r_{I\I_f}, x_{I\I_f} in place, charged as gathers
//                                                          (rolled-back state)
//   3. retrieve beta^(j-1) and the redundant copies p'^(j-1)_{I_f}, p'^(j)_{I_f}
//   4. z_{I_f}  = p^(j)_{I_f} - beta^(j-1) p^(j-1)_{I_f}
//   5. v        = z_{I_f} - P_{I_f,I\I_f} r_{I\I_f}
//   6. solve P_{I_f,I_f} r_{I_f} = v          (inner PCG, rtol 1e-14)
//   7. w        = b_{I_f} - r_{I_f} - A_{I_f,I\I_f} x_{I\I_f}
//   8. solve A_{I_f,I_f} x_{I_f} = w          (inner PCG, rtol 1e-14)
//
// P is the explicit preconditioner action matrix (paper setup: block Jacobi
// with node-aligned blocks, in which case P_{I_f,I\I_f} = 0 and both inner
// systems are SPD). Inner systems are preconditioned with block Jacobi of
// the extracted submatrix, as in the paper's experiments.
//
// Every step that touches the survivors (5 and 7, and the matrix
// formulation below) is one reconstruct_row_product: a walk over the lost
// rows that reads the star vectors in place, so a recovery copies no
// global-length vector.
//
// Communication (gathers, scalar retrieval) and computation (inner solves)
// are charged to the SimCluster under CommCategory::recovery; static-data
// reloading is deliberately *not* charged, matching the paper's measurement
// protocol (§4).
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "comm/exchange.hpp"
#include "netsim/cluster.hpp"
#include "netsim/dist_vector.hpp"
#include "partition/index_set.hpp"
#include "sparse/csr.hpp"

namespace esrp {

/// How the preconditioner enters the reconstruction (paper reference [20]):
///   inverse — P is the explicit *action* (z = P r): recover r by solving
///             P_{I_f,I_f} r_{I_f} = z_{I_f} - P_{I_f,I\I_f} r_{I\I_f};
///   matrix  — M is the preconditioner *itself* (M z = r): recover r
///             directly as r_{I_f} = M_{I_f,I_f} z_{I_f} +
///             M_{I_f,I\I_f} z_{I\I_f}, with no inner solve.
enum class PrecondFormulation { inverse, matrix };

std::string to_string(PrecondFormulation f);

/// Inverse of to_string(PrecondFormulation): "inverse" | "matrix". Throws
/// esrp::Error on anything else, naming the valid spellings.
PrecondFormulation formulation_from_string(std::string_view name);

struct ReconstructionInputs {
  const CsrMatrix* a = nullptr;         ///< system matrix (static data)
  const CsrMatrix* p_action = nullptr;  ///< explicit preconditioner action
  PrecondFormulation formulation = PrecondFormulation::inverse;
  const CsrMatrix* p_matrix = nullptr;  ///< M, required for ::matrix
  const DistVector* z_star = nullptr;   ///< surviving z, required for ::matrix
  const BlockRowPartition* part = nullptr;
  std::span<const rank_t> failed;       ///< failed = replacement ranks
  const RedundantCopy* p_prev = nullptr; ///< p'^(j*-1)
  const RedundantCopy* p_cur = nullptr;  ///< p'^(j*)
  real_t beta_prev = 0;                  ///< beta^(j*-1) (the solver's beta*)
  const DistVector* x_star = nullptr;    ///< surviving x at the target state
  const DistVector* r_star = nullptr;    ///< surviving r at the target state
  std::span<const real_t> b_global;      ///< right-hand side (static data)
  index_t inner_block_size = 10;         ///< block Jacobi size, inner solves
};

struct ReconstructionOutput {
  /// false: a redundant copy did not survive. Only `lost` is set then, and
  /// nothing but the copies' gathers has been charged.
  bool ok = false;
  IndexSet lost;            ///< I_f (sorted)
  Vector x_f, r_f, z_f, p_f; ///< reconstructed entries, compact over I_f
  /// The gathered I_f entries of the *older* copy p'^(j*-1). The classic
  /// recovery only needs p'^(j*) (= p_f), but the pipelined recurrences
  /// roll back to the older tag, where the search direction is this one
  /// (pipelined/pipelined_esr.hpp).
  Vector p_prev_f;
  index_t inner_iterations_precond = 0; ///< PCG iterations for P_{I_f,I_f}
  index_t inner_iterations_matrix = 0;  ///< PCG iterations for A_{I_f,I_f}
  double flops = 0;          ///< total reconstruction floating-point work
};

ReconstructionOutput reconstruct_state(const ReconstructionInputs& in,
                                       SimCluster& cluster);

/// Rows I_f of `m` times the full vector whose I_f entries are `v_f`
/// (compact over `lost`) and whose surviving entries are those of the
/// rolled-back star vector `v_star`, kept as two partial sums per lost row:
///
///   lost[k]      = M_{i,I_f} v_f                 (over the lost columns)
///   survivors[k] = M_{i,I\I_f} v_star_{I\I_f}    (over the survivor columns)
///
/// for i = lost[k]. Each sum starts from +0 and adds its terms in the row's
/// stored column order, so it is bitwise what an SpMV of the extracted
/// submatrix gives. An empty `v_f` skips the lost columns (lost[k] = +0):
/// Alg. 2 steps 5 and 7 need only the survivor term. Survivor entries are
/// read in place through `v_star.all()`, never entries of `lost`. Charges
/// the gather of the survivor entries read (category recovery, one message
/// per (owner, replacement) pair, counting distinct columns); the callers
/// charge the compute.
struct LostRowProduct {
  Vector lost, survivors;
  index_t lost_nnz = 0;     ///< nnz of M_{I_f,I_f}
  index_t survivor_nnz = 0; ///< nnz of M_{I_f,I\I_f}

  /// lost + survivors: rows I_f of M times the repaired full vector. A sum
  /// from +0 is never -0, so adding a row's +0 survivor sum changes nothing.
  Vector sum() const;
};

LostRowProduct reconstruct_row_product(const CsrMatrix& m, const IndexSet& lost,
                                       const BlockRowPartition& part,
                                       std::span<const real_t> v_f,
                                       const DistVector& v_star,
                                       SimCluster& cluster);

} // namespace esrp
