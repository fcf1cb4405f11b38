// The outcome of one solve, shared by every solver (pcg_solve,
// pipelined_pcg_solve, ResilientPcg::solve, DistPipelinedPcg::solve) and
// extended by the facade's SolveReport (api/solve_spec.hpp) with identity
// and derived fields only. Kept free of comm/ and the cluster model so the
// sequential solvers can return it without pulling either in.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "common/vec.hpp"
#include "netsim/failure.hpp"

namespace esrp {

/// One rung of the recovery ladder. Ordered from most to least exact:
///   reconstruct    — ESRP exact reconstruction at the last recoverable
///                    storage stage (bitwise-exact resume).
///   older_snapshot — ESRP reconstruction at an older stored snapshot whose
///                    adjacent copy pair is still intact (bitwise-exact at
///                    that earlier iteration).
///   checkpoint     — IMCR buddy-checkpoint restore (bitwise-exact at the
///                    checkpoint tag).
///   shrink         — repartition onto the survivors and restart the
///                    iteration there (degraded-mode continuation, ref.
///                    [22] generalized; repeatable across events).
///   rejoin         — previously retired ranks rejoin at a storage stage
///                    and the solve re-expands onto the full cluster.
///   scratch        — restart from zero on the full cluster.
/// `none` is the record default before any recovery happened.
enum class RecoveryRung {
  none,
  reconstruct,
  older_snapshot,
  checkpoint,
  shrink,
  rejoin,
  scratch,
};

std::string to_string(RecoveryRung r);

struct RecoveryRecord {
  index_t failed_at = -1;      ///< iteration of the failure event
  index_t restored_to = -1;    ///< iteration the solver resumed from
  index_t wasted_iterations = 0; ///< failed_at - restored_to
  double modeled_time = 0;     ///< modeled time of the recovery itself
  index_t inner_iterations_precond = 0;
  index_t inner_iterations_matrix = 0;
  bool restarted_from_scratch = false; ///< no recoverable state existed
  /// The ladder rung that actually recovered this event.
  RecoveryRung rung = RecoveryRung::none;
  /// Every rung the engine attempted for this event, in order; the last
  /// entry equals `rung`. Demoted rungs (corrupt or missing state) precede
  /// the one that succeeded.
  std::vector<RecoveryRung> attempted;
  /// Integrity verdicts over the redundant state consulted during this
  /// recovery: checksum-verified redundancy-queue copies, copies rejected
  /// as corrupt, and buddy checkpoints rejected as corrupt.
  index_t copies_verified = 0;
  index_t copies_corrupt = 0;
  index_t checkpoints_corrupt = 0;
  /// Cluster-shape bookkeeping: ranks lost to this event, ranks whose
  /// index ranges were absorbed by survivors (no-spare / shrink), and
  /// ranks re-admitted by a rejoin record.
  index_t ranks_lost = 0;
  index_t ranks_absorbed = 0;
  index_t ranks_rejoined = 0;
};

/// Outcome of one injected SdcEvent. Appended to the result at injection
/// time, so an event the residual checks never catch is still reported —
/// with `detected == false` — rather than silently dropped.
struct SdcRecord {
  SdcEvent event;
  rank_t rank = -1;        ///< owner of the corrupted entry at injection
  bool detected = false;
  index_t detected_at = -1; ///< iteration of the flagging residual check
  real_t discrepancy = 0;  ///< largest relative residual-norm gap observed
};

/// What every solver returns. Fields a solver does not produce stay at
/// their defaults: the sequential solvers leave `modeled_time` = 0, the
/// records and `r` empty, and `x` empty too (they solve into the caller's
/// span); the distributed solvers leave `flops` = 0 (their work is
/// accounted in modeled time instead).
struct SolveOutcome {
  bool converged = false;
  index_t iterations = 0;          ///< trajectory iterations at convergence
  index_t executed_iterations = 0; ///< bodies executed incl. redone ones
  real_t final_relres = 0;
  double flops = 0;        ///< total floating-point work (sequential solvers)
  double modeled_time = 0; ///< cluster modeled time of this solve [s]
  std::vector<RecoveryRecord> recoveries;
  std::vector<SdcRecord> sdc; ///< one record per injected bit-flip
  Vector x; ///< gathered solution (distributed solvers)
  Vector r; ///< gathered recursive residual (for the drift metric, Eq. 2)

  /// Total rollback distance across all recoveries.
  index_t wasted_iterations() const;
  /// Modeled time spent inside recoveries.
  double recovery_modeled_time() const;
  /// True iff any recovery fell back to a scratch restart.
  bool restarted_from_scratch() const;
};

} // namespace esrp
