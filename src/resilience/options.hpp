// Solver-agnostic resilience vocabulary: the strategy enum, the shared
// options block every resilient solver consumes, the per-recovery record
// the engine hands back, and the result every distributed solver returns.
// Extracted from core/resilient_pcg.hpp so that the classic and the
// pipelined distributed solvers (and any future one) share one resilience
// surface instead of re-declaring subsets.
//
// Strategies (and where they live):
//   none — no protection. A failure without recoverable redundant state
//          restarts the solver from scratch (the fate of an unprotected
//          solver, paper §1).
//   esrp — exact state reconstruction with periodic storage (paper Alg. 2/3;
//          extended to the pipelined recurrences per reference [16],
//          Levonyak et al.). The ResilienceEngine (resilience/engine.hpp)
//          owns the redundancy queue, the storage-stage cadence and the
//          star-state snapshots; the recurrence-specific reconstruction math
//          lives with each solver (core/reconstruction.hpp for classic PCG,
//          pipelined/pipelined_esr.hpp for pipelined PCG).
//   imcr — in-memory buddy checkpoint-restart every T iterations
//          (resilience/checkpoint_store.hpp), generic over the solver's
//          SolverState.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "common/vec.hpp"
#include "core/reconstruction.hpp" // PrecondFormulation
#include "netsim/failure.hpp"

namespace esrp {

enum class Strategy { none, esrp, imcr };

std::string to_string(Strategy s);

/// Inverse of to_string(Strategy): "none" | "esrp" | "imcr". Throws
/// esrp::Error on anything else, naming the valid spellings.
Strategy strategy_from_string(std::string_view name);

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

/// Which rungs recover() may try, in ladder order. Presets (by name, for
/// the CLI/spec surface — see recovery_policy_from_string):
///   "ladder"     — reconstruct → older snapshot → checkpoint → scratch
///                  (the default; identical to historical behavior whenever
///                  the first applicable rung succeeds).
///   "exact"      — reconstruct-else-scratch, the paper's §5 protocol.
///   "checkpoint" — checkpoint-else-scratch (pure IMCR).
///   "scratch"    — always restart from zero (the unprotected baseline).
///   "shrink"     — full ladder plus repartition-shrink on unrecoverable
///                  events and rank rejoin at later storage stages.
struct RecoveryPolicy {
  std::string name = "ladder"; ///< preset spelling, echoed in reports
  bool try_reconstruct = true;
  bool try_older_snapshot = true;
  bool try_checkpoint = true;
  /// On an unrecoverable event, repartition onto the survivors and restart
  /// there instead of restarting on the full cluster. Requires a client
  /// with a repartition hook; repeatable across events.
  bool shrink_on_unrecoverable = false;
  /// Let retired ranks rejoin at a later storage stage (re-expanding the
  /// partition back onto the full cluster). Only meaningful with shrink.
  bool rejoin = false;
  /// Cap on recovery attempts resuming to the same target iteration before
  /// the engine forces a scratch restart. Bounds cascades where survivors
  /// keep failing inside the recovery window.
  int max_attempts = 3;
};

/// Resolve a policy preset by name ("ladder", "exact", "checkpoint",
/// "scratch", "shrink"). Throws esrp::Error on anything else, naming the
/// valid spellings.
RecoveryPolicy recovery_policy_from_string(std::string_view name);

struct ResilienceOptions {
  Strategy strategy = Strategy::none;
  index_t interval = 1;        ///< T, the checkpointing interval
  int phi = 1;                 ///< redundant copies / supported failures
  std::size_t queue_capacity = 3; ///< ESRP redundancy-queue slots
  real_t rtol = 1e-8;          ///< convergence: ||r||_2 / ||b||_2 < rtol
  index_t max_iterations = 200000; ///< cap on executed iteration bodies
  real_t inner_rtol = 1e-14;   ///< reconstruction inner-solve tolerance
  index_t inner_max_iterations = 0;
  index_t inner_block_size = 10;
  /// How the preconditioner enters Alg. 2 (paper reference [20]). The
  /// matrix formulation needs Preconditioner::matrix_form() and skips the
  /// P_{I_f,I_f} inner solve.
  PrecondFormulation precond_formulation = PrecondFormulation::inverse;
  /// With spare nodes (default, the paper's setting) the failed ranks act
  /// as their own replacements. Without spares (paper §4 / reference [22],
  /// ESRP only) the nearest surviving neighbors absorb the failed ranks'
  /// index ranges after the reconstruction and the solve continues on the
  /// repartitioned cluster; the retired ranks stay idle.
  bool spare_nodes = true;
  /// Periodically recompute r = b - A x explicitly every this many
  /// iterations (0 = never). Residual replacement (the paper's reference
  /// [27]) counters the drift between the recursive and the true residual
  /// that the Eq. 2 metric measures.
  index_t residual_replacement = 0;
  FailureEvent failure; ///< convenience single event (paper §5 protocol)
  /// Additional failure events. Each event fires once, at the first
  /// execution of its iteration; events must have pairwise distinct
  /// iterations. The paper injects exactly one event per run; multiple
  /// events exercise repeated recoveries (redundancy is replenished by the
  /// following storage stages / checkpoints).
  std::vector<FailureEvent> extra_failures;
  /// Silent-data-corruption events (scenario lab, generalizing the paper's
  /// Table 4 drift study): each flips one bit of one vector entry at the
  /// first execution of its iteration, after the SpMV phase — so a flip in
  /// p desynchronizes the x update from the r update and the corruption is
  /// observable as recursive-vs-true residual drift. Detection rides on
  /// residual replacement; with residual_replacement == 0 every injected
  /// event stays undetected (and is reported as such).
  std::vector<SdcEvent> sdc_events;
  /// Relative recursive-vs-recomputed residual-norm gap above which a
  /// residual-replacement step flags a corruption. Benign drift near
  /// convergence sits orders of magnitude below this default.
  real_t sdc_threshold = 1e-3;
  /// Which recovery rungs the engine may try, and how cascading events are
  /// bounded. Defaults to the "ladder" preset, which reproduces the
  /// historical reconstruct/checkpoint/scratch behavior bit for bit.
  RecoveryPolicy policy;
};

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

/// The result of every distributed solver (ResilientPcg, DistPipelinedPcg).
struct ResilientSolveResult {
  bool converged = false;
  index_t trajectory_iterations = 0; ///< iteration index at convergence
  index_t executed_iterations = 0;   ///< bodies executed incl. redone ones
  real_t final_relres = 0;
  double modeled_time = 0;           ///< cluster modeled time of this solve
  std::vector<RecoveryRecord> recoveries;
  std::vector<SdcRecord> sdc;        ///< one record per injected bit-flip
  Vector x; ///< gathered solution
  Vector r; ///< gathered recursive residual (for the drift metric, Eq. 2)
};

} // namespace esrp
