// Solver-agnostic resilience vocabulary: the strategy enum, the recovery
// policy, and the option sets — SolverOptions, shared with the facade's
// SolverConfig, and the ResilienceOptions every distributed solver
// consumes. The classic and the pipelined distributed solvers (and any
// future one) share this one surface and return one SolveOutcome
// (solver/outcome.hpp), whose RecoveryRecords the engine fills.
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
#include "core/reconstruction.hpp" // PrecondFormulation
#include "netsim/failure.hpp"
#include "solver/outcome.hpp"
#include "solver/pcg.hpp" // PcgOptions

namespace esrp {

enum class Strategy { none, esrp, imcr };

std::string to_string(Strategy s);

/// Inverse of to_string(Strategy): "none" | "esrp" | "imcr". Throws
/// esrp::Error on anything else, naming the valid spellings.
Strategy strategy_from_string(std::string_view name);

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

/// The options both the facade's SolverConfig (api/solve_spec.hpp) and the
/// distributed solvers' ResilienceOptions carry, each with its one default.
/// rtol and max_iterations come from PcgOptions.
struct SolverOptions : PcgOptions {
  Strategy strategy = Strategy::none;
  index_t interval = 20;          ///< checkpoint interval T (1 = classic ESR)
  int phi = 1;                    ///< redundant copies / survivable failures
  std::size_t queue_capacity = 3; ///< ESRP redundancy-queue slots
  /// How the preconditioner enters Alg. 2 (paper reference [20]). The
  /// matrix formulation needs Preconditioner::matrix_form() and skips the
  /// P_{I_f,I_f} inner solve.
  PrecondFormulation formulation = PrecondFormulation::inverse;
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
};

/// Default relative recursive-vs-recomputed residual-norm gap above which a
/// residual-replacement step flags a silent data corruption. Benign drift
/// near convergence sits orders of magnitude below it.
inline constexpr real_t kDefaultSdcThreshold = 1e-3;

/// What the distributed solvers consume: the shared options plus the
/// parsed recovery policy and the fault schedule.
struct ResilienceOptions : SolverOptions {
  /// Which recovery rungs the engine may try, and how cascading events are
  /// bounded. Defaults to the "ladder" preset, which reproduces the
  /// historical reconstruct/checkpoint/scratch behavior bit for bit.
  RecoveryPolicy policy;
  /// Failure events. Each event fires once, at the first execution of its
  /// iteration; events must have pairwise distinct iterations. The paper
  /// injects exactly one event per run; multiple events exercise repeated
  /// recoveries (redundancy is replenished by the following storage stages
  /// / checkpoints).
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
  /// residual-replacement step flags a corruption.
  real_t sdc_threshold = kDefaultSdcThreshold;
};

/// The benchmark's spelling of SolveOutcome; the benchmark-only change that
/// migrates bench/e2e removes it.
using ResilientSolveResult = SolveOutcome;

} // namespace esrp
