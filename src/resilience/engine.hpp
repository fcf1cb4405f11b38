// The solver-agnostic resilience engine: everything a resilient distributed
// solver needs besides its own recurrences. The engine owns
//
//   - the failure schedule (ResilienceOptions::extra_failures), firing each
//     event once at its iteration;
//   - the ESRP strategy state: the redundancy queue of search-direction
//     copies, the periodic storage-stage cadence (paper Alg. 3 lines 4-12)
//     and the star-state snapshots the survivors roll back to;
//   - the IMCR buddy checkpoint store;
//   - recovery orchestration: data loss, the policy-driven recovery ladder
//     (reconstruct → older snapshot → checkpoint → shrink → scratch, plus
//     the rejoin rung at storage stages) over checksum-verified redundant
//     state, bounded retry for cascading events, and the RecoveryRecord +
//     SolverObserver failure/recovery notifications;
//   - the partition: the construction-time one and, after a no-spare or
//     shrink recovery, the absorbed one. A partition change (no-spare,
//     shrink, rejoin) is one engine operation: the client rebuilds its
//     plans on the new partition and the engine rebinds every live, scratch
//     and snapshot vector to it (DistVector::rebind), moving no data.
//
// A solver participates through the SolverState concept
// (resilience/solver_state.hpp) plus a small Client of hooks for the steps
// only it can perform: exposing its live state, reinitializing from
// scratch, rebuilding its plans on a new partition, and — for ESRP —
// reconstructing the failed entries of a snapshot from two consecutive
// redundant copies (the recurrence-specific math of Alg. 2 for classic PCG,
// of reference [16] for pipelined PCG).
//
// The engine performs no floating-point work of its own and charges the
// SimCluster only through the checkpoint store and whatever the client
// hooks charge, so a solver rewired onto the engine keeps bitwise-identical
// trajectories and modeled-time accounting (pinned by
// tests/integration/fused_solver_parity_test).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "comm/exchange.hpp" // RedundantCopy
#include "common/observer.hpp"
#include "netsim/cluster.hpp"
#include "netsim/failure.hpp"
#include "resilience/checkpoint_store.hpp"
#include "resilience/options.hpp"
#include "resilience/redundancy_queue.hpp"
#include "resilience/solver_state.hpp"

namespace esrp {

class ResilienceEngine {
public:
  /// Which redundant-copy tags the reconstruction of snapshot t consumes:
  ///   trailing — copies (t-1, t). Classic CG: the p-update p^(j) =
  ///              z^(j) + beta^(j-1) p^(j-1) yields z at the *newer* tag,
  ///              so the stars are saved at the second storage iteration.
  ///   leading  — copies (t, t+1). Pipelined CG (ref. [16]): the p-update
  ///              p^(j+1) = u^(j) + beta^(j) p^(j) yields u at the *older*
  ///              tag, so the stars are saved at the first storage
  ///              iteration and become recoverable one iteration later.
  enum class CopyPairing { trailing, leading };

  struct Config {
    /// Star-snapshot slots kept live. Classic needs 1; a leading pairing
    /// with T = 1 needs 2 (iteration j makes snapshot j-1 recoverable
    /// while snapshot j is already being captured).
    std::size_t snapshot_slots = 1;
    /// Extra per-snapshot scalar slots beyond the live SolverState scalars
    /// (values only the recovery math needs, amended after capture via
    /// set_snapshot_scalar — e.g. the pipelined beta^(t)).
    std::size_t snapshot_extra_scalars = 0;
    CopyPairing pairing = CopyPairing::trailing;
    /// Shape of the SolverState presented to store_checkpoint / restore.
    std::size_t checkpoint_vectors = 0;
    std::size_t checkpoint_scalars = 0;
  };

  /// The solver-provided hooks recover() orchestrates.
  struct Client {
    /// Live dynamic state (also the zeroing target of a failure).
    std::function<SolverState()> state;
    /// Reinitialize the live state to iteration 0 (scratch restart).
    std::function<void()> restart;
    /// No-spare, shrink and rejoin: point the cluster at `np` and rebuild
    /// every plan on it (DistOperator::rebuild_on_partition). The engine
    /// rebinds the state's vectors afterwards; `np` outlives the next call.
    std::function<void(const BlockRowPartition& np)> set_partition;
    /// ESRP: reconstruct the failed entries at snapshot `stars` from the
    /// two consecutive redundant copies, roll the live state back to the
    /// (repaired) snapshot, and fill the record's inner-iteration counts.
    /// Returns false if a redundant copy did not survive.
    std::function<bool(StateSnapshot& stars, const RedundantCopy& prev,
                       const RedundantCopy& cur,
                       std::span<const rank_t> failed, RecoveryRecord& record)>
        reconstruct;
  };

  struct StoragePlan {
    bool first_store = false;
    bool second_store = false;
    bool store() const { return first_store || second_store; }
  };

  /// Sorts extra_failures through merge_failure_schedule
  /// (ranks in range and distinct per event, strictly increasing
  /// iterations; an event may fail *all* ranks — the ladder resolves it to
  /// a scratch restart) and validates the interval/queue parameters;
  /// creates the IMCR store when the strategy asks for one. Throws
  /// esrp::Error on invalid options. `part` must outlive the engine: the
  /// rejoin rung returns to it.
  ResilienceEngine(ResilienceOptions opts, const BlockRowPartition& part,
                   Config cfg);

  const ResilienceOptions& options() const { return opts_; }
  Strategy strategy() const { return opts_.strategy; }
  const std::vector<FailureEvent>& events() const { return events_; }

  /// Reset the per-solve state (queue, snapshots, event bookkeeping), bind
  /// the cluster recoveries charge against, and bind the solve's observer
  /// (may be null), which sees on_failure / on_recovery for every event.
  /// The IMCR checkpoint deliberately persists across solves, like the
  /// pre-engine solver.
  void begin_solve(SimCluster& cluster, SolverObserver* observer = nullptr);

  // --- failure schedule --------------------------------------------------
  /// The first unfired event scheduled for iteration j, marked fired; null
  /// if none. At most one event fires per loop pass — a second event at
  /// the same re-executed iteration waits for the next pass.
  const FailureEvent* pending_event(index_t j);

  // --- ESRP storage stages -----------------------------------------------
  /// The storage-stage cadence of Alg. 3: for T = 1 every iteration is a
  /// (second) store; for T >= 2 iterations mT are first stores and mT+1
  /// second stores. Empty plan for non-ESRP strategies.
  StoragePlan storage_plan(index_t j) const;

  /// Queue a storage stage's copy; returns the buffer it displaced (see
  /// RedundancyQueue::push) for the solver's next capture.
  Vector push_copy(RedundantCopy copy) { return queue_.push(std::move(copy)); }
  bool has_copy(index_t tag) const { return queue_.find(tag) != nullptr; }
  std::vector<index_t> queue_tags() const { return queue_.tags(); }

  /// Capture the star snapshot for iteration `tag` (evicting the oldest
  /// beyond Config::snapshot_slots; re-capturing an existing tag replaces
  /// it in place). With the trailing pairing, one slot and a second store
  /// at tag + 1 (classic ESR, T = 1), only the tag and scalars are taken:
  /// the vectors are copied by recover(), which a failure at iteration
  /// `tag` reaches before the live state moves. The solver must not change
  /// `state`'s vectors between this call and that iteration's failure check.
  void save_snapshot(index_t tag, const SolverState& state);
  bool has_snapshot(index_t tag) const { return snapshot(tag) != nullptr; }
  /// Snapshot `tag`, or null when none is kept.
  const StateSnapshot* snapshot(index_t tag) const;
  /// Amend an extra scalar slot of snapshot `tag` (no-op if the snapshot
  /// was already evicted).
  void set_snapshot_scalar(index_t tag, std::size_t k, real_t v);

  /// Declare iteration `tag` reconstructable: its snapshot and copy pair
  /// are in place. recover() rolls back to the newest declared tag.
  /// Advancing the tag is the engine's "progress" signal: it resets the
  /// bounded-retry counter of cascading recoveries.
  void set_recoverable(index_t tag) {
    if (tag > last_recoverable_) retry_count_ = 0;
    last_recoverable_ = tag;
  }
  index_t last_recoverable() const { return last_recoverable_; }

  // --- IMCR checkpoints --------------------------------------------------
  /// True when iteration j is a checkpoint iteration (j > 0, j % T == 0)
  /// that has not been captured yet — the tag check skips re-checkpointing
  /// identical state when the first iteration after a rollback is itself a
  /// checkpoint iteration.
  bool checkpoint_due(index_t j) const;
  void store_checkpoint(index_t j, const SolverState& state);

  // --- recovery ----------------------------------------------------------
  /// Run the full §4 protocol for one event at iteration j_fail as a
  /// policy-driven ladder: notify the observer's on_failure, lose the failed
  /// ranks' dynamic data (live state, snapshots, redundant copies), then
  /// walk the rungs the RecoveryPolicy enables —
  ///   reconstruct → older snapshot → checkpoint → shrink → scratch —
  /// each gated on checksum-verified inputs (a corrupt copy or checkpoint
  /// demotes to the next rung and is counted in the record); without spare
  /// nodes the survivors absorb the failed ranges. Re-entrant: a failure
  /// landing inside an earlier recovery's replay window recovers again; the
  /// bounded-retry counter (RecoveryPolicy::max_attempts recoveries with
  /// no storage progress) forces the scratch rung instead of thrashing.
  /// Returns the iteration to resume from; `record` is filled with the
  /// outcome (also passed to the observer's on_recovery).
  index_t recover(const FailureEvent& event, index_t j_fail,
                  const Client& client, RecoveryRecord& record);

  /// Rejoin rung: when the policy allows it, retired ranks exist and j is
  /// a storage-cadence iteration, move back onto the construction-time
  /// partition and emit a rung=rejoin record (also to
  /// the observer's on_recovery). The strategy state (queue, snapshots,
  /// checkpoint) is dropped — the following storage stages replenish it on
  /// the re-expanded partition. Call at the top of the storage phase.
  bool try_rejoin(index_t j, const Client& client, RecoveryRecord& record);

  /// Ranks currently retired by shrink / no-spare recoveries (empty ranges
  /// on the live partition), ascending.
  const std::vector<rank_t>& retired_ranks() const { return retired_; }

  /// Fault injection for the redundant-state SdcEvent targets: "pcopy"
  /// flips a bit of entry `e.index` in the newest redundancy-queue copy,
  /// "checkpoint" flips a bit of entry `e.index` of vector 0 of the stored
  /// buddy checkpoint — both without refreshing the checksum seal, so the
  /// corruption is detectable (and demoted) at recovery time. Returns the
  /// rank holding the corrupted bytes, or -1 when there is nothing to
  /// corrupt yet (no copy / no checkpoint / entry not redundantly held).
  rank_t corrupt_redundant_state(const SdcEvent& e);

private:
  StateSnapshot* find_snapshot(index_t tag);
  /// The survivors absorb the failed ranks' ranges (absorb_ranks on the
  /// current partition), which become the engine's owned partition; the
  /// failed ranks retire. A retired rank adopts only when no active rank
  /// survives.
  void absorb(std::span<const rank_t> failed, const Client& client,
              RecoveryRecord& record);
  /// The one partition change: the client's set_partition, then every
  /// live, scratch and snapshot vector rebound to `np`. The IMCR store (if
  /// any) is rebuilt empty on `np`: its slices describe the old ownership
  /// map.
  void move_to(const BlockRowPartition& np, const Client& client);
  /// One reconstruct-shaped rung: require the adjacent copy pair and the
  /// star snapshot for `target`, checksum-verify both copies (corrupt ones
  /// demote), then run the client's reconstruction. On success sets
  /// `resume`/record.rung and returns true.
  bool try_reconstruct_at(index_t target, RecoveryRung rung,
                          std::span<const rank_t> failed,
                          const Client& client, RecoveryRecord& record,
                          index_t& resume);

  ResilienceOptions opts_;
  Config cfg_;
  const BlockRowPartition* base_part_; ///< construction-time; rejoin target
  /// The absorbed partition after a no-spare or shrink recovery; null on
  /// the construction-time partition.
  std::unique_ptr<BlockRowPartition> owned_part_;
  SimCluster* cluster_ = nullptr;       ///< bound by begin_solve
  SolverObserver* observer_ = nullptr;  ///< bound by begin_solve; may be null
  RedundancyQueue queue_;
  std::vector<StateSnapshot> snapshots_; ///< oldest first
  index_t last_recoverable_ = -1;
  std::unique_ptr<CheckpointStore> checkpoint_;
  std::vector<FailureEvent> events_; ///< sorted, validated extra_failures
  std::vector<bool> event_done_;
  std::vector<rank_t> retired_; ///< ranks idled by shrink/no-spare, ascending
  /// Recoveries since the last storage progress (set_recoverable advance,
  /// store_checkpoint, or scratch restart); > policy.max_attempts forces
  /// the scratch rung.
  int retry_count_ = 0;
};

} // namespace esrp
