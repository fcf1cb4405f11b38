// In-memory buddy checkpoint store for IMCR (paper §3.1), generic over the
// solver's SolverState.
//
// Every T iterations each node sends a complete copy of its local dynamic
// data — its slice of every state vector plus the replicated scalars — to
// its phi buddy nodes (the same ring neighbors Eq. 1 designates for ASpMV
// redundancy) and keeps a local copy for its own rollback. Classic PCG
// checkpoints {x, r, z, p} + beta; pipelined PCG checkpoints its eight
// recurrence vectors + {gamma_prev, alpha_prev}; the store only sees vector
// and scalar counts.
//
// The simulation stores the checkpoint content once (owner layout) and
// separately tracks *which nodes hold it*: a failed node destroys its own
// local copy and every buddy copy it was hosting, and recovery must find a
// surviving buddy for each failed rank.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "netsim/cluster.hpp"
#include "netsim/dist_vector.hpp"
#include "netsim/failure.hpp"
#include "resilience/solver_state.hpp"

namespace esrp {

class CheckpointStore {
public:
  /// `phi` buddies per node, chosen by designated_destination (Eq. 1);
  /// `num_vectors` / `num_scalars` fix the shape of the SolverState every
  /// store()/restore() must present.
  CheckpointStore(const BlockRowPartition& part, int phi,
                  std::size_t num_vectors, std::size_t num_scalars);

  int phi() const { return phi_; }
  bool has_checkpoint() const { return tag_ >= 0; }
  index_t tag() const { return tag_; }

  /// Capture `state` as checkpoint `iteration`, seal it with a word-wise
  /// FNV-1a content checksum, and charge the buddy messages on `cluster`
  /// (category checkpoint): per node, phi messages of
  /// (num_vectors * local + num_scalars) scalars.
  void store(index_t iteration, const SolverState& state, SimCluster& cluster);

  /// Recompute the content checksum and compare against the seal taken at
  /// store(). True iff they match — a mismatch means the checkpoint bytes
  /// changed while at rest (silent corruption), so restore() must not
  /// consume it.
  bool verify() const;

  /// Fault injection: flip `bit` of entry `i` (global index into vector
  /// `vec`) of the stored checkpoint WITHOUT refreshing the seal — the
  /// corruption verify() must later detect. Returns the rank owning the
  /// corrupted slice. Requires a stored checkpoint.
  rank_t corrupt(std::size_t vec, index_t i, int bit);

  /// Buddy of `rank` that survives `failed`, preferring the k=1 buddy
  /// (deterministic); nullopt if all phi buddies failed (unrecoverable).
  std::optional<rank_t> surviving_buddy(rank_t rank,
                                        std::span<const rank_t> failed) const;

  /// Restore the checkpoint into `state`:
  ///  - survivors copy their local checkpoint slices (no communication);
  ///  - each failed rank fetches its slices + scalars from a surviving
  ///    buddy (category recovery). Returns false if some failed rank has no
  ///    surviving buddy (store left untouched, state unspecified).
  bool restore(std::span<const rank_t> failed, const SolverState& state,
               SimCluster& cluster) const;

private:
  std::uint64_t content_sum() const;

  const BlockRowPartition* part_;
  int phi_;
  std::size_t num_scalars_;
  index_t tag_ = -1;
  std::vector<DistVector> vecs_;
  std::vector<real_t> scalars_;
  std::uint64_t sum_ = 0; ///< word-wise FNV-1a seal taken at store()
};

} // namespace esrp
