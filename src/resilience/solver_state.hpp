// The SolverState concept: the set of distributed vectors and replicated
// scalars a solver exposes so the resilience engine can save, damage, and
// restore its dynamic data without knowing the recurrences they belong to.
//
//   vectors — the live recurrence vectors, in a solver-chosen fixed order.
//             Checkpoints and star snapshots capture exactly these (in this
//             order), a failure zeroes the failed ranks' slices of them.
//             Classic PCG exposes {x, r, z, p}; pipelined PCG exposes the
//             eight recurrence vectors {x, r, u, w, z, q, s, p}.
//   scratch — per-iteration work vectors (e.g. A p) that a failure also
//             destroys but that are never worth saving: the next iteration
//             recomputes them.
//   scalars — replicated iteration-carried scalars saved and restored with
//             the vectors (classic: beta; pipelined: gamma_prev,
//             alpha_prev). Every node holds them, so a recovery retrieves
//             them from any survivor at the cost of one scalar message.
#pragma once

#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "netsim/dist_vector.hpp"

namespace esrp {

struct SolverState {
  std::vector<DistVector*> vectors;
  std::vector<DistVector*> scratch;
  std::vector<real_t*> scalars;
};

/// An owned copy of a SolverState at one iteration — the engine's "star"
/// state (the paper's x*, r*, z*, p*). Snapshots can carry extra scalar
/// slots beyond the live scalars for values only the recovery math needs
/// (e.g. the pipelined solver's beta^(t), amended after the snapshot is
/// taken — see ResilienceEngine::set_snapshot_scalar).
///
/// A snapshot's vectors may be deferred (defer()): the tag and scalars are
/// taken, the vectors are still the live ones and are copied only when
/// capture_vectors() runs. Reading a deferred snapshot's vectors throws.
class StateSnapshot {
public:
  /// Deep-copies `state` (vectors and scalars) on `part`; the extra scalar
  /// slots start at zero.
  StateSnapshot(index_t tag, const SolverState& state,
                const BlockRowPartition& part, std::size_t extra_scalars);

  index_t tag() const { return tag_; }
  std::size_t num_vectors() const { return vecs_.size(); }
  std::size_t num_scalars() const { return scalars_.size(); }

  const DistVector& vec(std::size_t k) const {
    require_captured();
    return vecs_[k];
  }
  DistVector& vec(std::size_t k) {
    require_captured();
    return vecs_[k];
  }
  real_t scalar(std::size_t k) const { return scalars_[k]; }
  void set_scalar(std::size_t k, real_t v) { scalars_[k] = v; }

  /// Re-capture `state` under a new tag, reusing the allocated vectors
  /// (shapes must match — the snapshot was built from the same state).
  void recapture(index_t tag, const SolverState& state);

  /// recapture() without the vectors: take the tag and scalars now and
  /// leave the vectors deferred. The caller guarantees that `state`'s
  /// vectors do not change before capture_vectors() runs or the snapshot is
  /// re-captured or dropped.
  void defer(index_t tag, const SolverState& state);

  /// Copy a deferred snapshot's vectors from `state` (the state defer() was
  /// given); no-op when none are deferred.
  void capture_vectors(const SolverState& state);

  /// Copy the snapshot's vectors back into the live state (the survivors'
  /// rollback). Scalars are left to the caller: which live scalars a
  /// snapshot slot maps to is the solver's business.
  void restore_vectors(const SolverState& state) const;

  /// A node failure also destroys the failed ranks' snapshot slices.
  void zero_ranks(std::span<const rank_t> ranks);

  /// Re-point every vector at `part` (DistVector::rebind): after a
  /// repartition the adopters hold the absorbed entries where they were.
  void rebind(const BlockRowPartition& part);

private:
  void require_captured() const {
    ESRP_CHECK_MSG(!deferred_, "snapshot " << tag_ << " was not captured");
  }

  index_t tag_ = -1;
  bool deferred_ = false; ///< the vectors are the live ones (defer())
  std::vector<DistVector> vecs_;
  std::vector<real_t> scalars_;
  std::size_t live_scalars_ = 0; ///< scalars_ = live values + extra slots
};

/// Write reconstructed entries back into a distributed vector: `values` is
/// compact over the sorted global indices `lost` (the I_f of Alg. 2).
void write_lost_entries(DistVector& v, std::span<const index_t> lost,
                        std::span<const real_t> values);

} // namespace esrp
