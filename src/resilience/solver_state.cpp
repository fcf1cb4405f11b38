#include "resilience/solver_state.hpp"

#include "common/error.hpp"

namespace esrp {

StateSnapshot::StateSnapshot(index_t tag, const SolverState& state,
                             const BlockRowPartition& part,
                             std::size_t extra_scalars)
    : tag_(tag), live_scalars_(state.scalars.size()) {
  vecs_.reserve(state.vectors.size());
  for (const DistVector* v : state.vectors) {
    ESRP_CHECK(v != nullptr && &v->partition() == &part);
    vecs_.emplace_back(part);
    vecs_.back().copy_from(*v);
  }
  scalars_.assign(live_scalars_ + extra_scalars, 0);
  for (std::size_t k = 0; k < live_scalars_; ++k)
    scalars_[k] = *state.scalars[k];
}

void StateSnapshot::recapture(index_t tag, const SolverState& state) {
  defer(tag, state);
  capture_vectors(state);
}

void StateSnapshot::defer(index_t tag, const SolverState& state) {
  ESRP_CHECK(state.vectors.size() == vecs_.size());
  ESRP_CHECK(state.scalars.size() == live_scalars_);
  tag_ = tag;
  deferred_ = true;
  for (std::size_t k = 0; k < live_scalars_; ++k)
    scalars_[k] = *state.scalars[k];
  for (std::size_t k = live_scalars_; k < scalars_.size(); ++k) scalars_[k] = 0;
}

void StateSnapshot::capture_vectors(const SolverState& state) {
  if (!deferred_) return;
  ESRP_CHECK(state.vectors.size() == vecs_.size());
  for (std::size_t k = 0; k < vecs_.size(); ++k)
    vecs_[k].copy_from(*state.vectors[k]);
  deferred_ = false;
}

void StateSnapshot::restore_vectors(const SolverState& state) const {
  ESRP_CHECK(state.vectors.size() == vecs_.size());
  for (std::size_t k = 0; k < vecs_.size(); ++k)
    state.vectors[k]->copy_from(vec(k));
}

void StateSnapshot::zero_ranks(std::span<const rank_t> ranks) {
  require_captured();
  for (DistVector& v : vecs_) v.zero_ranks(ranks);
}

void StateSnapshot::rebind(const BlockRowPartition& part) {
  for (DistVector& v : vecs_) v.rebind(part);
}

void write_lost_entries(DistVector& v, std::span<const index_t> lost,
                        std::span<const real_t> values) {
  ESRP_CHECK(lost.size() == values.size());
  for (std::size_t k = 0; k < lost.size(); ++k) v.set(lost[k], values[k]);
}

} // namespace esrp
