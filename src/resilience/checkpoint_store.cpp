#include "resilience/checkpoint_store.hpp"

#include <cstring>

#include "comm/aspmv_plan.hpp"
#include "common/error.hpp"
#include "common/fnv.hpp"

namespace esrp {

CheckpointStore::CheckpointStore(const BlockRowPartition& part, int phi,
                                 std::size_t num_vectors,
                                 std::size_t num_scalars)
    : part_(&part), phi_(phi), num_scalars_(num_scalars) {
  ESRP_CHECK(phi >= 1 && phi < part.num_nodes());
  ESRP_CHECK(num_vectors >= 1);
  vecs_.reserve(num_vectors);
  for (std::size_t k = 0; k < num_vectors; ++k) vecs_.emplace_back(part);
  scalars_.assign(num_scalars, 0);
}

void CheckpointStore::store(index_t iteration, const SolverState& state,
                            SimCluster& cluster) {
  ESRP_CHECK(state.vectors.size() == vecs_.size());
  ESRP_CHECK(state.scalars.size() == num_scalars_);
  tag_ = iteration;
  for (std::size_t k = 0; k < vecs_.size(); ++k)
    vecs_[k].copy_from(*state.vectors[k]);
  for (std::size_t k = 0; k < num_scalars_; ++k)
    scalars_[k] = *state.scalars[k];
  sum_ = content_sum();

  const rank_t n_nodes = part_->num_nodes();
  for (rank_t s = 0; s < n_nodes; ++s) {
    const std::size_t bytes =
        (vecs_.size() * static_cast<std::size_t>(part_->local_size(s)) +
         num_scalars_) *
        CostParams::bytes_per_scalar;
    for (int k = 1; k <= phi_; ++k) {
      cluster.send(s, designated_destination(s, k, n_nodes), bytes,
                   CommCategory::checkpoint);
    }
  }
  cluster.complete_step();
}

std::uint64_t CheckpointStore::content_sum() const {
  std::uint64_t h = fnv1a_words(&tag_, sizeof(tag_));
  for (const DistVector& vec : vecs_) {
    for (rank_t s = 0; s < part_->num_nodes(); ++s) {
      const auto slice = vec.local(s);
      h = fnv1a_words(slice.data(), slice.size_bytes(), h);
    }
  }
  h = fnv1a_words(scalars_.data(), scalars_.size() * sizeof(real_t), h);
  return h;
}

bool CheckpointStore::verify() const {
  ESRP_CHECK(has_checkpoint());
  return content_sum() == sum_;
}

rank_t CheckpointStore::corrupt(std::size_t vec, index_t i, int bit) {
  ESRP_CHECK(has_checkpoint());
  ESRP_CHECK(vec < vecs_.size());
  ESRP_CHECK(i >= 0 && i < part_->global_size());
  ESRP_CHECK(bit >= 0 && bit < 64);
  const real_t v = vecs_[vec].at(i);
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(real_t));
  std::memcpy(&bits, &v, sizeof(bits));
  bits ^= (std::uint64_t{1} << bit);
  real_t flipped;
  std::memcpy(&flipped, &bits, sizeof(bits));
  vecs_[vec].set(i, flipped);
  return part_->owner(i);
}

std::optional<rank_t> CheckpointStore::surviving_buddy(
    rank_t rank, std::span<const rank_t> failed) const {
  for (int k = 1; k <= phi_; ++k) {
    const rank_t d = designated_destination(rank, k, part_->num_nodes());
    if (!rank_in(failed, d)) return d;
  }
  return std::nullopt;
}

bool CheckpointStore::restore(std::span<const rank_t> failed,
                              const SolverState& state,
                              SimCluster& cluster) const {
  ESRP_CHECK(has_checkpoint());
  ESRP_CHECK(state.vectors.size() == vecs_.size());
  ESRP_CHECK(state.scalars.size() == num_scalars_);
  for (rank_t s : failed) {
    if (!surviving_buddy(s, failed)) return false;
  }

  // Survivors roll back from their local copies (no messages); replacements
  // fetch their slices from a surviving buddy.
  for (std::size_t k = 0; k < vecs_.size(); ++k)
    state.vectors[k]->copy_from(vecs_[k]);
  for (std::size_t k = 0; k < num_scalars_; ++k)
    *state.scalars[k] = scalars_[k];
  for (rank_t s : failed) {
    const rank_t buddy = *surviving_buddy(s, failed);
    const std::size_t bytes =
        (vecs_.size() * static_cast<std::size_t>(part_->local_size(s)) +
         num_scalars_) *
        CostParams::bytes_per_scalar;
    cluster.send(buddy, s, bytes, CommCategory::recovery);
  }
  cluster.complete_step();
  return true;
}

} // namespace esrp
