#include "partition/partition.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace esrp {

BlockRowPartition::BlockRowPartition(index_t global_size, rank_t num_nodes)
    : global_size_(global_size), num_nodes_(num_nodes) {
  ESRP_CHECK_MSG(global_size >= 0, "global size must be non-negative");
  ESRP_CHECK_MSG(num_nodes > 0, "partition needs at least one node");
  offsets_.resize(static_cast<std::size_t>(num_nodes) + 1);
  const index_t base = global_size / num_nodes;
  const index_t extra = global_size % num_nodes;
  offsets_[0] = 0;
  for (rank_t s = 0; s < num_nodes; ++s) {
    const index_t sz = base + (s < extra ? 1 : 0);
    offsets_[static_cast<std::size_t>(s) + 1] =
        offsets_[static_cast<std::size_t>(s)] + sz;
  }
  ESRP_CHECK(offsets_.back() == global_size);
}

BlockRowPartition::BlockRowPartition(std::vector<index_t> offsets)
    : global_size_(0), num_nodes_(0), offsets_(std::move(offsets)) {
  ESRP_CHECK_MSG(offsets_.size() >= 2, "offsets need at least two entries");
  ESRP_CHECK_MSG(offsets_.front() == 0, "offsets must start at 0");
  for (std::size_t k = 1; k < offsets_.size(); ++k)
    ESRP_CHECK_MSG(offsets_[k] >= offsets_[k - 1],
                   "offsets must be non-decreasing");
  num_nodes_ = static_cast<rank_t>(offsets_.size() - 1);
  global_size_ = offsets_.back();
}

index_t BlockRowPartition::begin(rank_t rank) const {
  ESRP_CHECK(rank >= 0 && rank < num_nodes_);
  return offsets_[static_cast<std::size_t>(rank)];
}

index_t BlockRowPartition::end(rank_t rank) const {
  ESRP_CHECK(rank >= 0 && rank < num_nodes_);
  return offsets_[static_cast<std::size_t>(rank) + 1];
}

rank_t BlockRowPartition::owner(index_t i) const {
  ESRP_CHECK_MSG(i >= 0 && i < global_size_, "index " << i << " out of range");
  const auto it = std::upper_bound(offsets_.begin(), offsets_.end(), i);
  // With empty ranges several offsets can equal i+?; upper_bound lands past
  // the owner whose [begin, end) actually contains i.
  return static_cast<rank_t>(it - offsets_.begin() - 1);
}

index_t BlockRowPartition::to_global(rank_t rank, index_t k) const {
  ESRP_CHECK(k >= 0 && k < local_size(rank));
  return begin(rank) + k;
}

index_t BlockRowPartition::to_local(index_t i) const {
  return i - begin(owner(i));
}

IndexSet BlockRowPartition::owned_by(std::span<const rank_t> ranks) const {
  std::vector<rank_t> sorted(ranks.begin(), ranks.end());
  std::sort(sorted.begin(), sorted.end());
  ESRP_CHECK_MSG(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
                 "duplicate ranks in failure set");
  IndexSet out;
  std::size_t total = 0;
  for (rank_t s : sorted) total += static_cast<std::size_t>(end(s) - begin(s));
  out.reserve(total);
  for (rank_t s : sorted) {
    for (index_t i = begin(s); i < end(s); ++i) out.push_back(i);
  }
  return out;
}

IndexSet BlockRowPartition::complement_of(std::span<const rank_t> ranks) const {
  return set_complement(owned_by(ranks), global_size_);
}

BlockRowPartition absorb_ranks(const BlockRowPartition& part,
                               std::span<const rank_t> failed) {
  const rank_t n = part.num_nodes();
  std::vector<bool> dead(static_cast<std::size_t>(n), false);
  for (rank_t s : failed) {
    ESRP_CHECK(s >= 0 && s < n);
    dead[static_cast<std::size_t>(s)] = true;
  }
  ESRP_CHECK_MSG(failed.size() < static_cast<std::size_t>(n),
                 "cannot absorb: every rank failed");

  // New sizes: each rank keeps its range; a dead rank's range moves to the
  // nearest surviving rank to its left, or to its right for a leading block.
  std::vector<index_t> size(static_cast<std::size_t>(n));
  for (rank_t s = 0; s < n; ++s)
    size[static_cast<std::size_t>(s)] = part.local_size(s);
  for (rank_t s = 0; s < n; ++s) {
    if (!dead[static_cast<std::size_t>(s)]) continue;
    rank_t adopter = -1;
    for (rank_t l = s; l-- > 0;) {
      if (!dead[static_cast<std::size_t>(l)]) {
        adopter = l;
        break;
      }
    }
    if (adopter < 0) {
      for (rank_t r = s + 1; r < n; ++r) {
        if (!dead[static_cast<std::size_t>(r)]) {
          adopter = r;
          break;
        }
      }
    }
    ESRP_CHECK(adopter >= 0);
    size[static_cast<std::size_t>(adopter)] += size[static_cast<std::size_t>(s)];
    size[static_cast<std::size_t>(s)] = 0;
  }

  std::vector<index_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (rank_t s = 0; s < n; ++s)
    offsets[static_cast<std::size_t>(s) + 1] =
        offsets[static_cast<std::size_t>(s)] + size[static_cast<std::size_t>(s)];
  ESRP_CHECK(offsets.back() == part.global_size());
  return BlockRowPartition(std::move(offsets));
}

} // namespace esrp
