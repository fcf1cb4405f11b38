// Block-row data distribution: node s owns a contiguous range of row/vector
// indices I_s, the distribution used by the paper (and by PETSc). Rows are
// split as evenly as possible, with the first (M mod N) nodes receiving one
// extra row.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "partition/index_set.hpp"

namespace esrp {

class BlockRowPartition {
public:
  /// Distribute `global_size` indices over `num_nodes` nodes. Every node
  /// receives a (possibly empty) contiguous range.
  BlockRowPartition(index_t global_size, rank_t num_nodes);

  /// Explicit boundaries: node s owns [offsets[s], offsets[s+1]). Must be
  /// non-decreasing, start at 0, and its back defines the global size.
  /// Used by the no-spare-node recovery, where surviving ranks absorb the
  /// failed ranks' ranges and some ranks end up empty.
  explicit BlockRowPartition(std::vector<index_t> offsets);

  index_t global_size() const { return global_size_; }
  rank_t num_nodes() const { return num_nodes_; }

  /// First index owned by `rank`.
  index_t begin(rank_t rank) const;
  /// One-past-last index owned by `rank`.
  index_t end(rank_t rank) const;
  /// Number of indices owned by `rank`.
  index_t local_size(rank_t rank) const { return end(rank) - begin(rank); }
  /// The boundaries: rank s owns [offsets()[s], offsets()[s+1]).
  std::span<const index_t> offsets() const { return offsets_; }

  /// Owner of global index i (O(log N)).
  rank_t owner(index_t i) const;

  /// Global index of local offset `k` on `rank`.
  index_t to_global(rank_t rank, index_t k) const;
  /// Local offset of global index i on its owner.
  index_t to_local(index_t i) const;

  /// I_f: all indices owned by the given set of ranks (ranks need not be
  /// sorted; the result is a valid IndexSet).
  IndexSet owned_by(std::span<const rank_t> ranks) const;

  /// I \ I_f for the given ranks.
  IndexSet complement_of(std::span<const rank_t> ranks) const;

private:
  index_t global_size_;
  rank_t num_nodes_;
  std::vector<index_t> offsets_; // size num_nodes_ + 1
};

/// No-spare-node recovery (paper §4, reference [22]): redistribute the
/// failed ranks' ranges to surviving neighbors. Each maximal failed block is
/// absorbed by the nearest surviving rank to its left (to keep ranges
/// contiguous), or to its right when the block starts at rank 0. The failed
/// ranks end up with empty ranges; the node count is unchanged. Throws if
/// every rank failed.
BlockRowPartition absorb_ranks(const BlockRowPartition& part,
                               std::span<const rank_t> failed);

} // namespace esrp
