// Sorted-index-set algebra. Index sets are represented as strictly
// increasing std::vector<index_t>; the notation follows the paper: I is the
// set of all indices, I_f the indices owned by the failed nodes, I \ I_f the
// surviving indices.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"

namespace esrp {

using IndexSet = std::vector<index_t>;

/// True iff `xs` is strictly increasing (a valid IndexSet).
bool is_index_set(std::span<const index_t> xs);

/// [lo, hi) as an IndexSet.
IndexSet index_range(index_t lo, index_t hi);

/// Set union of two IndexSets.
IndexSet set_union(std::span<const index_t> a, std::span<const index_t> b);

/// Set difference a \ b.
IndexSet set_difference(std::span<const index_t> a, std::span<const index_t> b);

/// Set intersection.
IndexSet set_intersection(std::span<const index_t> a,
                          std::span<const index_t> b);

/// Complement of `a` within [0, domain).
IndexSet set_complement(std::span<const index_t> a, index_t domain);

/// Membership test (binary search).
bool set_contains(std::span<const index_t> a, index_t x);

/// Position lookup in an IndexSet through its maximal runs of consecutive
/// indices: O(log runs) per lookup, O(runs) memory. I_f is a union of whole
/// rank ranges, so it has at most one run per failed rank.
class IndexRuns {
public:
  /// `set` must be strictly increasing.
  explicit IndexRuns(std::span<const index_t> set);

  /// Position of `x` in the set, or -1 if `x` is not in it.
  index_t position(index_t x) const;

private:
  struct Run {
    index_t first; ///< first index of the run
    index_t end;   ///< one past its last index
    index_t pos;   ///< position of `first` in the set
  };
  std::vector<Run> runs_;
};

} // namespace esrp
