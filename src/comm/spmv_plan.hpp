// Communication plan for the distributed sparse matrix-vector product.
//
// With block-row distribution, computing y = A p on node l requires the
// entries of p at every column index that appears in l's rows. The plan
// precomputes, for every ordered node pair (s, l), the set I_{s,l} of indices
// owned by s that l needs (paper §2.2). The plan is static: it depends only
// on the sparsity pattern and the partition, and is built once per solve.
//
// Node l's rows reference only columns in owned(l) ∪ ghosts(l), where
// ghosts(l) is the union of I_{s,l} over s. The exchange engine relies on
// that: it charges every I_{s,l} as a message, then computes l's rows from
// the owners' slices in place (comm/exchange.hpp), so every value l reads
// is one it owns or one the halo delivers. Ghosts ascend and owners hold
// contiguous ranges, so each I_{s,l} is one contiguous run of l's ghosts.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "partition/index_set.hpp"
#include "partition/partition.hpp"
#include "sparse/csr.hpp"

namespace esrp {

/// One sender->receiver transfer list.
struct SendList {
  rank_t to = -1;
  IndexSet indices; ///< global indices owned by the sender
};

class SpmvPlan {
public:
  SpmvPlan(const CsrMatrix& a, const BlockRowPartition& part);

  const BlockRowPartition& partition() const { return *part_; }

  /// Transfer lists of node s (I_{s,l} for every l with a non-empty set),
  /// ordered by receiver rank.
  const std::vector<SendList>& sends(rank_t s) const;

  /// I_{s,l}: indices node s must send to node l (empty if none).
  const IndexSet& send_set(rank_t s, rank_t l) const;

  /// All ghost indices node l receives (union over senders), sorted.
  const IndexSet& ghosts(rank_t l) const;

  /// m(i): number of *other* nodes the regular SpMV sends entry i to.
  int multiplicity(index_t i) const;

  /// Number of nonzeros in the rows owned by `s` (flops = 2x this).
  index_t local_nnz(rank_t s) const;

  /// Total entries transferred per SpMV over all node pairs.
  std::uint64_t total_entries_sent() const;

  /// Paper §2.2: the regular SpMV provides full single-failure redundancy
  /// iff every entry is sent to at least one other node (m(i) >= 1 for all
  /// i). Most matrices fail this — hence the ASpMV.
  bool provides_full_redundancy() const;

private:
  const BlockRowPartition* part_;
  std::vector<std::vector<SendList>> sends_;          // [s] -> lists
  std::vector<IndexSet> ghosts_;                      // [l] -> ghost indices
  std::vector<index_t> local_nnz_;                    // [s]
  std::vector<int> multiplicity_;                     // [i]
  IndexSet empty_;
};

} // namespace esrp
