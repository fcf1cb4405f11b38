// Communication plan for the distributed sparse matrix-vector product.
//
// With block-row distribution, computing y = A p on node l requires the
// entries of p at every column index that appears in l's rows. The plan
// precomputes, for every ordered node pair (s, l), the set I_{s,l} of indices
// owned by s that l needs (paper §2.2). The plan is static: it depends only
// on the sparsity pattern and the partition, and is built once per solve.
//
// Local numbering (PETSc MPIAIJ style): node l's product reads a compact
// buffer [owned | ghosts] of local_size(l) + ghosts(l).size() entries, not a
// global-length vector. Local column c < local_size(l) is owned row
// begin(l) + c; local column local_size(l) + k is ghosts(l)[k]. The plan
// stores the local column of every nonzero in l's rows (col_t, in CSR
// order), and every regular send list carries the receiver slot where its
// indices land. Ghosts ascend and owners hold contiguous ranges, so each
// I_{s,l} fills one contiguous run of l's ghost slots.
#pragma once

#include <cstdint>
#include <span>
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
  /// Receiver local column of indices[0]: the list lands at
  /// [slot, slot + indices.size()) of the receiver's [owned | ghosts]
  /// buffer. Meaningful only on SpmvPlan::sends; the augmentation lists of
  /// AspmvPlan::extra_sends feed no product and keep -1.
  col_t slot = -1;
};

class SpmvPlan {
public:
  /// Throws esrp::Error if some rank's owned + ghost count overflows the
  /// 32-bit local numbering.
  SpmvPlan(const CsrMatrix& a, const BlockRowPartition& part);

  const BlockRowPartition& partition() const { return *part_; }

  /// Transfer lists of node s (I_{s,l} for every l with a non-empty set),
  /// ordered by receiver rank.
  const std::vector<SendList>& sends(rank_t s) const;

  /// I_{s,l}: indices node s must send to node l (empty if none).
  const IndexSet& send_set(rank_t s, rank_t l) const;

  /// All ghost indices node l receives (union over senders), sorted.
  const IndexSet& ghosts(rank_t l) const;

  /// Local column of every nonzero in node s's rows, in CSR order, indexing
  /// s's [owned | ghosts] buffer (see the file comment).
  std::span<const col_t> local_cols(rank_t s) const;

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
  std::vector<std::vector<col_t>> local_cols_;        // [s] -> per nonzero
  std::vector<int> multiplicity_;                     // [i]
  IndexSet empty_;
};

} // namespace esrp
