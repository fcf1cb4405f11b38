// A distributed vector: each simulated node owns the slice of entries given
// by the block-row partition. The slices sit back to back, in global order,
// in one allocation, so slice s starts at global offset begin(s).
//
// Algorithms may only touch a node's slice via `local()`. The global
// accessors exist for initialization, tests, and diagnostics (a real cluster
// could not call them). One read-only exception: the exchange engine
// (comm/exchange.hpp) reads halo entries in place through `all()` instead of
// copying them into per-node buffers. That is exact because node l's rows
// only reference columns in owned(l) ∪ ghosts(l) (comm/spmv_plan.hpp), and
// the engine charges every ghost's message before it reads: every value l
// reads is one its own slice holds or the halo delivers.
#pragma once

#include <span>

#include "common/types.hpp"
#include "common/vec.hpp"
#include "partition/partition.hpp"

namespace esrp {

class DistVector {
public:
  explicit DistVector(const BlockRowPartition& part);
  DistVector(const BlockRowPartition& part, std::span<const real_t> global);

  const BlockRowPartition& partition() const { return *part_; }
  index_t global_size() const { return part_->global_size(); }

  /// Node-local slice (mutable / const).
  std::span<real_t> local(rank_t rank);
  std::span<const real_t> local(rank_t rank) const;

  /// Every slice, back to back: entry i is global entry i. Read-only; only
  /// the exchange engine reads other nodes' entries through it (see the
  /// file comment).
  std::span<const real_t> all() const { return data_; }

  /// Zero the slices of the given ranks — the data loss of a node failure.
  void zero_ranks(std::span<const rank_t> ranks);

  /// Zero all entries.
  void zero_all();

  /// Assemble the full vector (diagnostic/test use only).
  Vector gather_global() const;

  /// Scatter a full vector into the local slices.
  void set_from_global(std::span<const real_t> global);

  /// Copy all slices from another DistVector on the same partition.
  void copy_from(const DistVector& other);

  /// Entry access by global index (diagnostic/test use only).
  real_t at(index_t i) const;
  void set(index_t i, real_t v);

private:
  const BlockRowPartition* part_;
  Vector data_; ///< all slices, in global order
};

} // namespace esrp
