// A distributed vector: each simulated node owns the slice of entries given
// by the block-row partition. The slices sit back to back, in global order,
// in one allocation, so slice s starts at global offset begin(s).
//
// Algorithms may only touch a node's slice via `local()`, or the slices of
// consecutive nodes via `rows()` (one kernel call for a task of a rank
// loop, comm/dist_operator.hpp). The global accessors exist for
// initialization, tests, and diagnostics (a real cluster could not call
// them). Two read-only exceptions read other nodes' entries in place
// through `all()` instead of copying them into per-node buffers:
//   - the exchange engine (comm/exchange.hpp) reads halo entries. That is
//     exact because node l's rows only reference columns in
//     owned(l) ∪ ghosts(l) (comm/spmv_plan.hpp), and the engine charges
//     every ghost's message: every value l reads is one its own slice holds
//     or the halo delivers;
//   - the reconstruction (core/reconstruction.hpp, reconstruct_row_product)
//     reads survivor entries of a star vector. That is exact because a
//     replacement reads only survivor entries whose gather it has charged,
//     never an entry of the failed slices.
#pragma once

#include <span>

#include "common/types.hpp"
#include "common/vec.hpp"
#include "partition/partition.hpp"

namespace esrp {

/// Global rows [begin, end). The rows of consecutive ranks form one such
/// range, since their slices sit back to back.
struct RowRange {
  index_t begin = 0;
  index_t end = 0;
  index_t size() const { return end - begin; }
};

class DistVector {
public:
  explicit DistVector(const BlockRowPartition& part);
  DistVector(const BlockRowPartition& part, std::span<const real_t> global);

  const BlockRowPartition& partition() const { return *part_; }
  index_t global_size() const { return part_->global_size(); }

  /// Node-local slice (mutable / const).
  std::span<real_t> local(rank_t rank);
  std::span<const real_t> local(rank_t rank) const;

  /// The slices of the consecutive ranks that own `range`, back to back
  /// (mutable / const): what one task of a rank loop touches in one call.
  std::span<real_t> rows(RowRange range);
  std::span<const real_t> rows(RowRange range) const;

  /// Every slice, back to back: entry i is global entry i. Read-only; only
  /// the exchange engine and the reconstruction read other nodes' entries
  /// through it (see the file comment).
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

  /// Re-point the vector at `part`, which must have the same global size
  /// and node count (it throws otherwise). The entries stay where they are:
  /// slices sit in global order, so a repartition moves no data, only the
  /// slice boundaries.
  void rebind(const BlockRowPartition& part);

  /// Entry access by global index (diagnostic/test use only).
  real_t at(index_t i) const;
  void set(index_t i, real_t v);

private:
  const BlockRowPartition* part_;
  Vector data_; ///< all slices, in global order
};

} // namespace esrp
