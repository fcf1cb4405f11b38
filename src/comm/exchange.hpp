// Execution of the distributed (A)SpMV over the simulated cluster, including
// the capture of redundant copies (paper §2.2.2).
//
// A RedundantCopy is the abstract p' of the paper: the entries of one search
// direction that live on nodes *other than their owner* after an ASpMV —
// the halo entries of the regular SpMV plus the augmentation traffic that
// gives every entry at least phi off-owner copies. Which rank holds which
// entry is static plan data (AspmvPlan::holder_layout(), runs of consecutive
// indices); a copy stores only the values over that layout, in one buffer.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "comm/aspmv_plan.hpp"
#include "comm/spmv_plan.hpp"
#include "netsim/cluster.hpp"
#include "netsim/dist_vector.hpp"
#include "sparse/csr.hpp"

namespace esrp {

/// Off-owner copies of one search-direction vector: per holder, the values
/// of the entries the holder layout assigns it, sealed on construction.
class RedundantCopy {
public:
  /// `values` holds every holder's values in the layout's buffer order:
  /// holder h's entries, ascending, at [layout->offset(h), offset(h + 1)).
  /// Each holder's subspan is sealed with a word-wise FNV-1a checksum
  /// (common/fnv.hpp).
  RedundantCopy(index_t tag, std::shared_ptr<const HolderLayout> layout,
                Vector values);

  index_t tag() const { return tag_; }
  bool valid() const { return tag_ >= 0; }

  /// Give up the value buffer, so a later capture can fill it instead of
  /// allocating one (see RedundancyQueue::push).
  Vector release() && { return std::move(values_); }

  /// The per-holder seals taken at construction.
  std::span<const std::uint64_t> seals() const { return sums_; }

  /// Recompute every surviving holder's checksum and compare against the
  /// seal taken at construction. True iff all match — a mismatch means the
  /// stored values changed since the exchange (silent corruption of the
  /// redundant state), so this copy must not feed a reconstruction.
  bool verify(std::span<const rank_t> failed) const;

  /// Fault injection: flip `bit` of the stored value of global entry `i` on
  /// its lowest-ranked holder WITHOUT refreshing the checksum seal — the
  /// corruption verify() must later detect. Returns the holder rank, or -1
  /// if no holder stores entry `i`.
  rank_t corrupt(index_t i, int bit);

  /// Value of entry i on the lowest-ranked holder not in `failed`
  /// (deterministic choice of the sending survivor). nullopt if no copy
  /// survived — with a correct plan this means more than phi nodes failed.
  std::optional<std::pair<rank_t, real_t>> find_surviving(
      index_t i, std::span<const rank_t> failed) const;

  /// Number of (holder, entry) pairs stored (diagnostics).
  std::size_t total_entries() const;

  /// Discard everything held by the given ranks — the copies a node failure
  /// destroys along with the node.
  void drop_holders(std::span<const rank_t> ranks);

private:
  /// Buffer position of entry `i` among holder `h`'s values; nullopt if `h`
  /// does not hold it or was dropped.
  std::optional<std::size_t> slot(rank_t h, index_t i) const;

  index_t tag_ = -1;
  std::shared_ptr<const HolderLayout> layout_;
  Vector values_; ///< every holder's values, in the layout's buffer order
  /// Per-holder word-wise FNV-1a seals over the values. Per holder (not
  /// whole-copy) because drop_holders() legitimately discards individual
  /// holders' values after a failure — the surviving holders' seals must
  /// stay comparable.
  std::vector<std::uint64_t> sums_;
  std::vector<char> dropped_; ///< [h] -> 1 once drop_holders() discarded h
};

/// Drives halo exchanges and local products for one matrix on one cluster.
/// The exchange is charged from message tables priced once from the plans'
/// send lists (SimCluster::replay); the products then read the halo entries
/// in place from their owners' slices (the read-only exception of
/// netsim/dist_vector.hpp), so the engine holds no value buffers.
class ExchangeEngine {
public:
  ExchangeEngine(const CsrMatrix& a, const SpmvPlan& plan, SimCluster& cluster);

  /// y := A p using the regular SpMV; p and y must be distinct vectors.
  /// Charges halo messages and local compute, then completes the superstep.
  /// Pass `complete_step = false` to leave the superstep open so the caller
  /// can overlap further work with it (e.g. the pipelined solver's
  /// non-blocking allreduce).
  void spmv(const DistVector& p, DistVector& y, bool complete_step = true);

  /// y := A p using the augmented SpMV: the regular SpMV plus the
  /// augmentation sends of `aug`; the off-owner copies `aug` places are
  /// returned as a RedundantCopy tagged `tag`. The copy's values are written
  /// into `buffer` (any size; typically the one RedundancyQueue::push handed
  /// back), which allocates nothing once its capacity suffices.
  RedundantCopy aspmv(const AspmvPlan& aug, const DistVector& p, index_t tag,
                      DistVector& y, Vector buffer = {});

  /// Disseminate redundant off-owner copies of `p` per the plan WITHOUT
  /// computing a product — the pipelined solver's ESR storage stage, where
  /// the iteration's SpMV input is m = P w rather than the search direction
  /// the reconstruction needs (ref. [16]). Returns the same copy an aspmv()
  /// of `p` would, but charges the regular halo lists and the augmentation
  /// lists all as aspmv_extra: on a real cluster this is pure redundancy
  /// traffic that cannot piggyback on an existing exchange of p. Completes
  /// the superstep. `buffer` is reused as in aspmv().
  RedundantCopy disseminate(const AspmvPlan& aug, const DistVector& p,
                            index_t tag, Vector buffer = {});

private:
  /// The message tables of one augmentation plan.
  struct AugTables {
    /// The plan's holder layout: it identifies the plan (copies of a plan
    /// share it), and holding it keeps a later plan from reusing its address.
    std::shared_ptr<const HolderLayout> layout;
    MessageTable extra;       ///< aspmv: every rank's augmentation lists
    MessageTable disseminate; ///< rank by rank: halo lists, then augmentation
  };

  /// Every node's rows of y := A p, read straight from p's slices.
  void local_products(const DistVector& p, DistVector& y);
  /// Price node s's transfer lists into `table` as messages of category
  /// `cat`, in list order.
  void price_lists(MessageTable& table, rank_t s,
                   const std::vector<SendList>& lists, CommCategory cat) const;
  /// `aug`'s tables, priced on its first use after another plan's.
  const AugTables& aug_tables(const AspmvPlan& aug);
  /// The values `aug`'s holder layout places, copied run by run from p's
  /// slices into `buffer`: ghosts and augmentation receipts alike.
  RedundantCopy capture(const AspmvPlan& aug, const DistVector& p,
                        index_t tag, Vector buffer);

  const CsrMatrix* a_;
  const SpmvPlan* plan_;
  SimCluster* cluster_;
  MessageTable halo_; ///< spmv: every rank's halo lists, rank by rank
  AugTables aug_;
};

} // namespace esrp
