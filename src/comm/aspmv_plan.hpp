// Augmentation plan for the ASpMV (paper §2.2.1).
//
// Goal: after one augmented SpMV, every input-vector entry must reside on at
// least phi nodes *other than its owner*, so that any simultaneous failure of
// up to phi nodes leaves at least one copy alive.
//
// Designated destinations are the phi nearest ring neighbors (paper Eq. 1):
//     d_{s,k} = (s + ceil(k/2)) mod N   if k odd
//             = (s - k/2) mod N         if k even.
//
// For each entry i of node s we traverse k = 1..phi and send i to d_{s,k}
// unless (a) the regular SpMV already sends it there, or (b) the number of
// distinct receivers reached so far (regular multiplicity m(i) plus
// augmented sends) already meets phi.
//
// NOTE on the paper's set formula: the printed condition
// `m(i) - g(i) < phi - k` leaves an entry with m(i)=g(i)=0 one copy short of
// the stated "at least phi nodes" guarantee (k = phi yields 0 < 0, false).
// We implement the greedy traversal the surrounding text describes, which
// restores the invariant and never oversends; see DESIGN.md §3.2 and the
// property tests in tests/comm/.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "comm/spmv_plan.hpp"

namespace esrp {

/// Paper Eq. 1: k-th designated destination of node s (k in 1..phi).
rank_t designated_destination(rank_t s, int k, rank_t num_nodes);

/// Strategy for choosing the designated destinations d_{s,k}. The paper
/// uses the ring neighbors of Eq. 1 and notes that placement optimization
/// "taking [sparsity pattern and topology] into consideration" is ongoing
/// work (§2.2.1); halo_affine is one such optimization: it prefers nodes
/// that already receive the most regular SpMV traffic from s, so augmented
/// entries piggyback on existing messages instead of opening new routes.
enum class AspmvPlacement { ring, halo_affine };

/// The global indices [begin, begin + length), consecutive.
struct IndexRun {
  index_t begin;
  index_t length;
};

/// Which global entries each rank holds after an ASpMV (or a disseminate):
/// its SpMV ghosts plus its augmentation receipts. Stencil ghosts and
/// receipts come in long stretches of consecutive indices, so a holder's
/// sorted set is kept as its maximal runs (no two of a holder's runs touch).
///
/// A RedundantCopy keeps its values in one buffer laid out by this layout:
/// runs() in order, that is holder after holder and each holder's runs
/// ascending, so holder h's values start at offset(h).
class HolderLayout {
public:
  /// `held[h]` is rank h's held set (strictly increasing).
  explicit HolderLayout(std::span<const IndexSet> held);

  rank_t num_holders() const {
    return static_cast<rank_t>(first_run_.size() - 1);
  }
  /// Every holder's runs, holder after holder (the order of the buffer).
  std::span<const IndexRun> runs() const { return runs_; }
  /// Holder h's runs, ascending.
  std::span<const IndexRun> runs(rank_t h) const {
    const auto k = static_cast<std::size_t>(h);
    return std::span<const IndexRun>(runs_).subspan(
        first_run_[k], first_run_[k + 1] - first_run_[k]);
  }
  /// Buffer position of holder h's first value; offset(num_holders()) is
  /// total_entries().
  std::size_t offset(rank_t h) const {
    return run_offset_[first_run_[static_cast<std::size_t>(h)]];
  }
  /// Number of entries holder h holds.
  std::size_t size(rank_t h) const { return offset(h + 1) - offset(h); }
  std::size_t total_entries() const { return run_offset_.back(); }

  /// Buffer position of entry i among holder h's values: a binary search
  /// over h's run starts. nullopt if h does not hold i. Inline because a
  /// reconstruction's gather (RedundantCopy::find_surviving) asks it for
  /// every lost entry.
  std::optional<std::size_t> slot(rank_t h, index_t i) const {
    const std::span<const IndexRun> mine = runs(h);
    // The last run starting at or before i is the only one that can hold it.
    const auto after = std::upper_bound(
        mine.begin(), mine.end(), i,
        [](index_t x, const IndexRun& run) { return x < run.begin; });
    if (after == mine.begin()) return std::nullopt;
    const IndexRun& run = *(after - 1);
    if (i >= run.begin + run.length) return std::nullopt;
    const auto r = static_cast<std::size_t>(&run - runs_.data());
    return run_offset_[r] + static_cast<std::size_t>(i - run.begin);
  }

  /// The holders of entry i, ascending; empty if nobody holds i. A binary
  /// search over the pieces the run boundaries cut the indices into.
  std::span<const rank_t> holders_of(index_t i) const {
    const auto after = std::upper_bound(cuts_.begin(), cuts_.end(), i);
    if (after == cuts_.begin() || after == cuts_.end()) return {};
    const auto g = static_cast<std::size_t>(after - cuts_.begin()) - 1;
    return std::span<const rank_t>(holders_).subspan(
        piece_holders_[g], piece_holders_[g + 1] - piece_holders_[g]);
  }

  /// Holder h's held set, expanded from its runs.
  IndexSet held(rank_t h) const;

private:
  std::vector<IndexRun> runs_;
  std::vector<std::size_t> first_run_;  ///< [h] -> h's first run; [H] = #runs
  std::vector<std::size_t> run_offset_; ///< [r] -> buffer position; [#runs] = total
  /// The inverse, piece by piece: every run's first and one-past-last index,
  /// sorted and distinct, cut the indices into pieces [cuts_[g],
  /// cuts_[g + 1]) whose entries all have the same holders:
  /// holders_[piece_holders_[g] .. piece_holders_[g + 1]), ascending.
  std::vector<index_t> cuts_;
  std::vector<std::size_t> piece_holders_;
  std::vector<rank_t> holders_;
};

class AspmvPlan {
public:
  /// Build the augmentation on top of a regular SpMV plan. `phi >= 1` is the
  /// number of simultaneous node failures to survive; phi must be < N.
  AspmvPlan(const SpmvPlan& base, int phi,
            AspmvPlacement placement = AspmvPlacement::ring);
  /// The plan keeps a reference to `base`; passing a temporary would leave
  /// it dangling.
  AspmvPlan(SpmvPlan&&, int, AspmvPlacement = AspmvPlacement::ring) = delete;

  const SpmvPlan& base() const { return *base_; }
  int phi() const { return phi_; }

  /// The designated destinations d_{s,1..phi} chosen for node s.
  const std::vector<rank_t>& destinations_of(rank_t s) const;

  /// Number of (sender, destination) routes that carry augmentation traffic
  /// but no regular SpMV traffic (new messages a real network would pay a
  /// latency for; halo_affine minimizes these).
  std::size_t new_routes() const;

  /// R^c_{s,k}-style transfer lists of node s: entries sent *in addition* to
  /// the regular SpMV traffic, grouped per designated destination.
  const std::vector<SendList>& extra_sends(rank_t s) const;

  /// All nodes holding a copy of entry i after an ASpMV (regular SpMV
  /// receivers plus augmented destinations; never includes the owner).
  /// Sorted ascending.
  std::vector<rank_t> receivers_of(index_t i) const;

  /// Total extra entries transferred per ASpMV relative to the regular SpMV.
  std::uint64_t total_extra_entries() const;

  /// Who holds which entry after an ASpMV, fixed at construction. Shared so
  /// captured copies keep it alive after the plan itself is replaced (a
  /// repartitioning recovery rebuilds the plans while older copies are
  /// still queued).
  const std::shared_ptr<const HolderLayout>& holder_layout() const {
    return layout_;
  }

private:
  const SpmvPlan* base_;
  int phi_;
  std::vector<std::vector<SendList>> extra_; // [s] -> per-destination lists
  std::vector<std::vector<rank_t>> dests_;   // [s] -> d_{s,1..phi}
  std::shared_ptr<const HolderLayout> layout_;
};

} // namespace esrp
