#include "comm/aspmv_plan.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace esrp {

rank_t designated_destination(rank_t s, int k, rank_t num_nodes) {
  ESRP_CHECK(num_nodes > 0);
  ESRP_CHECK(k >= 1);
  const auto n = static_cast<index_t>(num_nodes);
  index_t d;
  if (k % 2 == 1) {
    d = (static_cast<index_t>(s) + (k + 1) / 2) % n;
  } else {
    d = (static_cast<index_t>(s) - k / 2 % n + n) % n;
  }
  return static_cast<rank_t>(d);
}

namespace {

/// halo_affine destination choice: nodes already receiving the most regular
/// traffic from s first (piggyback), ring order as the tie-break/filler.
std::vector<rank_t> halo_affine_destinations(const SpmvPlan& base, rank_t s,
                                             int phi, rank_t n_nodes) {
  std::vector<rank_t> dests;
  dests.reserve(static_cast<std::size_t>(phi));
  // Regular receivers sorted by descending traffic volume.
  std::vector<std::pair<std::size_t, rank_t>> by_volume;
  by_volume.reserve(base.sends(s).size());
  for (const SendList& sl : base.sends(s))
    by_volume.emplace_back(sl.indices.size(), sl.to);
  std::sort(by_volume.begin(), by_volume.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (const auto& [volume, to] : by_volume) {
    if (static_cast<int>(dests.size()) == phi) break;
    dests.push_back(to);
  }
  // Fill up with ring neighbors not already chosen.
  for (int k = 1; static_cast<int>(dests.size()) < phi; ++k) {
    const rank_t d = designated_destination(s, k, n_nodes);
    if (std::find(dests.begin(), dests.end(), d) == dests.end())
      dests.push_back(d);
  }
  return dests;
}

} // namespace

AspmvPlan::AspmvPlan(const SpmvPlan& base, int phi, AspmvPlacement placement)
    : base_(&base), phi_(phi) {
  const BlockRowPartition& part = base.partition();
  const rank_t n_nodes = part.num_nodes();
  ESRP_CHECK_MSG(phi >= 1, "phi must be at least 1");
  ESRP_CHECK_MSG(phi < n_nodes,
                 "phi (" << phi << ") must be smaller than the node count ("
                         << n_nodes << ")");

  extra_.assign(static_cast<std::size_t>(n_nodes), {});
  dests_.assign(static_cast<std::size_t>(n_nodes), {});
  for (rank_t s = 0; s < n_nodes; ++s) {
    // Per-destination accumulation for this sender.
    std::vector<IndexSet> to_dest(static_cast<std::size_t>(phi));
    std::vector<rank_t>& dests = dests_[static_cast<std::size_t>(s)];
    if (placement == AspmvPlacement::ring) {
      dests.resize(static_cast<std::size_t>(phi));
      for (int k = 1; k <= phi; ++k) {
        dests[static_cast<std::size_t>(k - 1)] =
            designated_destination(s, k, n_nodes);
      }
    } else {
      dests = halo_affine_destinations(base, s, phi, n_nodes);
    }
    // The designated destinations d_{s,1..phi} are pairwise distinct and
    // never the owner itself.
    for (int k = 0; k < phi; ++k) ESRP_CHECK(dests[static_cast<std::size_t>(k)] != s);

    for (index_t i = part.begin(s); i < part.end(s); ++i) {
      int reached = base.multiplicity(i); // distinct regular receivers
      if (reached >= phi) continue;
      for (int k = 1; k <= phi && reached < phi; ++k) {
        const rank_t d = dests[static_cast<std::size_t>(k - 1)];
        if (set_contains(base.send_set(s, d), i)) continue; // already regular
        to_dest[static_cast<std::size_t>(k - 1)].push_back(i);
        ++reached;
      }
      ESRP_CHECK_MSG(reached >= phi,
                     "entry " << i << " cannot reach " << phi
                              << " receivers — designated destinations "
                                 "exhausted (phi too close to N?)");
    }

    for (int k = 0; k < phi; ++k) {
      if (to_dest[static_cast<std::size_t>(k)].empty()) continue;
      extra_[static_cast<std::size_t>(s)].push_back(
          SendList{dests[static_cast<std::size_t>(k)],
                   std::move(to_dest[static_cast<std::size_t>(k)])});
    }
  }

  // Holder layout: each rank's SpMV ghosts plus its augmentation receipts.
  // Senders ascend over ascending ranges, so the concatenated receipts stay
  // sorted; they must be disjoint from the ghosts (one receipt per entry).
  std::vector<IndexSet> receipts(static_cast<std::size_t>(n_nodes));
  for (const auto& lists : extra_) {
    for (const SendList& sl : lists) {
      IndexSet& r = receipts[static_cast<std::size_t>(sl.to)];
      r.insert(r.end(), sl.indices.begin(), sl.indices.end());
    }
  }
  std::vector<IndexSet> held(static_cast<std::size_t>(n_nodes));
  for (rank_t h = 0; h < n_nodes; ++h) {
    const IndexSet& ghosts = base.ghosts(h);
    const IndexSet& extra = receipts[static_cast<std::size_t>(h)];
    IndexSet& set = held[static_cast<std::size_t>(h)];
    set = set_union(ghosts, extra);
    ESRP_CHECK_MSG(set.size() == ghosts.size() + extra.size(),
                   "regular and augmented receipts of rank " << h << " overlap");
  }
  layout_ = std::make_shared<const HolderLayout>(held);
}

HolderLayout::HolderLayout(std::span<const IndexSet> held) {
  first_run_.reserve(held.size() + 1);
  std::size_t total = 0;
  for (const IndexSet& set : held) {
    // Non-negative: the holder index below numbers entries from 0.
    ESRP_CHECK(is_index_set(set) && (set.empty() || set.front() >= 0));
    first_run_.push_back(runs_.size());
    for (std::size_t k = 0; k < set.size(); ++k, ++total) {
      if (k > 0 && set[k] == set[k - 1] + 1) {
        ++runs_.back().length;
        continue;
      }
      runs_.push_back(IndexRun{set[k], 1});
      run_offset_.push_back(total);
    }
  }
  first_run_.push_back(runs_.size());
  run_offset_.push_back(total);

  // Mark every run's first and one-past-last index as a cut, then number
  // the pieces in one pass: rank[i] counts the cuts at or before i, so a
  // run covers pieces [rank[begin] - 1, rank[end] - 1). Count every
  // piece's holders, then fill holder after holder, so every piece's
  // holders come out ascending.
  index_t extent = 0;
  for (const IndexRun& run : runs_)
    extent = std::max(extent, run.begin + run.length);
  std::vector<std::size_t> rank(static_cast<std::size_t>(extent) + 1, 0);
  for (const IndexRun& run : runs_) {
    rank[static_cast<std::size_t>(run.begin)] = 1;
    rank[static_cast<std::size_t>(run.begin + run.length)] = 1;
  }
  for (index_t i = 0; i <= extent; ++i) {
    std::size_t& r = rank[static_cast<std::size_t>(i)];
    if (r != 0) cuts_.push_back(i);
    r = cuts_.size();
  }
  const auto pieces_of = [&](const IndexRun& run) {
    return std::pair(rank[static_cast<std::size_t>(run.begin)] - 1,
                     rank[static_cast<std::size_t>(run.begin + run.length)] - 1);
  };
  piece_holders_.assign(cuts_.size() + 1, 0);
  for (const IndexRun& run : runs_) {
    const auto [first, last] = pieces_of(run);
    for (std::size_t g = first; g < last; ++g) ++piece_holders_[g + 1];
  }
  for (std::size_t g = 1; g < piece_holders_.size(); ++g)
    piece_holders_[g] += piece_holders_[g - 1];
  holders_.resize(piece_holders_.back());
  std::vector<std::size_t> next(piece_holders_.begin(),
                                piece_holders_.end() - 1);
  for (rank_t h = 0; h < num_holders(); ++h)
    for (const IndexRun& run : runs(h)) {
      const auto [first, last] = pieces_of(run);
      for (std::size_t g = first; g < last; ++g) holders_[next[g]++] = h;
    }
}

IndexSet HolderLayout::held(rank_t h) const {
  IndexSet out;
  out.reserve(size(h));
  for (const IndexRun& run : runs(h))
    for (index_t i = run.begin; i < run.begin + run.length; ++i)
      out.push_back(i);
  return out;
}

const std::vector<SendList>& AspmvPlan::extra_sends(rank_t s) const {
  ESRP_CHECK(s >= 0 && s < base_->partition().num_nodes());
  return extra_[static_cast<std::size_t>(s)];
}

const std::vector<rank_t>& AspmvPlan::destinations_of(rank_t s) const {
  ESRP_CHECK(s >= 0 && s < base_->partition().num_nodes());
  return dests_[static_cast<std::size_t>(s)];
}

std::size_t AspmvPlan::new_routes() const {
  std::size_t routes = 0;
  const rank_t n_nodes = base_->partition().num_nodes();
  for (rank_t s = 0; s < n_nodes; ++s) {
    for (const SendList& sl : extra_sends(s)) {
      if (base_->send_set(s, sl.to).empty()) ++routes;
    }
  }
  return routes;
}

std::vector<rank_t> AspmvPlan::receivers_of(index_t i) const {
  const BlockRowPartition& part = base_->partition();
  const rank_t s = part.owner(i);
  std::vector<rank_t> out;
  for (const SendList& sl : base_->sends(s))
    if (set_contains(sl.indices, i)) out.push_back(sl.to);
  for (const SendList& sl : extra_sends(s))
    if (set_contains(sl.indices, i)) out.push_back(sl.to);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::uint64_t AspmvPlan::total_extra_entries() const {
  std::uint64_t total = 0;
  for (const auto& lists : extra_)
    for (const SendList& sl : lists) total += sl.indices.size();
  return total;
}

} // namespace esrp
