#include "comm/spmv_plan.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace esrp {

SpmvPlan::SpmvPlan(const CsrMatrix& a, const BlockRowPartition& part)
    : part_(&part) {
  ESRP_CHECK_MSG(a.rows() == a.cols(), "SpMV plan requires a square matrix");
  ESRP_CHECK_MSG(a.rows() == part.global_size(),
                 "matrix size does not match partition");
  const auto n_nodes = static_cast<std::size_t>(part.num_nodes());
  const auto m = static_cast<std::size_t>(a.rows());
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  sends_.resize(n_nodes);
  ghosts_.resize(n_nodes);
  local_nnz_.resize(n_nodes);
  multiplicity_.assign(m, 0);

  // One pass over each receiver's nonzeros. seen[j] == l once node l has met
  // off-node column j; it is overwritten by later nodes, never cleared.
  std::vector<rank_t> seen(m, -1);
  for (rank_t l = 0; l < part.num_nodes(); ++l) {
    const auto k = static_cast<std::size_t>(l);
    const index_t lo = part.begin(l), hi = part.end(l);
    local_nnz_[k] = row_ptr[hi] - row_ptr[lo];
    IndexSet& ghosts = ghosts_[k];
    for (auto q = row_ptr[lo]; q < row_ptr[hi]; ++q) {
      const index_t j = col_idx[static_cast<std::size_t>(q)];
      if ((j < lo || j >= hi) && seen[static_cast<std::size_t>(j)] != l) {
        seen[static_cast<std::size_t>(j)] = l;
        ghosts.push_back(j);
      }
    }
    std::sort(ghosts.begin(), ghosts.end());
    for (index_t j : ghosts) ++multiplicity_[static_cast<std::size_t>(j)];
    // Owners hold contiguous ranges, so each sender's share of the sorted
    // ghosts is one run; receivers ascend, so sends_[s] stays ordered by `to`.
    for (auto run = ghosts.begin(); run != ghosts.end();) {
      const rank_t s = part.owner(*run);
      const auto run_end = std::lower_bound(run, ghosts.end(), part.end(s));
      sends_[static_cast<std::size_t>(s)].push_back(
          SendList{l, IndexSet(run, run_end)});
      run = run_end;
    }
  }
}

const std::vector<SendList>& SpmvPlan::sends(rank_t s) const {
  ESRP_CHECK(s >= 0 && s < part_->num_nodes());
  return sends_[static_cast<std::size_t>(s)];
}

const IndexSet& SpmvPlan::send_set(rank_t s, rank_t l) const {
  for (const SendList& sl : sends(s))
    if (sl.to == l) return sl.indices;
  return empty_;
}

const IndexSet& SpmvPlan::ghosts(rank_t l) const {
  ESRP_CHECK(l >= 0 && l < part_->num_nodes());
  return ghosts_[static_cast<std::size_t>(l)];
}

int SpmvPlan::multiplicity(index_t i) const {
  ESRP_CHECK(i >= 0 && i < part_->global_size());
  return multiplicity_[static_cast<std::size_t>(i)];
}

index_t SpmvPlan::local_nnz(rank_t s) const {
  ESRP_CHECK(s >= 0 && s < part_->num_nodes());
  return local_nnz_[static_cast<std::size_t>(s)];
}

std::uint64_t SpmvPlan::total_entries_sent() const {
  std::uint64_t total = 0;
  for (const auto& lists : sends_)
    for (const SendList& sl : lists) total += sl.indices.size();
  return total;
}

bool SpmvPlan::provides_full_redundancy() const {
  return std::all_of(multiplicity_.begin(), multiplicity_.end(),
                     [](int v) { return v >= 1; });
}

} // namespace esrp
