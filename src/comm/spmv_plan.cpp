#include "comm/spmv_plan.hpp"

#include <algorithm>
#include <limits>

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
  local_cols_.resize(n_nodes);
  multiplicity_.assign(m, 0);

  // One pass over each receiver's nonzeros. seen[j] == l once node l has met
  // off-node column j, and slot[j] is then j's local column on l; both are
  // overwritten by later nodes, never cleared.
  std::vector<rank_t> seen(m, -1);
  std::vector<col_t> slot(m, -1);
  for (rank_t l = 0; l < part.num_nodes(); ++l) {
    const auto k = static_cast<std::size_t>(l);
    const index_t lo = part.begin(l), hi = part.end(l);
    const auto nz_lo = static_cast<std::size_t>(row_ptr[lo]);
    const auto nz_hi = static_cast<std::size_t>(row_ptr[hi]);
    IndexSet& ghosts = ghosts_[k];
    for (std::size_t q = nz_lo; q < nz_hi; ++q) {
      const index_t j = col_idx[q];
      if ((j < lo || j >= hi) && seen[static_cast<std::size_t>(j)] != l) {
        seen[static_cast<std::size_t>(j)] = l;
        ghosts.push_back(j);
      }
    }
    std::sort(ghosts.begin(), ghosts.end());
    const index_t owned = hi - lo;
    ESRP_CHECK_MSG(
        static_cast<std::uint64_t>(owned) + ghosts.size() <=
            static_cast<std::uint64_t>(std::numeric_limits<col_t>::max()),
        "rank " << l << " needs " << owned << " owned + " << ghosts.size()
                << " ghost entries, beyond the 32-bit local numbering");
    for (std::size_t g = 0; g < ghosts.size(); ++g) {
      const auto j = static_cast<std::size_t>(ghosts[g]);
      slot[j] = static_cast<col_t>(owned + static_cast<index_t>(g));
      ++multiplicity_[j];
    }
    // Owners hold contiguous ranges, so each sender's share of the sorted
    // ghosts is one run; receivers ascend, so sends_[s] stays ordered by `to`.
    for (auto run = ghosts.begin(); run != ghosts.end();) {
      const rank_t s = part.owner(*run);
      const auto run_end = std::lower_bound(run, ghosts.end(), part.end(s));
      sends_[static_cast<std::size_t>(s)].push_back(SendList{
          l, IndexSet(run, run_end), slot[static_cast<std::size_t>(*run)]});
      run = run_end;
    }
    std::vector<col_t>& cols = local_cols_[k];
    cols.resize(nz_hi - nz_lo);
    for (std::size_t q = nz_lo; q < nz_hi; ++q) {
      const index_t j = col_idx[q];
      cols[q - nz_lo] = j >= lo && j < hi
                            ? static_cast<col_t>(j - lo)
                            : slot[static_cast<std::size_t>(j)];
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

std::span<const col_t> SpmvPlan::local_cols(rank_t s) const {
  ESRP_CHECK(s >= 0 && s < part_->num_nodes());
  return local_cols_[static_cast<std::size_t>(s)];
}

index_t SpmvPlan::local_nnz(rank_t s) const {
  return static_cast<index_t>(local_cols(s).size());
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
