#include "comm/exchange.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "common/fnv.hpp"
#include "netsim/failure.hpp"
#include "parallel/parallel.hpp"

namespace esrp {

namespace {

/// Word-wise FNV-1a seal over one holder's values.
std::uint64_t seal(const Vector& v) {
  return fnv1a_words(v.data(), v.size() * sizeof(real_t));
}

/// seal() of every holder, four holders per pass. One FNV chain waits on its
/// multiply at every word; four independent chains overlap theirs. Each lane
/// is exactly seal() of its holder: one joint loop over the group's shortest
/// length, then fnv1a_words over the lane's own rest. Holders left after the
/// last group of four are sealed one by one.
std::vector<std::uint64_t> seal_all(const std::vector<Vector>& values) {
  constexpr std::size_t kLanes = 4;
  std::vector<std::uint64_t> sums(values.size());
  std::size_t h = 0;
  for (; h + kLanes <= values.size(); h += kLanes) {
    const Vector* v = &values[h];
    std::size_t common = v[0].size();
    for (std::size_t l = 1; l < kLanes; ++l)
      common = std::min(common, v[l].size());
    std::uint64_t acc[kLanes] = {kFnvOffset, kFnvOffset, kFnvOffset,
                                 kFnvOffset};
    for (std::size_t k = 0; k < common; ++k) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        acc[l] ^= std::bit_cast<std::uint64_t>(v[l][k]);
        acc[l] *= kFnvPrime;
      }
    }
    for (std::size_t l = 0; l < kLanes; ++l)
      sums[h + l] = fnv1a_words(v[l].data() + common,
                                (v[l].size() - common) * sizeof(real_t),
                                acc[l]);
  }
  for (; h < values.size(); ++h) sums[h] = seal(values[h]);
  return sums;
}

} // namespace

RedundantCopy::RedundantCopy(index_t tag,
                             std::shared_ptr<const HolderLayout> layout,
                             std::vector<Vector> values)
    : tag_(tag), layout_(std::move(layout)), values_(std::move(values)) {
  ESRP_CHECK(layout_ != nullptr && values_.size() == layout_->size());
  for (std::size_t h = 0; h < values_.size(); ++h)
    ESRP_CHECK(values_[h].size() == (*layout_)[h].size());
  sums_ = seal_all(values_);
}

std::optional<std::size_t> RedundantCopy::slot(rank_t h, index_t i) const {
  const auto k = static_cast<std::size_t>(h);
  if (values_[k].empty()) return std::nullopt;
  const IndexSet& held = (*layout_)[k];
  const auto it = std::lower_bound(held.begin(), held.end(), i);
  if (it == held.end() || *it != i) return std::nullopt;
  return static_cast<std::size_t>(it - held.begin());
}

bool RedundantCopy::verify(std::span<const rank_t> failed) const {
  for (std::size_t h = 0; h < values_.size(); ++h) {
    if (!rank_in(failed, static_cast<rank_t>(h)) && seal(values_[h]) != sums_[h])
      return false;
  }
  return true;
}

rank_t RedundantCopy::corrupt(index_t i, int bit) {
  ESRP_CHECK(bit >= 0 && bit < 64);
  for (rank_t h = 0; h < static_cast<rank_t>(values_.size()); ++h) {
    const auto k = slot(h, i);
    if (!k) continue;
    real_t& v = values_[static_cast<std::size_t>(h)][*k];
    v = std::bit_cast<real_t>(std::bit_cast<std::uint64_t>(v) ^
                              (std::uint64_t{1} << bit));
    return h;
  }
  return -1;
}

std::optional<std::pair<rank_t, real_t>> RedundantCopy::find_surviving(
    index_t i, std::span<const rank_t> failed) const {
  for (rank_t h = 0; h < static_cast<rank_t>(values_.size()); ++h) {
    if (rank_in(failed, h)) continue;
    if (const auto k = slot(h, i))
      return std::make_pair(h, values_[static_cast<std::size_t>(h)][*k]);
  }
  return std::nullopt;
}

std::size_t RedundantCopy::total_entries() const {
  std::size_t n = 0;
  for (const Vector& v : values_) n += v.size();
  return n;
}

void RedundantCopy::drop_holders(std::span<const rank_t> ranks) {
  for (rank_t s : ranks) {
    ESRP_CHECK(s >= 0 && s < static_cast<rank_t>(values_.size()));
    // Re-seal the emptied holder: dropping it is a legitimate mutation (the
    // node died, its copies with it), so a later verify() against a
    // different failed set must not misread it as corruption.
    values_[static_cast<std::size_t>(s)] = Vector();
    sums_[static_cast<std::size_t>(s)] = seal(Vector());
  }
}

ExchangeEngine::ExchangeEngine(const CsrMatrix& a, const SpmvPlan& plan,
                               SimCluster& cluster)
    : a_(&a), plan_(&plan), cluster_(&cluster) {
  ESRP_CHECK(&plan.partition() == &cluster.partition());
}

void ExchangeEngine::send_lists(rank_t s, const std::vector<SendList>& lists,
                                CommCategory cat) {
  for (const SendList& sl : lists)
    cluster_->send(s, sl.to, sl.indices.size() * CostParams::bytes_per_scalar,
                   cat);
}

RedundantCopy ExchangeEngine::capture(const AspmvPlan& aug,
                                      const DistVector& p, index_t tag) {
  const HolderLayout& layout = *aug.holder_layout();
  const auto all = p.all();
  std::vector<Vector> values(layout.size());
  for (std::size_t h = 0; h < layout.size(); ++h) {
    values[h].reserve(layout[h].size());
    for (index_t i : layout[h])
      values[h].push_back(all[static_cast<std::size_t>(i)]);
  }
  return RedundantCopy(tag, aug.holder_layout(), std::move(values));
}

void ExchangeEngine::local_products(const DistVector& p, DistVector& y) {
  // Each node's product writes only its own slice of y and reads p's entries
  // at its rows' columns: its own slice and the ghosts the sends just
  // charged. p does not change until the products finish, so every value
  // read is the one the halo delivers, and nodes parallelize freely. The
  // node slice is the unit of work, no nested row chunking.
  ESRP_CHECK(&p != &y);
  const BlockRowPartition& part = plan_->partition();
  const auto nodes = static_cast<index_t>(part.num_nodes());
  parallel_for(index_t{0}, nodes, adaptive_grain(nodes),
               [&](index_t lo, index_t hi) {
                 for (index_t i = lo; i < hi; ++i) {
                   const auto s = static_cast<rank_t>(i);
                   a_->spmv_rows(part.begin(s), part.end(s), p.all(),
                                 y.local(s));
                   cluster_->add_compute(
                       s, 2.0 * static_cast<double>(plan_->local_nnz(s)));
                 }
               });
}

void ExchangeEngine::spmv(const DistVector& p, DistVector& y,
                          bool complete_step) {
  for (rank_t s = 0; s < plan_->partition().num_nodes(); ++s)
    send_lists(s, plan_->sends(s), CommCategory::spmv_halo);
  local_products(p, y);
  if (complete_step) cluster_->complete_step();
}

RedundantCopy ExchangeEngine::aspmv(const AspmvPlan& aug, const DistVector& p,
                                    index_t tag, DistVector& y) {
  ESRP_CHECK(&aug.base() == plan_);
  spmv(p, y, /*complete_step=*/false);
  // Augmentation traffic: pure redundancy, never read by the local products.
  for (rank_t s = 0; s < plan_->partition().num_nodes(); ++s)
    send_lists(s, aug.extra_sends(s), CommCategory::aspmv_extra);
  cluster_->complete_step();
  return capture(aug, p, tag);
}

RedundantCopy ExchangeEngine::disseminate(const AspmvPlan& aug,
                                          const DistVector& p, index_t tag) {
  ESRP_CHECK(&aug.base() == plan_);
  // Halo lists first, then the augmentation top-up — the same coverage as an
  // aspmv() capture, but every send is a dedicated redundancy message here.
  for (rank_t s = 0; s < plan_->partition().num_nodes(); ++s) {
    send_lists(s, plan_->sends(s), CommCategory::aspmv_extra);
    send_lists(s, aug.extra_sends(s), CommCategory::aspmv_extra);
  }
  cluster_->complete_step();
  return capture(aug, p, tag);
}

} // namespace esrp
