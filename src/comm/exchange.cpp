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

} // namespace

RedundantCopy::RedundantCopy(index_t tag,
                             std::shared_ptr<const HolderLayout> layout,
                             std::vector<Vector> values)
    : tag_(tag), layout_(std::move(layout)), values_(std::move(values)) {
  ESRP_CHECK(layout_ != nullptr && values_.size() == layout_->size());
  sums_.reserve(values_.size());
  for (std::size_t h = 0; h < values_.size(); ++h) {
    ESRP_CHECK(values_[h].size() == (*layout_)[h].size());
    sums_.push_back(seal(values_[h]));
  }
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
  const BlockRowPartition& part = plan.partition();
  ESRP_CHECK(&part == &cluster.partition());
  buf_begin_.assign(1, 0);
  for (rank_t s = 0; s < part.num_nodes(); ++s)
    buf_begin_.push_back(buf_begin_.back() +
                         static_cast<std::size_t>(part.local_size(s)) +
                         plan.ghosts(s).size());
  buf_.assign(buf_begin_.back(), 0);
}

std::span<real_t> ExchangeEngine::buffer(rank_t s) {
  const auto k = static_cast<std::size_t>(s);
  return std::span(buf_).subspan(buf_begin_[k],
                                 buf_begin_[k + 1] - buf_begin_[k]);
}

void ExchangeEngine::halo_exchange(const DistVector& p) {
  // Each node's owned slice opens its own buffer; each halo list lands as
  // one run at its slot in the receiver's ghost section.
  const BlockRowPartition& part = plan_->partition();
  for (rank_t s = 0; s < part.num_nodes(); ++s) {
    const auto owned = p.local(s);
    const index_t lo = part.begin(s);
    std::copy(owned.begin(), owned.end(), buffer(s).begin());
    for (const SendList& sl : plan_->sends(s)) {
      cluster_->send(s, sl.to,
                     sl.indices.size() * CostParams::bytes_per_scalar,
                     CommCategory::spmv_halo);
      real_t* dst = buffer(sl.to).data() + sl.slot;
      for (index_t i : sl.indices)
        *dst++ = owned[static_cast<std::size_t>(i - lo)];
    }
  }
}

void ExchangeEngine::send_lists(rank_t s, const std::vector<SendList>& lists,
                                CommCategory cat) {
  for (const SendList& sl : lists)
    cluster_->send(s, sl.to, sl.indices.size() * CostParams::bytes_per_scalar,
                   cat);
}

RedundantCopy ExchangeEngine::capture(const AspmvPlan& aug,
                                      const DistVector& p, index_t tag) const {
  const BlockRowPartition& part = plan_->partition();
  const HolderLayout& layout = *aug.holder_layout();
  std::vector<Vector> values(layout.size());
  for (std::size_t h = 0; h < layout.size(); ++h) {
    values[h].resize(layout[h].size());
    // A holder's list ascends: the owner changes only between senders' runs.
    std::span<const real_t> owned;
    index_t lo = 0, hi = 0;
    for (std::size_t k = 0; k < layout[h].size(); ++k) {
      const index_t i = layout[h][k];
      if (i >= hi) {
        const rank_t s = part.owner(i);
        owned = p.local(s);
        lo = part.begin(s);
        hi = part.end(s);
      }
      values[h][k] = owned[static_cast<std::size_t>(i - lo)];
    }
  }
  return RedundantCopy(tag, aug.holder_layout(), std::move(values));
}

void ExchangeEngine::local_products(DistVector& y) {
  // Each node's product writes only its own slice of y and reads its own
  // [owned | ghosts] buffer through the plan's local columns, so nodes
  // parallelize freely (the halo exchange that filled buf_ already
  // completed). The node slice is the unit of work, no nested row chunking.
  const BlockRowPartition& part = plan_->partition();
  const auto nodes = static_cast<index_t>(part.num_nodes());
  parallel_for(index_t{0}, nodes, adaptive_grain(nodes),
               [&](index_t lo, index_t hi) {
                 for (index_t i = lo; i < hi; ++i) {
                   const auto s = static_cast<rank_t>(i);
                   a_->spmv_rows_local(part.begin(s), part.end(s),
                                       plan_->local_cols(s),
                                       buffer(s),
                                       y.local(s));
                   cluster_->add_compute(
                       s, 2.0 * static_cast<double>(plan_->local_nnz(s)));
                 }
               });
}

void ExchangeEngine::spmv(const DistVector& p, DistVector& y,
                          bool complete_step) {
  halo_exchange(p);
  local_products(y);
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
