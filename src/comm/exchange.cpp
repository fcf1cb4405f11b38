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
std::uint64_t seal(std::span<const real_t> v) {
  return fnv1a_words(v.data(), v.size() * sizeof(real_t));
}

/// Holder h's subspan of a copy's buffer.
std::span<const real_t> holder_values(const HolderLayout& layout,
                                      std::span<const real_t> values,
                                      rank_t h) {
  return values.subspan(layout.offset(h), layout.size(h));
}

/// seal() of every holder, four holders per pass. One FNV chain waits on its
/// multiply at every word; four independent chains overlap theirs. Each lane
/// is exactly seal() of its holder: one joint loop over the group's shortest
/// length, then fnv1a_words over the lane's own rest. Holders left after the
/// last group of four are sealed one by one.
std::vector<std::uint64_t> seal_all(const HolderLayout& layout,
                                    std::span<const real_t> values) {
  constexpr rank_t kLanes = 4;
  const rank_t holders = layout.num_holders();
  std::vector<std::uint64_t> sums(static_cast<std::size_t>(holders));
  rank_t h = 0;
  for (; h + kLanes <= holders; h += kLanes) {
    std::span<const real_t> v[kLanes];
    for (rank_t l = 0; l < kLanes; ++l)
      v[l] = holder_values(layout, values, h + l);
    std::size_t common = v[0].size();
    for (rank_t l = 1; l < kLanes; ++l) common = std::min(common, v[l].size());
    std::uint64_t acc[kLanes] = {kFnvOffset, kFnvOffset, kFnvOffset,
                                 kFnvOffset};
    for (std::size_t k = 0; k < common; ++k) {
      for (rank_t l = 0; l < kLanes; ++l) {
        acc[l] ^= std::bit_cast<std::uint64_t>(v[l][k]);
        acc[l] *= kFnvPrime;
      }
    }
    for (rank_t l = 0; l < kLanes; ++l)
      sums[static_cast<std::size_t>(h + l)] =
          fnv1a_words(v[l].data() + common,
                      (v[l].size() - common) * sizeof(real_t), acc[l]);
  }
  for (; h < holders; ++h)
    sums[static_cast<std::size_t>(h)] = seal(holder_values(layout, values, h));
  return sums;
}

} // namespace

RedundantCopy::RedundantCopy(index_t tag,
                             std::shared_ptr<const HolderLayout> layout,
                             Vector values)
    : tag_(tag), layout_(std::move(layout)), values_(std::move(values)) {
  ESRP_CHECK(layout_ != nullptr &&
             values_.size() == layout_->total_entries());
  sums_ = seal_all(*layout_, values_);
  dropped_.assign(static_cast<std::size_t>(layout_->num_holders()), 0);
}

std::optional<std::size_t> RedundantCopy::slot(rank_t h, index_t i) const {
  if (dropped_[static_cast<std::size_t>(h)]) return std::nullopt;
  return layout_->slot(h, i);
}

bool RedundantCopy::verify(std::span<const rank_t> failed) const {
  for (rank_t h = 0; h < layout_->num_holders(); ++h) {
    if (rank_in(failed, h) || dropped_[static_cast<std::size_t>(h)]) continue;
    if (seal(holder_values(*layout_, values_, h)) !=
        sums_[static_cast<std::size_t>(h)])
      return false;
  }
  return true;
}

rank_t RedundantCopy::corrupt(index_t i, int bit) {
  ESRP_CHECK(bit >= 0 && bit < 64);
  for (rank_t h : layout_->holders_of(i)) {
    const auto k = slot(h, i);
    if (!k) continue;
    real_t& v = values_[*k];
    v = std::bit_cast<real_t>(std::bit_cast<std::uint64_t>(v) ^
                              (std::uint64_t{1} << bit));
    return h;
  }
  return -1;
}

std::optional<std::pair<rank_t, real_t>> RedundantCopy::find_surviving(
    index_t i, std::span<const rank_t> failed) const {
  for (rank_t h : layout_->holders_of(i)) {
    if (rank_in(failed, h)) continue;
    if (const auto k = slot(h, i)) return std::make_pair(h, values_[*k]);
  }
  return std::nullopt;
}

std::size_t RedundantCopy::total_entries() const {
  std::size_t n = 0;
  for (rank_t h = 0; h < layout_->num_holders(); ++h)
    if (!dropped_[static_cast<std::size_t>(h)]) n += layout_->size(h);
  return n;
}

void RedundantCopy::drop_holders(std::span<const rank_t> ranks) {
  for (rank_t s : ranks) {
    ESRP_CHECK(s >= 0 && s < layout_->num_holders());
    // Dropping is a legitimate mutation (the node died, its copies with
    // it): the holder's values become unreachable and verify() skips its
    // seal, so a later verify() against a different failed set does not
    // misread it as corruption.
    dropped_[static_cast<std::size_t>(s)] = 1;
  }
}

ExchangeEngine::ExchangeEngine(const CsrMatrix& a, const SpmvPlan& plan,
                               SimCluster& cluster)
    : a_(&a), plan_(&plan), cluster_(&cluster) {
  ESRP_CHECK(&plan.partition() == &cluster.partition());
  for (rank_t s = 0; s < plan.partition().num_nodes(); ++s)
    price_lists(halo_, s, plan.sends(s), CommCategory::spmv_halo);
}

void ExchangeEngine::price_lists(MessageTable& table, rank_t s,
                                 const std::vector<SendList>& lists,
                                 CommCategory cat) const {
  for (const SendList& sl : lists)
    cluster_->price(table, s, sl.to,
                    sl.indices.size() * CostParams::bytes_per_scalar, cat);
}

const ExchangeEngine::AugTables& ExchangeEngine::aug_tables(
    const AspmvPlan& aug) {
  ESRP_CHECK(&aug.base() == plan_);
  if (aug_.layout == aug.holder_layout()) return aug_;
  aug_ = AugTables{aug.holder_layout(), {}, {}};
  for (rank_t s = 0; s < plan_->partition().num_nodes(); ++s) {
    price_lists(aug_.extra, s, aug.extra_sends(s), CommCategory::aspmv_extra);
    // Halo lists first, then the augmentation top-up: the same coverage as
    // an aspmv() capture, but every send is a dedicated redundancy message.
    price_lists(aug_.disseminate, s, plan_->sends(s),
                CommCategory::aspmv_extra);
    price_lists(aug_.disseminate, s, aug.extra_sends(s),
                CommCategory::aspmv_extra);
  }
  return aug_;
}

RedundantCopy ExchangeEngine::capture(const AspmvPlan& aug,
                                      const DistVector& p, index_t tag,
                                      Vector buffer) {
  // One copy per run, appended in the layout's buffer order. A reused
  // buffer keeps its capacity across clear(), so a steady-state storage
  // stage allocates nothing.
  const HolderLayout& layout = *aug.holder_layout();
  const auto all = p.all();
  buffer.clear();
  buffer.reserve(layout.total_entries());
  for (const IndexRun& run : layout.runs()) {
    const auto first = all.begin() + run.begin;
    buffer.insert(buffer.end(), first, first + run.length);
  }
  return RedundantCopy(tag, aug.holder_layout(), std::move(buffer));
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
  cluster_->replay(halo_);
  local_products(p, y);
  if (complete_step) cluster_->complete_step();
}

RedundantCopy ExchangeEngine::aspmv(const AspmvPlan& aug, const DistVector& p,
                                    index_t tag, DistVector& y,
                                    Vector buffer) {
  const AugTables& tables = aug_tables(aug);
  spmv(p, y, /*complete_step=*/false);
  // Augmentation traffic: pure redundancy, never read by the local products.
  cluster_->replay(tables.extra);
  cluster_->complete_step();
  return capture(aug, p, tag, std::move(buffer));
}

RedundantCopy ExchangeEngine::disseminate(const AspmvPlan& aug,
                                          const DistVector& p, index_t tag,
                                          Vector buffer) {
  cluster_->replay(aug_tables(aug).disseminate);
  cluster_->complete_step();
  return capture(aug, p, tag, std::move(buffer));
}

} // namespace esrp
