#include "netsim/dist_vector.hpp"

#include "common/error.hpp"

namespace esrp {

DistVector::DistVector(const BlockRowPartition& part)
    : part_(&part), data_(static_cast<std::size_t>(part.global_size()), 0) {}

DistVector::DistVector(const BlockRowPartition& part,
                       std::span<const real_t> global)
    : DistVector(part) {
  set_from_global(global);
}

std::span<real_t> DistVector::local(rank_t rank) {
  return rows(RowRange{part_->begin(rank), part_->end(rank)});
}

std::span<const real_t> DistVector::local(rank_t rank) const {
  return rows(RowRange{part_->begin(rank), part_->end(rank)});
}

std::span<real_t> DistVector::rows(RowRange range) {
  ESRP_CHECK(0 <= range.begin && range.begin <= range.end &&
             range.end <= part_->global_size());
  return std::span(data_).subspan(static_cast<std::size_t>(range.begin),
                                  static_cast<std::size_t>(range.size()));
}

std::span<const real_t> DistVector::rows(RowRange range) const {
  ESRP_CHECK(0 <= range.begin && range.begin <= range.end &&
             range.end <= part_->global_size());
  return all().subspan(static_cast<std::size_t>(range.begin),
                       static_cast<std::size_t>(range.size()));
}

void DistVector::zero_ranks(std::span<const rank_t> ranks) {
  for (rank_t s : ranks) vec_zero(local(s));
}

void DistVector::zero_all() { vec_zero(data_); }

Vector DistVector::gather_global() const { return data_; }

void DistVector::set_from_global(std::span<const real_t> global) {
  ESRP_CHECK(static_cast<index_t>(global.size()) == part_->global_size());
  vec_copy(global, data_);
}

void DistVector::copy_from(const DistVector& other) {
  ESRP_CHECK(part_->global_size() == other.part_->global_size());
  ESRP_CHECK(part_->num_nodes() == other.part_->num_nodes());
  vec_copy(other.data_, data_);
}

void DistVector::rebind(const BlockRowPartition& part) {
  ESRP_CHECK(part.global_size() == part_->global_size());
  ESRP_CHECK(part.num_nodes() == part_->num_nodes());
  part_ = &part;
}

real_t DistVector::at(index_t i) const {
  ESRP_CHECK(i >= 0 && i < part_->global_size());
  return data_[static_cast<std::size_t>(i)];
}

void DistVector::set(index_t i, real_t v) {
  ESRP_CHECK(i >= 0 && i < part_->global_size());
  data_[static_cast<std::size_t>(i)] = v;
}

} // namespace esrp
