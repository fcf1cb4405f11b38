#include "comm/dist_operator.hpp"

#include <algorithm>

namespace esrp {

DistOperator::DistOperator(const CsrMatrix& a, const Preconditioner& precond,
                           SimCluster& cluster, const ResilienceOptions& opts,
                           const SpmvPlan* shared_plan,
                           const AspmvPlan* shared_aug)
    : a_(&a),
      precond_(&precond),
      cluster_(&cluster),
      phi_(opts.phi),
      augmented_(opts.strategy == Strategy::esrp) {
  ESRP_CHECK(a.rows() == a.cols());
  ESRP_CHECK(a.rows() == cluster.partition().global_size());
  ESRP_CHECK(precond.dim() == a.rows());
  if (shared_plan != nullptr)
    ESRP_CHECK_MSG(&shared_plan->partition() == &cluster.partition(),
                   "shared SpmvPlan was built on a different partition than "
                   "the cluster's");
  if (shared_aug != nullptr)
    ESRP_CHECK_MSG(shared_plan != nullptr &&
                       &shared_aug->base() == shared_plan &&
                       shared_aug->phi() == opts.phi,
                   "shared AspmvPlan does not match the SpMV plan / phi of "
                   "this solve");
  if (augmented_ && opts.formulation == PrecondFormulation::matrix)
    ESRP_CHECK_MSG(precond.matrix_form() != nullptr,
                   "the matrix formulation requires "
                   "Preconditioner::matrix_form()");
  build(shared_plan, shared_aug);
}

void DistOperator::build(const SpmvPlan* shared_plan,
                         const AspmvPlan* shared_aug) {
  const BlockRowPartition& part = cluster_->partition();
  engine_.reset();
  owned_aug_.reset();
  owned_plan_.reset();
  plan_ = shared_plan != nullptr ? shared_plan
                                 : &owned_plan_.emplace(*a_, part);
  aug_ = nullptr;
  if (augmented_)
    aug_ = shared_aug != nullptr ? shared_aug
                                 : &owned_aug_.emplace(*plan_, phi_);
  engine_.emplace(*a_, *plan_, *cluster_);
  check_node_local(*precond_, part);
  precond_flops_.resize(static_cast<std::size_t>(part.num_nodes()));
  for (rank_t s = 0; s < part.num_nodes(); ++s)
    precond_flops_[static_cast<std::size_t>(s)] =
        precond_->apply_local_flops(part.begin(s), part.end(s));
}

void DistOperator::rebuild_on_partition(const BlockRowPartition& np) {
  cluster_->set_partition(np);
  build(nullptr, nullptr);
}

void DistOperator::apply_precond(const DistVector& in, DistVector& out) {
  for_each_range(
      [&](rank_t, rank_t, RowRange rows) {
        precond_->apply_local(rows.begin, rows.end, in.rows(rows),
                              out.rows(rows));
      },
      [&](rank_t s) { return precond_flops_[static_cast<std::size_t>(s)]; });
}

real_t DistOperator::dot(const DistVector& u, const DistVector& v) {
  const real_t total = reduce_ranks<1>(2.0, {{{u, v}}})[0];
  cluster_->allreduce(1, CommCategory::allreduce);
  return total;
}

void DistOperator::residual(std::span<const real_t> b, const DistVector& ax,
                            DistVector& r) {
  for_each_rank(1.0, [&](RowRange rows) {
    vec_sub(b.subspan(static_cast<std::size_t>(rows.begin),
                      static_cast<std::size_t>(rows.size())),
            ax.rows(rows), r.rows(rows));
  });
}

void DistOperator::reduce_dots(double flops_per_row,
                               std::span<const DotPair> dots,
                               std::span<real_t> sums) {
  constexpr std::size_t kMaxPairs = 3;
  const std::size_t width = dots.size();
  ESRP_CHECK(1 <= width && width <= kMaxPairs && sums.size() == width);
  const BlockRowPartition& part = partition();
  const std::span<const index_t> offsets = part.offsets();
  partials_.resize(static_cast<std::size_t>(part.num_nodes()) * width);
  for_each_range(
      [&](rank_t lo, rank_t hi, RowRange rows) {
        std::array<DotOperands, kMaxPairs> operands;
        for (std::size_t k = 0; k < width; ++k)
          operands[k] = {dots[k].u.rows(rows), dots[k].v.rows(rows)};
        const auto first = static_cast<std::size_t>(lo);
        const auto count = static_cast<std::size_t>(hi - lo);
        vec_dot_segments(std::span(operands).first(width),
                         offsets.subspan(first, count + 1),
                         std::span(partials_).subspan(first * width,
                                                      count * width));
      },
      [&](rank_t s) {
        return flops_per_row * static_cast<double>(part.local_size(s));
      });
  // The rank-ordered combine: ((0 + partial_0) + partial_1) + ...
  std::fill(sums.begin(), sums.end(), real_t{0});
  for (std::size_t s = 0; s < partials_.size(); s += width)
    for (std::size_t k = 0; k < width; ++k) sums[k] += partials_[s + k];
}

} // namespace esrp
