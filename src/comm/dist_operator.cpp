#include "comm/dist_operator.hpp"

#include "common/vec.hpp"

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
}

void DistOperator::rebuild_on_partition(const BlockRowPartition& np) {
  cluster_->set_partition(np);
  build(nullptr, nullptr);
}

void DistOperator::apply_precond(const DistVector& in, DistVector& out) {
  const BlockRowPartition& part = partition();
  const auto nodes = static_cast<index_t>(part.num_nodes());
  const auto p_ptr = precond_->action_matrix()->row_ptr();
  parallel_for(index_t{0}, nodes, adaptive_grain(nodes),
               [&](index_t lo, index_t hi) {
                 for (index_t i = lo; i < hi; ++i) {
                   const auto s = static_cast<rank_t>(i);
                   const index_t begin = part.begin(s), end = part.end(s);
                   precond_->apply_local(begin, end, in.local(s),
                                         out.local(s));
                   cluster_->add_compute(
                       s, static_cast<double>(2 * (p_ptr[end] - p_ptr[begin])));
                 }
               });
}

real_t DistOperator::dot(const DistVector& u, const DistVector& v) {
  const real_t total = reduce_ranks<1>(2.0, [&](rank_t s, auto& acc) {
    acc[0] += vec_dot(u.local(s), v.local(s));
  })[0];
  cluster_->allreduce(1, CommCategory::allreduce);
  return total;
}

} // namespace esrp
