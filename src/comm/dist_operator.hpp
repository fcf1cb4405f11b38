// The distributed operator both distributed solvers run: the block-row SpMV
// with its halo plan, the augmented plan that routes ESRP's redundant copies
// (paper §2.2.2), the node-local preconditioner, and the rank loops that
// charge their work to the cluster model.
//
// ResilientPcg (Alg. 3) and DistPipelinedPcg (ref. [16]) keep only their
// recurrences and recovery hooks; everything that depends on the partition
// lives here, behind one rebuild_on_partition() seam.
//
// Rank loops follow one policy (docs/parallelism.md): elementwise loops run
// parallel_for over ranks with adaptive_grain(nodes), since their outputs
// are disjoint slices; reductions run parallel_reduce with a fixed grain of
// one rank, `acc = 0; acc += ...` per rank, combined in rank order, so every
// reduction is bitwise identical to the serial rank loop at every thread
// count. Each rank charges `flops_per_row * local_size(s)` after its work.
#pragma once

#include <array>
#include <cstddef>
#include <optional>

#include "comm/aspmv_plan.hpp"
#include "comm/exchange.hpp"
#include "comm/spmv_plan.hpp"
#include "common/error.hpp"
#include "netsim/cluster.hpp"
#include "netsim/dist_vector.hpp"
#include "parallel/parallel.hpp"
#include "precond/preconditioner.hpp"
#include "resilience/options.hpp"
#include "sparse/csr.hpp"

namespace esrp {

class DistOperator {
public:
  /// `precond` must expose an action matrix that is node-local on the
  /// cluster's partition (check_node_local). The AspmvPlan exists only
  /// under the esrp strategy (with `opts.phi`).
  ///
  /// `shared_plan` / `shared_aug` (optional, service layer) inject plans a
  /// prepared ProblemHandle built for this (matrix, partition, phi): the
  /// layer borrows them instead of building its own. They must outlive it,
  /// be built on `cluster.partition()`, and (aug) sit on `shared_plan` with
  /// `opts.phi`. Plans are deterministic functions of those inputs, so
  /// borrowed and freshly built plans are interchangeable bitwise.
  DistOperator(const CsrMatrix& a, const Preconditioner& precond,
               SimCluster& cluster, const ResilienceOptions& opts,
               const SpmvPlan* shared_plan = nullptr,
               const AspmvPlan* shared_aug = nullptr);

  DistOperator(const DistOperator&) = delete;
  DistOperator& operator=(const DistOperator&) = delete;

  const CsrMatrix& matrix() const { return *a_; }
  const Preconditioner& precond() const { return *precond_; }
  SimCluster& cluster() const { return *cluster_; }
  const BlockRowPartition& partition() const { return cluster_->partition(); }

  ExchangeEngine& engine() { return *engine_; }
  /// The augmentation plan; esrp strategy only.
  const AspmvPlan& aug() const {
    ESRP_CHECK(aug_ != nullptr);
    return *aug_;
  }

  /// out := P in, one apply_local per node (P is node-local), charging
  /// 2 flops per stored entry of the node's rows of P.
  void apply_precond(const DistVector& in, DistVector& out);

  /// Global u^T v: a rank-ordered reduction plus its allreduce(1).
  real_t dot(const DistVector& u, const DistVector& v);

  /// body(s) for every rank s, charging `flops_per_row` per owned row.
  template <class Body>
  void for_each_rank(double flops_per_row, Body&& body);

  /// K sums reduced in rank order: body(s, acc) adds rank s's terms into
  /// `acc`, charging `flops_per_row` per owned row. Posts no allreduce.
  template <std::size_t K, class Body>
  std::array<real_t, K> reduce_ranks(double flops_per_row, Body&& body);

  /// No-spare / shrink / rejoin seam: point the cluster at `np` (same node
  /// count), rebuild the plans and the engine on it, and re-check P. Any
  /// borrowed plans refer to the old partition, so from here on the layer
  /// owns its plans.
  void rebuild_on_partition(const BlockRowPartition& np);

private:
  /// (Re)build plans and engine on the cluster's current partition,
  /// borrowing the shared plans when given.
  void build(const SpmvPlan* shared_plan, const AspmvPlan* shared_aug);

  const CsrMatrix* a_;
  const Preconditioner* precond_;
  SimCluster* cluster_;
  int phi_;
  bool augmented_; ///< esrp: the AspmvPlan exists
  // `plan_`/`aug_` are the single source of truth; the owned slots are set
  // only when this layer built the plans itself.
  std::optional<SpmvPlan> owned_plan_;
  std::optional<AspmvPlan> owned_aug_;
  const SpmvPlan* plan_ = nullptr;
  const AspmvPlan* aug_ = nullptr;
  std::optional<ExchangeEngine> engine_;
};

template <class Body>
void DistOperator::for_each_rank(double flops_per_row, Body&& body) {
  const BlockRowPartition& part = partition();
  const auto nodes = static_cast<index_t>(part.num_nodes());
  parallel_for(index_t{0}, nodes, adaptive_grain(nodes),
               [&](index_t lo, index_t hi) {
                 for (index_t i = lo; i < hi; ++i) {
                   const auto s = static_cast<rank_t>(i);
                   body(s);
                   cluster_->add_compute(
                       s, flops_per_row *
                              static_cast<double>(part.local_size(s)));
                 }
               });
}

template <std::size_t K, class Body>
std::array<real_t, K> DistOperator::reduce_ranks(double flops_per_row,
                                                 Body&& body) {
  using Sums = std::array<real_t, K>;
  const BlockRowPartition& part = partition();
  return parallel_reduce(
      index_t{0}, static_cast<index_t>(part.num_nodes()), index_t{1}, Sums{},
      [&](index_t lo, index_t hi) {
        Sums acc{};
        for (index_t i = lo; i < hi; ++i) {
          const auto s = static_cast<rank_t>(i);
          body(s, acc);
          cluster_->add_compute(
              s, flops_per_row * static_cast<double>(part.local_size(s)));
        }
        return acc;
      },
      [](Sums x, const Sums& y) {
        for (std::size_t k = 0; k < K; ++k) x[k] += y[k];
        return x;
      });
}

} // namespace esrp
