// The distributed operator both distributed solvers run: the block-row SpMV
// with its halo plan, the augmented plan that routes ESRP's redundant copies
// (paper §2.2.2), the node-local preconditioner, and the rank loops that
// charge their work to the cluster model.
//
// ResilientPcg (Alg. 3) and DistPipelinedPcg (ref. [16]) keep only their
// recurrences and recovery hooks; everything that depends on the partition
// lives here, behind one rebuild_on_partition() seam.
//
// Rank loops follow one policy (docs/parallelism.md): one call per task
// range, charges per rank. Each loop runs parallel_for over ranks with
// adaptive_grain(nodes); a task's ranks [lo, hi) are consecutive, so their
// slices form one row range of every DistVector, and the task makes one
// kernel call over it. Its charge loop then adds each rank's cost, rank by
// rank. Reductions keep one partial per rank (vec_dot_segments, bitwise
// vec_dot on the rank's slice) and combine the partials in rank order, so
// every reduction is bitwise identical to the serial rank loop at every
// thread count. At emilia 20^3 on 128 nodes (62.5 rows per rank, one
// thread) that is one call per phase instead of 128; on a 4-core Xeon VM
// (best of 24 medians of 600 calls) the P apply fell from 37.2 to 28.8 us,
// fused_axpy2 from 8.5 to 5.2, vec_xpby from 4.8 to 3.1, dot from 4.7 to
// 4.3 and the r.z/r.r pair from 7.4 to 5.6.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "comm/aspmv_plan.hpp"
#include "comm/exchange.hpp"
#include "comm/spmv_plan.hpp"
#include "common/error.hpp"
#include "common/fused.hpp"
#include "netsim/cluster.hpp"
#include "netsim/dist_vector.hpp"
#include "parallel/parallel.hpp"
#include "precond/preconditioner.hpp"
#include "resilience/options.hpp"
#include "sparse/csr.hpp"

namespace esrp {

class DistOperator {
public:
  /// `precond` must be node-local on the cluster's partition
  /// (check_node_local). The AspmvPlan exists only under the esrp strategy
  /// (with `opts.phi`).
  ///
  /// `shared_plan` / `shared_aug` (optional; the registry drivers pass their
  /// ProblemHandle's) inject plans built for this (matrix, partition, phi):
  /// the layer borrows them instead of building its own. They must outlive it,
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

  /// out := P in, one apply_local per task range (P is node-local, so a
  /// union of node ranges couples nothing outside it either), charging
  /// each node its apply_local_flops, computed once per build.
  void apply_precond(const DistVector& in, DistVector& out);

  /// Global u^T v: a rank-ordered reduction plus its allreduce(1).
  real_t dot(const DistVector& u, const DistVector& v);

  /// r := b - ax on every node (`ax` may alias `r`), 1 flop per row. `b`
  /// is indexed by global offset, so it holds on any partition.
  void residual(std::span<const real_t> b, const DistVector& ax,
                DistVector& r);

  /// body(rows) once per task, `rows` being the rows of the task's
  /// consecutive ranks; every rank is charged `flops_per_row` per owned row.
  /// The body must treat rows independently (elementwise updates).
  template <class Body>
  void for_each_rank(double flops_per_row, Body&& body);

  /// The operands of one u^T v of a reduction.
  struct DotPair {
    const DistVector& u;
    const DistVector& v;
  };

  /// K dot products, each reduced in rank order from one partial per rank,
  /// charging `flops_per_row` per owned row. Posts no allreduce.
  template <std::size_t K>
  std::array<real_t, K> reduce_ranks(double flops_per_row,
                                     const std::array<DotPair, K>& dots);

  /// No-spare / shrink / rejoin seam: point the cluster at `np` (same node
  /// count), rebuild the plans and the engine on it, and re-check P. Any
  /// borrowed plans refer to the old partition, so from here on the layer
  /// owns its plans.
  void rebuild_on_partition(const BlockRowPartition& np);

private:
  /// (Re)build plans and engine on the cluster's current partition,
  /// borrowing the shared plans when given.
  void build(const SpmvPlan* shared_plan, const AspmvPlan* shared_aug);

  /// The one rank loop: parallel_for over ranks; each task runs
  /// body(lo, hi, rows) once for its ranks [lo, hi) and their rows, then
  /// charges rank s `flops(s)` for s = lo .. hi-1 in order.
  template <class Body, class Flops>
  void for_each_range(Body&& body, Flops&& flops);

  /// reduce_ranks over a runtime number of pairs: sums[k] is pair k's dot.
  void reduce_dots(double flops_per_row, std::span<const DotPair> dots,
                   std::span<real_t> sums);

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
  /// Rank s's apply_precond charge: apply_local_flops on its rows.
  std::vector<double> precond_flops_;
  /// reduce_dots' per-rank partials, [s * pairs + k]; reused across calls.
  std::vector<real_t> partials_;
};

template <class Body, class Flops>
void DistOperator::for_each_range(Body&& body, Flops&& flops) {
  const BlockRowPartition& part = partition();
  const auto nodes = static_cast<index_t>(part.num_nodes());
  parallel_for(index_t{0}, nodes, adaptive_grain(nodes),
               [&](index_t lo, index_t hi) {
                 const auto first = static_cast<rank_t>(lo);
                 const auto last = static_cast<rank_t>(hi);
                 body(first, last,
                      RowRange{part.begin(first), part.end(last - 1)});
                 for (rank_t s = first; s < last; ++s)
                   cluster_->add_compute(s, flops(s));
               });
}

template <class Body>
void DistOperator::for_each_rank(double flops_per_row, Body&& body) {
  const BlockRowPartition& part = partition();
  for_each_range([&](rank_t, rank_t, RowRange rows) { body(rows); },
                 [&](rank_t s) {
                   return flops_per_row *
                          static_cast<double>(part.local_size(s));
                 });
}

template <std::size_t K>
std::array<real_t, K> DistOperator::reduce_ranks(
    double flops_per_row, const std::array<DotPair, K>& dots) {
  std::array<real_t, K> sums{};
  reduce_dots(flops_per_row, dots, sums);
  return sums;
}

} // namespace esrp
