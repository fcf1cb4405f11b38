// The simulated cluster: N nodes executing in BSP-style supersteps.
//
// Algorithms report their activity through these calls:
//   add_compute(rank, flops)            — local floating-point work
//   send(from, to, bytes, category)     — one point-to-point message
//   replay(table)                       — a fixed sequence of messages,
//                                         priced once into a MessageTable
//   complete_step()                     — barrier; advances modeled time by
//                                         the slowest node of this superstep
//   allreduce(num_scalars, category)    — synchronizing reduction (implies a
//                                         barrier, charges 2 log2 N rounds)
//
// Modeled time is the metric the benches report (DESIGN.md §3.1); wall time
// of the host process is measured separately by the experiment harness.
#pragma once

#include <array>
#include <atomic>
#include <vector>

#include "common/types.hpp"
#include "netsim/comm_ledger.hpp"
#include "netsim/cost_model.hpp"
#include "partition/partition.hpp"

namespace esrp {

/// A fixed sequence of point-to-point messages, priced once on one cluster
/// (SimCluster::price). An exchange that repeats every iteration with the
/// same lists — the SpMV halo, the ASpMV augmentation — charges its table
/// with SimCluster::replay instead of one send() per message.
class MessageTable {
  friend class SimCluster;
  struct Message {
    rank_t from = 0;
    rank_t to = 0;
    double seconds = 0; ///< the cluster's message_time(from, to, bytes)
  };
  std::vector<Message> messages_; ///< in send order
  /// What a replay records in the ledger, per category.
  std::array<CategoryTotals, kNumCommCategories> totals_{};
  rank_t num_nodes_ = 0; ///< node count of the cluster that priced it
};

class SimCluster {
public:
  SimCluster(const BlockRowPartition& part, CostParams cost = CostParams{});

  /// Heterogeneous cluster: per-rank/per-link charges come from the model
  /// (scenario lab cluster shapes). A homogeneous model charges bitwise
  /// identically to the CostParams constructor.
  SimCluster(const BlockRowPartition& part, HeterogeneousCostModel cost);

  // Copyable (tests snapshot the accounting state); hand-written because
  // the atomic dirty flag deletes the defaults. Never copy a cluster while
  // a parallel kernel is reporting into it.
  SimCluster(const SimCluster& other);
  SimCluster& operator=(const SimCluster& other);

  /// Rebind to a new partition with the same node count (no-spare-node
  /// recovery: ownership moves to surviving ranks, the cluster keeps its
  /// size). Requires an idle superstep.
  void set_partition(const BlockRowPartition& part);

  const BlockRowPartition& partition() const { return *part_; }
  rank_t num_nodes() const { return part_->num_nodes(); }
  /// Base (homogeneous) parameters — what the recovery code charges for
  /// replacement-subgroup collectives regardless of cluster shape.
  const CostParams& cost_params() const { return cost_.base(); }
  const HeterogeneousCostModel& cost_model() const { return cost_; }

  /// Record `flops` floating-point operations on `rank` in this superstep.
  /// Concurrency: safe to call from parallel kernels as long as no two
  /// concurrent calls share a rank (the per-node loops satisfy this — each
  /// task owns a disjoint rank range). All other members, send() included,
  /// must be called from one thread at a time.
  void add_compute(rank_t rank, double flops);

  /// Record a point-to-point message in this superstep. Self-sends are
  /// rejected: a node never messages itself in any of the algorithms.
  void send(rank_t from, rank_t to, std::size_t bytes, CommCategory cat);

  /// Append one message to `table`, checked and priced as send() would
  /// check and charge it. The cost model is fixed at construction, so the
  /// price holds for every later replay on this cluster.
  void price(MessageTable& table, rank_t from, rank_t to, std::size_t bytes,
             CommCategory cat) const;

  /// Charge `table` into this superstep: bitwise the send() calls it was
  /// priced from. Each message's seconds are added onto its endpoints'
  /// counters in table order, over whatever the superstep already holds,
  /// and the ledger records each category's totals once.
  void replay(const MessageTable& table);

  /// Barrier: charge max-over-nodes (compute + send + recv) time for the
  /// current superstep and reset the per-step counters.
  void complete_step();

  /// Synchronizing allreduce of `num_scalars` real_t values (dot products
  /// in PCG reduce one or two scalars). Completes the current step first.
  void allreduce(std::size_t num_scalars, CommCategory cat);

  /// Non-blocking allreduce overlapped with the work recorded in the
  /// current superstep (communication-hiding solvers, e.g. pipelined PCG):
  /// the step is charged max(slowest node, allreduce time) instead of their
  /// sum. Completes the superstep.
  void allreduce_overlapped(std::size_t num_scalars, CommCategory cat);

  /// Directly charge modeled time (used by the recovery code to account for
  /// inner-solve collectives that run on the replacement-node subgroup,
  /// which the per-node superstep counters do not capture). Completes the
  /// current superstep first.
  void charge_time(double seconds);

  /// Total modeled time so far [s].
  double modeled_time() const { return modeled_time_; }

  /// Cumulative per-category communication totals.
  const CommLedger& ledger() const { return ledger_; }

  /// Reset modeled time and ledger (per-step counters must be empty).
  void reset_accounting();

private:
  struct StepCounters {
    double flops = 0;
    double send_time = 0;
    double recv_time = 0;
  };

  /// send()'s endpoint checks, then the message's modeled time.
  double checked_message_time(rank_t from, rank_t to, std::size_t bytes) const;

  const BlockRowPartition* part_;
  HeterogeneousCostModel cost_;
  CommLedger ledger_;
  // Rank-concurrency contract (not expressible as a mutex capability, so it
  // lives here instead of a GUARDED_BY annotation — docs/static_analysis.md):
  // step_[r] is written only by the task that owns rank r in the current
  // parallel region (the per-node loops partition ranks disjointly), and
  // read only after the region's join. Everything else on this class is
  // single-threaded by contract.
  std::vector<StepCounters> step_;
  double modeled_time_ = 0;
  // Atomic (relaxed) so concurrent add_compute calls on distinct ranks can
  // all mark the step dirty without a data race; the flops counters
  // themselves are distinct objects per rank. Never a double: accumulating
  // into a shared atomic float would trade determinism for contention
  // (esrp_lint's atomic-fp rule).
  std::atomic<bool> step_dirty_{false};
};

} // namespace esrp
