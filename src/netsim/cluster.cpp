#include "netsim/cluster.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace esrp {

SimCluster::SimCluster(const BlockRowPartition& part, CostParams cost)
    : SimCluster(part, HeterogeneousCostModel(cost)) {}

SimCluster::SimCluster(const BlockRowPartition& part,
                       HeterogeneousCostModel cost)
    : part_(&part), cost_(std::move(cost)),
      step_(static_cast<std::size_t>(part.num_nodes())) {}

SimCluster::SimCluster(const SimCluster& other)
    : part_(other.part_),
      cost_(other.cost_),
      ledger_(other.ledger_),
      step_(other.step_),
      modeled_time_(other.modeled_time_),
      step_dirty_(other.step_dirty_.load(std::memory_order_relaxed)) {}

SimCluster& SimCluster::operator=(const SimCluster& other) {
  part_ = other.part_;
  cost_ = other.cost_;
  ledger_ = other.ledger_;
  step_ = other.step_;
  modeled_time_ = other.modeled_time_;
  step_dirty_.store(other.step_dirty_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  return *this;
}

void SimCluster::set_partition(const BlockRowPartition& part) {
  ESRP_CHECK_MSG(!step_dirty_.load(std::memory_order_relaxed),
                 "cannot repartition mid-superstep");
  ESRP_CHECK_MSG(part.num_nodes() == part_->num_nodes(),
                 "repartitioning must keep the node count");
  ESRP_CHECK(part.global_size() == part_->global_size());
  part_ = &part;
}

void SimCluster::add_compute(rank_t rank, double flops) {
  ESRP_CHECK(rank >= 0 && rank < num_nodes());
  ESRP_CHECK(flops >= 0);
  step_[static_cast<std::size_t>(rank)].flops += flops;
  step_dirty_.store(true, std::memory_order_relaxed);
}

double SimCluster::checked_message_time(rank_t from, rank_t to,
                                        std::size_t bytes) const {
  ESRP_CHECK(from >= 0 && from < num_nodes());
  ESRP_CHECK(to >= 0 && to < num_nodes());
  ESRP_CHECK_MSG(from != to, "node " << from << " attempted a self-send");
  return cost_.message_time(from, to, bytes);
}

void SimCluster::send(rank_t from, rank_t to, std::size_t bytes,
                      CommCategory cat) {
  const double t = checked_message_time(from, to, bytes);
  step_[static_cast<std::size_t>(from)].send_time += t;
  step_[static_cast<std::size_t>(to)].recv_time += t;
  ledger_.record(cat, bytes);
  step_dirty_.store(true, std::memory_order_relaxed);
}

void SimCluster::price(MessageTable& table, rank_t from, rank_t to,
                       std::size_t bytes, CommCategory cat) const {
  ESRP_CHECK(table.messages_.empty() || table.num_nodes_ == num_nodes());
  table.num_nodes_ = num_nodes();
  table.messages_.push_back({from, to, checked_message_time(from, to, bytes)});
  auto& t = table.totals_[static_cast<std::size_t>(cat)];
  ++t.messages;
  t.bytes += bytes;
}

void SimCluster::replay(const MessageTable& table) {
  if (table.messages_.empty()) return;
  ESRP_CHECK_MSG(table.num_nodes_ == num_nodes(),
                 "message table priced for " << table.num_nodes_
                                             << " nodes, replayed on "
                                             << num_nodes());
  for (const MessageTable::Message& m : table.messages_) {
    step_[static_cast<std::size_t>(m.from)].send_time += m.seconds;
    step_[static_cast<std::size_t>(m.to)].recv_time += m.seconds;
  }
  for (std::size_t c = 0; c < kNumCommCategories; ++c)
    if (table.totals_[c].messages > 0)
      ledger_.record(static_cast<CommCategory>(c), table.totals_[c]);
  step_dirty_.store(true, std::memory_order_relaxed);
}

void SimCluster::complete_step() {
  if (!step_dirty_.load(std::memory_order_relaxed)) return;
  double max_t = 0;
  for (std::size_t rank = 0; rank < step_.size(); ++rank) {
    StepCounters& c = step_[rank];
    // A node's step time: its compute plus the larger of its send/recv
    // activity (sends and receives of distinct partners overlap on separate
    // links; a node's own NIC serializes whichever direction dominates).
    const double t = cost_.compute_time(static_cast<rank_t>(rank), c.flops) +
                     std::max(c.send_time, c.recv_time);
    max_t = std::max(max_t, t);
    c = StepCounters{};
  }
  modeled_time_ += max_t;
  step_dirty_.store(false, std::memory_order_relaxed);
}

void SimCluster::allreduce(std::size_t num_scalars, CommCategory cat) {
  complete_step();
  const std::size_t bytes = num_scalars * CostParams::bytes_per_scalar;
  modeled_time_ += cost_.allreduce_time(num_nodes(), bytes);
  // Ledger: count one logical collective as N-1 pairwise contributions worth
  // of payload so byte totals remain comparable across runs.
  ledger_.record(cat, bytes * static_cast<std::size_t>(
                          std::max<rank_t>(0, num_nodes() - 1)));
}

void SimCluster::allreduce_overlapped(std::size_t num_scalars,
                                      CommCategory cat) {
  const std::size_t bytes = num_scalars * CostParams::bytes_per_scalar;
  const double reduce_t = cost_.allreduce_time(num_nodes(), bytes);
  // Compute the step's slowest node without double-charging, then take the
  // max against the in-flight reduction.
  double max_t = 0;
  for (std::size_t rank = 0; rank < step_.size(); ++rank) {
    StepCounters& c = step_[rank];
    const double t = cost_.compute_time(static_cast<rank_t>(rank), c.flops) +
                     std::max(c.send_time, c.recv_time);
    max_t = std::max(max_t, t);
    c = StepCounters{};
  }
  modeled_time_ += std::max(max_t, reduce_t);
  step_dirty_.store(false, std::memory_order_relaxed);
  ledger_.record(cat, bytes * static_cast<std::size_t>(
                          std::max<rank_t>(0, num_nodes() - 1)));
}

void SimCluster::charge_time(double seconds) {
  ESRP_CHECK(seconds >= 0);
  complete_step();
  modeled_time_ += seconds;
}

void SimCluster::reset_accounting() {
  ESRP_CHECK_MSG(!step_dirty_.load(std::memory_order_relaxed),
                 "cannot reset mid-superstep");
  modeled_time_ = 0;
  ledger_.reset();
}

} // namespace esrp
