#include "netsim/cluster.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace esrp {
namespace {

CostParams unit_cost() {
  CostParams p;
  p.alpha_s = 1;    // 1 s per message
  p.beta_s = 0.5;   // 0.5 s per byte
  p.gamma_s = 2;    // 2 s per flop
  return p;
}

TEST(SimCluster, StepChargesSlowestNode) {
  const BlockRowPartition part(8, 4);
  SimCluster c(part, unit_cost());
  c.add_compute(0, 1); // 2 s
  c.add_compute(1, 3); // 6 s
  c.complete_step();
  EXPECT_DOUBLE_EQ(c.modeled_time(), 6);
}

TEST(SimCluster, EmptyStepChargesNothing) {
  const BlockRowPartition part(8, 2);
  SimCluster c(part, unit_cost());
  c.complete_step();
  c.complete_step();
  EXPECT_DOUBLE_EQ(c.modeled_time(), 0);
}

TEST(SimCluster, SendChargesBothEndpoints) {
  const BlockRowPartition part(8, 2);
  SimCluster c(part, unit_cost());
  c.send(0, 1, 2, CommCategory::spmv_halo); // 1 + 2*0.5 = 2 s each side
  c.complete_step();
  EXPECT_DOUBLE_EQ(c.modeled_time(), 2);
}

TEST(SimCluster, SendAndRecvOverlapPerNode) {
  const BlockRowPartition part(8, 4);
  SimCluster c(part, unit_cost());
  // Node 1 sends one message (2 s) and receives one message (2 s):
  // max(send, recv) = 2 s, not 4 s.
  c.send(1, 2, 2, CommCategory::spmv_halo);
  c.send(0, 1, 2, CommCategory::spmv_halo);
  c.complete_step();
  EXPECT_DOUBLE_EQ(c.modeled_time(), 2);
}

TEST(SimCluster, ComputePlusCommAccumulatePerNode) {
  const BlockRowPartition part(8, 2);
  SimCluster c(part, unit_cost());
  c.add_compute(0, 1);                       // 2 s
  c.send(0, 1, 2, CommCategory::spmv_halo);  // +2 s on node 0
  c.complete_step();
  EXPECT_DOUBLE_EQ(c.modeled_time(), 4);
}

TEST(SimCluster, ReplayChargesThePricedMessages) {
  const BlockRowPartition part(8, 4);
  SimCluster c(part, unit_cost());
  MessageTable t;
  EXPECT_THROW(c.price(t, 1, 1, 2, CommCategory::other), Error);
  EXPECT_THROW(c.price(t, 0, 4, 2, CommCategory::other), Error);
  c.price(t, 0, 1, 2, CommCategory::spmv_halo);   // 2 s each side
  c.price(t, 2, 1, 4, CommCategory::aspmv_extra); // 3 s each side
  EXPECT_EQ(c.ledger().total_messages(), 0u); // pricing charges nothing
  c.replay(t);
  c.complete_step();
  EXPECT_DOUBLE_EQ(c.modeled_time(), 5); // node 1 receives both
  EXPECT_EQ(c.ledger().totals(CommCategory::spmv_halo).messages, 1u);
  EXPECT_EQ(c.ledger().totals(CommCategory::spmv_halo).bytes, 2u);
  EXPECT_EQ(c.ledger().totals(CommCategory::aspmv_extra).messages, 1u);
  EXPECT_EQ(c.ledger().totals(CommCategory::aspmv_extra).bytes, 4u);
  // A table holds the node count it was priced for.
  const BlockRowPartition two(8, 2);
  SimCluster other(two, unit_cost());
  EXPECT_THROW(other.replay(t), Error);
}

TEST(SimCluster, SelfSendThrows) {
  const BlockRowPartition part(8, 2);
  SimCluster c(part);
  EXPECT_THROW(c.send(1, 1, 8, CommCategory::other), Error);
}

TEST(SimCluster, AllreduceCompletesPendingStep) {
  const BlockRowPartition part(8, 4);
  SimCluster c(part, unit_cost());
  c.add_compute(0, 1); // 2 s
  c.allreduce(1, CommCategory::allreduce);
  // step (2 s) + allreduce 2*ceil(log2 4)*(1 + 8*0.5) = 4*5 = 20 s
  EXPECT_DOUBLE_EQ(c.modeled_time(), 22);
}

TEST(SimCluster, LedgerAccumulatesPerCategory) {
  const BlockRowPartition part(8, 4);
  SimCluster c(part);
  c.send(0, 1, 100, CommCategory::spmv_halo);
  c.send(1, 2, 50, CommCategory::aspmv_extra);
  c.send(2, 3, 50, CommCategory::aspmv_extra);
  c.complete_step();
  EXPECT_EQ(c.ledger().totals(CommCategory::spmv_halo).messages, 1u);
  EXPECT_EQ(c.ledger().totals(CommCategory::spmv_halo).bytes, 100u);
  EXPECT_EQ(c.ledger().totals(CommCategory::aspmv_extra).messages, 2u);
  EXPECT_EQ(c.ledger().totals(CommCategory::aspmv_extra).bytes, 100u);
  EXPECT_EQ(c.ledger().total_messages(), 3u);
}

TEST(SimCluster, ChargeTimeAddsDirectly) {
  const BlockRowPartition part(8, 2);
  SimCluster c(part, unit_cost());
  c.charge_time(3.5);
  EXPECT_DOUBLE_EQ(c.modeled_time(), 3.5);
  EXPECT_THROW(c.charge_time(-1), Error);
}

TEST(SimCluster, ResetAccountingClearsTimeAndLedger) {
  const BlockRowPartition part(8, 2);
  SimCluster c(part, unit_cost());
  c.send(0, 1, 8, CommCategory::other);
  c.complete_step();
  c.reset_accounting();
  EXPECT_DOUBLE_EQ(c.modeled_time(), 0);
  EXPECT_EQ(c.ledger().total_bytes(), 0u);
}

TEST(SimCluster, ResetMidStepThrows) {
  const BlockRowPartition part(8, 2);
  SimCluster c(part);
  c.add_compute(0, 1);
  EXPECT_THROW(c.reset_accounting(), Error);
}

TEST(SimCluster, OverlappedAllreduceChargesMaxNotSum) {
  const BlockRowPartition part(8, 4);
  SimCluster c(part, unit_cost());
  // Compute of 10 flops = 20 s; allreduce of 8 bytes over 4 nodes =
  // 2*2*(1 + 8*0.5) = 20 s. Overlapped: max(20, 20) = 20 s, not 40 s.
  c.add_compute(0, 10);
  c.allreduce_overlapped(1, CommCategory::allreduce);
  EXPECT_DOUBLE_EQ(c.modeled_time(), 20);
}

TEST(SimCluster, OverlappedAllreduceDominatedByLongerSide) {
  const BlockRowPartition part(8, 4);
  SimCluster c1(part, unit_cost());
  c1.add_compute(0, 100); // 200 s >> 20 s reduction
  c1.allreduce_overlapped(1, CommCategory::allreduce);
  EXPECT_DOUBLE_EQ(c1.modeled_time(), 200);

  SimCluster c2(part, unit_cost());
  c2.add_compute(0, 1); // 2 s << 20 s reduction
  c2.allreduce_overlapped(1, CommCategory::allreduce);
  EXPECT_DOUBLE_EQ(c2.modeled_time(), 20);
}

TEST(SimCluster, SetPartitionRebinds) {
  const BlockRowPartition part(8, 4);
  const BlockRowPartition absorbed(std::vector<index_t>{0, 4, 4, 6, 8});
  SimCluster c(part);
  c.set_partition(absorbed);
  EXPECT_EQ(&c.partition(), &absorbed);
}

TEST(SimCluster, SetPartitionRejectsDifferentShape) {
  const BlockRowPartition part(8, 4);
  const BlockRowPartition fewer_nodes(8, 2);
  const BlockRowPartition different_size(10, 4);
  SimCluster c(part);
  EXPECT_THROW(c.set_partition(fewer_nodes), Error);
  EXPECT_THROW(c.set_partition(different_size), Error);
}

TEST(SimCluster, SetPartitionRejectedMidStep) {
  const BlockRowPartition part(8, 4);
  const BlockRowPartition other(std::vector<index_t>{0, 2, 4, 6, 8});
  SimCluster c(part);
  c.add_compute(0, 1);
  EXPECT_THROW(c.set_partition(other), Error);
}

TEST(CommCategory, NamesAreStable) {
  EXPECT_EQ(to_string(CommCategory::spmv_halo), "spmv_halo");
  EXPECT_EQ(to_string(CommCategory::aspmv_extra), "aspmv_extra");
  EXPECT_EQ(to_string(CommCategory::checkpoint), "checkpoint");
  EXPECT_EQ(to_string(CommCategory::recovery), "recovery");
  EXPECT_EQ(to_string(CommCategory::allreduce), "allreduce");
}

} // namespace
} // namespace esrp
