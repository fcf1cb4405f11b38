#include "resilience/engine.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace esrp {

ResilienceEngine::ResilienceEngine(ResilienceOptions opts,
                                   const BlockRowPartition& part, Config cfg)
    : opts_(std::move(opts)), cfg_(cfg), base_part_(&part),
      queue_(opts_.queue_capacity) {
  ESRP_CHECK_MSG(opts_.interval >= 1, "checkpoint interval must be >= 1");
  ESRP_CHECK_MSG(opts_.spare_nodes || opts_.strategy == Strategy::esrp,
                 "no-spare recovery is only defined for ESR/ESRP (ref. [22])");
  ESRP_CHECK(cfg_.snapshot_slots >= 1);
  ESRP_CHECK_MSG(opts_.policy.max_attempts >= 1,
                 "recovery policy max_attempts must be >= 1");

  // One validation surface for every schedule shape (netsim/failure.cpp):
  // half-specified events, non-increasing iterations, duplicate or
  // out-of-range ranks all throw here. An event may fail all ranks — the
  // ladder resolves that to a deterministic scratch restart.
  events_ = merge_failure_schedule(opts_.extra_failures, part.num_nodes());
  event_done_.assign(events_.size(), false);

  if (opts_.strategy == Strategy::imcr) {
    ESRP_CHECK(cfg_.checkpoint_vectors >= 1);
    checkpoint_ = std::make_unique<CheckpointStore>(
        part, opts_.phi, cfg_.checkpoint_vectors, cfg_.checkpoint_scalars);
  }
}

void ResilienceEngine::begin_solve(SimCluster& cluster,
                                   SolverObserver* observer) {
  cluster_ = &cluster;
  observer_ = observer;
  queue_.clear();
  snapshots_.clear();
  last_recoverable_ = -1;
  retry_count_ = 0;
  event_done_.assign(events_.size(), false);
}

const FailureEvent* ResilienceEngine::pending_event(index_t j) {
  for (std::size_t e = 0; e < events_.size(); ++e) {
    if (!event_done_[e] && events_[e].iteration == j) {
      event_done_[e] = true;
      return &events_[e];
    }
  }
  return nullptr;
}

ResilienceEngine::StoragePlan ResilienceEngine::storage_plan(index_t j) const {
  StoragePlan plan;
  if (opts_.strategy != Strategy::esrp) return plan;
  const index_t T = opts_.interval;
  if (T == 1) {
    plan.second_store = true; // classic ESR: full storage every iteration
  } else if (j >= T && j % T == 0) {
    plan.first_store = true;
  } else if (j >= T + 1 && j % T == 1) {
    plan.second_store = true;
  }
  return plan;
}

void ResilienceEngine::save_snapshot(index_t tag, const SolverState& state) {
  ESRP_CHECK(cluster_ != nullptr);
  // Snapshot lifetime: with the trailing pairing and one slot, snapshot
  // `tag` is replaced by the next iteration's second store, so only a
  // failure at iteration `tag` itself can read it — and until that failure
  // the live vectors are the ones saved here. Their copy is deferred to
  // recover(); every other configuration copies now.
  const bool defer = cfg_.pairing == CopyPairing::trailing &&
                     cfg_.snapshot_slots == 1 &&
                     storage_plan(tag + 1).second_store;
  const auto capture = [&](StateSnapshot& s) {
    if (defer)
      s.defer(tag, state);
    else
      s.recapture(tag, state);
  };
  for (StateSnapshot& s : snapshots_) {
    if (s.tag() == tag) {
      capture(s); // rollback re-execution: replace in place
      return;
    }
  }
  if (snapshots_.size() >= cfg_.snapshot_slots) {
    // Reuse the evicted slot's allocation: every snapshot lives on the
    // current partition.
    StateSnapshot oldest = std::move(snapshots_.front());
    snapshots_.erase(snapshots_.begin());
    capture(oldest);
    snapshots_.push_back(std::move(oldest));
    return;
  }
  snapshots_.emplace_back(tag, state, cluster_->partition(),
                          cfg_.snapshot_extra_scalars);
}

void ResilienceEngine::set_snapshot_scalar(index_t tag, std::size_t k,
                                           real_t v) {
  if (StateSnapshot* s = find_snapshot(tag)) s->set_scalar(k, v);
}

const StateSnapshot* ResilienceEngine::snapshot(index_t tag) const {
  for (const StateSnapshot& s : snapshots_)
    if (s.tag() == tag) return &s;
  return nullptr;
}

StateSnapshot* ResilienceEngine::find_snapshot(index_t tag) {
  for (StateSnapshot& s : snapshots_)
    if (s.tag() == tag) return &s;
  return nullptr;
}

bool ResilienceEngine::checkpoint_due(index_t j) const {
  return opts_.strategy == Strategy::imcr && checkpoint_ != nullptr && j > 0 &&
         j % opts_.interval == 0 && checkpoint_->tag() != j;
}

void ResilienceEngine::store_checkpoint(index_t j, const SolverState& state) {
  ESRP_CHECK(cluster_ != nullptr && checkpoint_ != nullptr);
  // Storing a strictly newer checkpoint is recovery progress: it resets the
  // cascading-failure retry budget just like set_recoverable advancing the
  // ESRP tag does.
  if (j > checkpoint_->tag()) retry_count_ = 0;
  checkpoint_->store(j, state, *cluster_);
}

void ResilienceEngine::move_to(const BlockRowPartition& np,
                               const Client& client) {
  ESRP_CHECK(client.set_partition);
  // A partition change is a global synchronization point: it ends the
  // superstep (a no-op where the last exchange already ended it, as in
  // ResilientPcg; the pipelined solver recovers mid-superstep).
  cluster_->complete_step();
  client.set_partition(np);
  ESRP_CHECK(&cluster_->partition() == &np);
  const SolverState st = client.state();
  for (DistVector* v : st.vectors) v->rebind(np);
  for (DistVector* v : st.scratch) v->rebind(np);
  for (StateSnapshot& s : snapshots_) s.rebind(np);
  if (checkpoint_) {
    checkpoint_ = std::make_unique<CheckpointStore>(
        np, opts_.phi, cfg_.checkpoint_vectors, cfg_.checkpoint_scalars);
  }
}

void ResilienceEngine::absorb(std::span<const rank_t> failed,
                              const Client& client, RecoveryRecord& record) {
  // The accounting approximation: adopters already received the
  // reconstructed entries during the recovery gather, so no migration
  // messages are charged.
  const BlockRowPartition& part = cluster_->partition();
  std::vector<rank_t> retired = retired_;
  for (rank_t s : failed)
    if (!rank_in(retired, s)) retired.push_back(s);
  std::sort(retired.begin(), retired.end());
  // The retired ranks are absorbed again: their ranges are empty, so that
  // moves nothing, but it keeps them from adopting. Only when no active
  // rank survives do they adopt, and an adopter owns rows again.
  const bool active_left =
      retired.size() < static_cast<std::size_t>(part.num_nodes());
  auto np = std::make_unique<BlockRowPartition>(
      absorb_ranks(part, active_left ? std::span<const rank_t>(retired)
                                     : failed));
  if (!active_left)
    std::erase_if(retired, [&](rank_t s) { return np->local_size(s) > 0; });
  move_to(*np, client);
  // The previous owned partition (if any) goes only now, after every
  // vector has been rebound off it.
  owned_part_ = std::move(np);
  retired_ = std::move(retired);
  record.ranks_absorbed += static_cast<index_t>(failed.size());
}

bool ResilienceEngine::try_reconstruct_at(index_t target, RecoveryRung rung,
                                          std::span<const rank_t> failed,
                                          const Client& client,
                                          RecoveryRecord& record,
                                          index_t& resume) {
  // With the default three-slot queue the copy pair for the target is
  // always present; a two-slot queue (ablation) can have evicted it, and
  // an older snapshot may have outlived its pair entirely.
  const index_t off = cfg_.pairing == CopyPairing::leading ? 1 : 0;
  const RedundantCopy* prev = queue_.find(target - 1 + off);
  const RedundantCopy* cur = queue_.find(target + off);
  if (!prev || !cur) return false;
  record.attempted.push_back(rung);
  StateSnapshot* stars = find_snapshot(target);
  // A missing star snapshot demotes to the next rung (historically a hard
  // abort; under the ladder it is just one more unusable input).
  if (stars == nullptr) return false;
  // Integrity gate: a copy whose surviving holders no longer match their
  // finalize()-time checksums has been silently corrupted at rest and must
  // not feed the reconstruction.
  const bool prev_ok = prev->verify(failed);
  const bool cur_ok = cur->verify(failed);
  record.copies_verified += static_cast<index_t>(prev_ok) +
                            static_cast<index_t>(cur_ok);
  record.copies_corrupt += static_cast<index_t>(!prev_ok) +
                           static_cast<index_t>(!cur_ok);
  if (!prev_ok || !cur_ok) return false;
  ESRP_CHECK(client.reconstruct);
  if (!client.reconstruct(*stars, *prev, *cur, failed, record)) return false;
  resume = target;
  record.rung = rung;
  return true;
}

index_t ResilienceEngine::recover(const FailureEvent& event, index_t j_fail,
                                  const Client& client,
                                  RecoveryRecord& record) {
  ESRP_CHECK(cluster_ != nullptr && client.state && client.restart);
  if (observer_) observer_->on_failure(event);
  const std::span<const rank_t> failed = event.ranks;
  record.failed_at = j_fail;
  record.ranks_lost = static_cast<index_t>(failed.size());

  // Data loss: all dynamic data of the failed ranks disappears — the live
  // vectors and scratch, the star snapshots, and every redundant copy the
  // failed ranks were holding for other nodes. (The IMCR store models the
  // holder loss through the surviving-buddy check.)
  const SolverState st = client.state();
  // A deferred snapshot (save_snapshot) takes its vectors first: the live
  // state has not moved since it was saved.
  for (StateSnapshot& s : snapshots_) s.capture_vectors(st);
  for (DistVector* v : st.vectors) v->zero_ranks(failed);
  for (DistVector* v : st.scratch) v->zero_ranks(failed);
  for (StateSnapshot& s : snapshots_) s.zero_ranks(failed);
  queue_.drop_holders(failed);

  const double t0 = cluster_->modeled_time();
  const RecoveryPolicy& policy = opts_.policy;
  // Bounded retry for cascades: every recovery with no storage progress
  // since the last one (no recoverable tag advanced, no checkpoint stored)
  // burns one attempt; past the cap the ladder collapses to the scratch
  // rung instead of thrashing inside one recovery window.
  ++retry_count_;
  const bool exhausted = retry_count_ > policy.max_attempts;
  // With zero survivors no redundant state survives either (every copy
  // holder and checkpoint buddy died with the cluster): the exact rungs are
  // unreachable by construction, and the ladder drops straight to scratch.
  const bool any_survivor =
      !surviving_ranks(failed, cluster_->partition().num_nodes()).empty();
  bool recovered = false;
  index_t resume = 0;

  // Rung 1 — exact reconstruction at the newest recoverable iteration.
  if (!exhausted && !recovered && any_survivor && policy.try_reconstruct &&
      opts_.strategy == Strategy::esrp && last_recoverable_ >= 0) {
    recovered = try_reconstruct_at(last_recoverable_,
                                   RecoveryRung::reconstruct, failed, client,
                                   record, resume);
  }

  // Rung 2 — older stored snapshots, newest first: still bitwise-exact,
  // just further back. Each candidate needs its own intact copy pair.
  if (!exhausted && !recovered && any_survivor && policy.try_older_snapshot &&
      opts_.strategy == Strategy::esrp) {
    for (auto it = snapshots_.rbegin();
         it != snapshots_.rend() && !recovered; ++it) {
      if (it->tag() == last_recoverable_) continue; // rung 1 tried it
      recovered = try_reconstruct_at(it->tag(), RecoveryRung::older_snapshot,
                                     failed, client, record, resume);
    }
  }

  // Rung 3 — IMCR buddy-checkpoint restore, gated on the content checksum
  // taken at store time.
  if (!exhausted && !recovered && any_survivor && policy.try_checkpoint &&
      checkpoint_ && checkpoint_->has_checkpoint()) {
    record.attempted.push_back(RecoveryRung::checkpoint);
    if (!checkpoint_->verify()) {
      ++record.checkpoints_corrupt;
    } else if (checkpoint_->restore(failed, st, *cluster_)) {
      resume = checkpoint_->tag();
      recovered = true;
      record.rung = RecoveryRung::checkpoint;
    }
  }

  if (recovered && !opts_.spare_nodes) {
    // No spare nodes (ref. [22]): surviving neighbors absorb the failed
    // ranks' ranges; the solve continues on the repartitioned cluster.
    absorb(failed, client, record);
  }

  if (!recovered) {
    // Rung 4 — repartition-shrink: no recoverable redundant state, but the
    // survivors can absorb the failed ranges and restart the solve on the
    // shrunken ownership map (repeatable across events). Needs survivors.
    const bool shrink =
        !exhausted && policy.shrink_on_unrecoverable && any_survivor;
    // Without spare nodes the restart also runs on the shrunken map. With
    // no survivors at all the repartition is impossible — the restart runs
    // on the full cluster instead.
    if (shrink || (!opts_.spare_nodes && any_survivor))
      absorb(failed, client, record);
    // Rung 5 — scratch restart, the deterministic floor of the ladder (the
    // fate of an unprotected solver, paper §1). Always reachable: an
    // all-ranks failure or an exhausted retry budget lands here.
    client.restart();
    queue_.clear();
    snapshots_.clear();
    last_recoverable_ = -1;
    resume = 0;
    record.restarted_from_scratch = true;
    record.rung = shrink ? RecoveryRung::shrink : RecoveryRung::scratch;
    record.attempted.push_back(record.rung);
    retry_count_ = 0; // a restart is progress: the cascade window is over
  }

  record.restored_to = resume;
  record.wasted_iterations = j_fail - resume;
  record.modeled_time = cluster_->modeled_time() - t0;
  if (observer_) observer_->on_recovery(record);
  return resume;
}

bool ResilienceEngine::try_rejoin(index_t j, const Client& client,
                                  RecoveryRecord& record) {
  if (!opts_.policy.rejoin || retired_.empty() || j <= 0 ||
      j % opts_.interval != 0) {
    return false;
  }
  ESRP_CHECK(cluster_ != nullptr);
  const double t0 = cluster_->modeled_time();
  // The strategy state captured on the shrunken partition is stale; drop
  // it and let the following storage stages / checkpoints replenish it on
  // the re-expanded map. The live state continues the trajectory exactly.
  queue_.clear();
  snapshots_.clear();
  last_recoverable_ = -1;
  retry_count_ = 0;
  move_to(*base_part_, client);
  owned_part_.reset();
  record.failed_at = j;
  record.restored_to = j;
  record.wasted_iterations = 0;
  record.rung = RecoveryRung::rejoin;
  record.attempted.push_back(RecoveryRung::rejoin);
  record.ranks_rejoined = static_cast<index_t>(retired_.size());
  retired_.clear();
  record.modeled_time = cluster_->modeled_time() - t0;
  if (observer_) observer_->on_recovery(record);
  return true;
}

rank_t ResilienceEngine::corrupt_redundant_state(const SdcEvent& e) {
  if (e.target == "pcopy") return queue_.corrupt_newest(e.index, e.bit);
  if (e.target == "checkpoint") {
    if (!checkpoint_ || !checkpoint_->has_checkpoint()) return -1;
    return checkpoint_->corrupt(0, e.index, e.bit);
  }
  ESRP_CHECK_MSG(false, "SdcEvent target \"" << e.target
                        << "\" does not name redundant state "
                           "(expected \"pcopy\" or \"checkpoint\")");
  return -1;
}

} // namespace esrp
