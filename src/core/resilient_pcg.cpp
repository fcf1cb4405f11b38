#include "core/resilient_pcg.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/error.hpp"
#include "common/fused.hpp"
#include "core/reconstruction.hpp"
#include "common/vec.hpp"

namespace esrp {

namespace {

/// Engine configuration of the classic solver: one star snapshot of
/// {x, r, z, p} + beta, with the trailing copy pairing of Alg. 2 (z^(t)
/// derives from copies p'^(t-1), p'^(t)).
ResilienceEngine::Config classic_engine_config() {
  ResilienceEngine::Config cfg;
  cfg.snapshot_slots = 1;
  cfg.pairing = ResilienceEngine::CopyPairing::trailing;
  cfg.checkpoint_vectors = 4;
  cfg.checkpoint_scalars = 1;
  return cfg;
}

} // namespace

ResilientPcg::ResilientPcg(const CsrMatrix& a, const Preconditioner& precond,
                           SimCluster& cluster, ResilienceOptions opts,
                           const SpmvPlan* shared_plan,
                           const AspmvPlan* shared_aug)
    : opts_(opts),
      op_(a, precond, cluster, opts_, shared_plan, shared_aug),
      resilience_(opts, cluster.partition(), classic_engine_config()) {
  ESRP_CHECK(opts.rtol > 0);
  ESRP_CHECK(opts_.residual_replacement >= 0);
  ESRP_CHECK(opts_.sdc_threshold > 0);
  for (const SdcEvent& e : opts_.sdc_events) {
    if (!e.enabled()) continue;
    ESRP_CHECK_MSG(e.target == "p" || e.target == "x" || e.target == "r" ||
                       e.target == "checkpoint" || e.target == "pcopy",
                   "SDC target must be p, x, r, checkpoint, or pcopy, got '"
                       << e.target << "'");
    ESRP_CHECK_MSG(e.index >= 0 && e.index < a.rows(),
                   "SDC entry " << e.index << " outside [0, " << a.rows()
                                << ")");
    ESRP_CHECK_MSG(e.bit >= 0 && e.bit < 64,
                   "SDC bit " << e.bit << " outside [0, 64)");
  }
}

SolverState ResilientPcg::solver_state() {
  return SolverState{{x_.get(), r_.get(), z_.get(), p_.get()},
                     {ap_.get()},
                     {&beta_}};
}

std::array<real_t, 2> ResilientPcg::rz_and_rr() {
  const std::array<real_t, 2> sums =
      op_.reduce_ranks<2>(4.0, {{{*r_, *z_}, {*r_, *r_}}});
  op_.cluster().allreduce(2, CommCategory::allreduce);
  return sums;
}

void ResilientPcg::initialize_state(std::span<const real_t> b,
                                    std::span<const real_t> x0) {
  if (x0.empty()) {
    x_->zero_all();
    // r(0) = b with a zero initial guess: no SpMV needed.
    r_->set_from_global(b);
  } else {
    x_->set_from_global(x0);
    op_.engine().spmv(*x_, *r_);
    op_.residual(b, *r_, *r_);
  }
  op_.apply_precond(*r_, *z_);
  p_->copy_from(*z_);
  beta_ = 0;
  op_.cluster().complete_step();
}

bool ResilientPcg::reconstruct_lost(StateSnapshot& stars,
                                    const RedundantCopy& prev,
                                    const RedundantCopy& cur,
                                    std::span<const rank_t> failed,
                                    std::span<const real_t> b,
                                    RecoveryRecord& record) {
  const BlockRowPartition& part = op_.partition();
  ReconstructionInputs in;
  in.a = &op_.matrix();
  in.p_action = op_.precond().action_matrix();
  in.formulation = opts_.formulation;
  // Only the matrix formulation reads M; asking for it may assemble it.
  if (in.formulation == PrecondFormulation::matrix)
    in.p_matrix = op_.precond().matrix_form();
  in.z_star = &stars.vec(2);
  in.part = &part;
  in.failed = failed;
  in.p_prev = &prev;
  in.p_cur = &cur;
  in.beta_prev = stars.scalar(0); // beta^(j*-1), captured with the snapshot
  in.x_star = &stars.vec(0);
  in.r_star = &stars.vec(1);
  in.b_global = b;
  const ReconstructionOutput out = reconstruct_state(in, op_.cluster());
  if (!out.ok) return false;

  // Survivors roll back to the star copies; replacements receive the
  // reconstructed entries.
  x_->copy_from(stars.vec(0));
  r_->copy_from(stars.vec(1));
  z_->copy_from(stars.vec(2));
  p_->copy_from(stars.vec(3));
  write_lost_entries(*x_, out.lost, out.x_f);
  write_lost_entries(*r_, out.lost, out.r_f);
  write_lost_entries(*z_, out.lost, out.z_f);
  write_lost_entries(*p_, out.lost, out.p_f);
  // The replacements' star copies are the state just reconstructed.
  stars.vec(0).copy_from(*x_);
  stars.vec(1).copy_from(*r_);
  stars.vec(2).copy_from(*z_);
  stars.vec(3).copy_from(*p_);
  beta_ = stars.scalar(0);
  record.inner_iterations_precond = out.inner_iterations_precond;
  record.inner_iterations_matrix = out.inner_iterations_matrix;
  return true;
}

void ResilientPcg::inject_sdc(index_t j, SolveOutcome& result,
                              SolverObserver* observer) {
  static_assert(sizeof(real_t) == sizeof(std::uint64_t),
                "bit-flip injection assumes 64-bit reals");
  // One observer hook sees the full fault timeline: a flip surfaces as an
  // on_failure event with cause = sdc, naming the corrupted entry's owner.
  auto report = [&](const SdcRecord& rec) {
    result.sdc.push_back(rec);
    if (observer == nullptr) return;
    FailureEvent event;
    event.iteration = rec.event.iteration;
    event.ranks = {rec.rank};
    event.cause = FailureCause::sdc;
    observer->on_failure(event);
  };
  for (std::size_t k = 0; k < opts_.sdc_events.size(); ++k) {
    const SdcEvent& e = opts_.sdc_events[k];
    if (sdc_fired_[k] || !e.enabled() || e.iteration != j) continue;
    sdc_fired_[k] = 1;
    if (e.target == "checkpoint" || e.target == "pcopy") {
      // Redundant-state corruption: the flip lands in the stored buddy
      // checkpoint / the newest redundancy-queue copy and lies dormant
      // until a recovery consults (and checksum-rejects) it. rank = -1
      // means there was nothing to corrupt yet — still reported honestly.
      SdcRecord rec;
      rec.event = e;
      rec.rank = resilience_.corrupt_redundant_state(e);
      report(rec);
      continue;
    }
    const BlockRowPartition& cp = op_.partition();
    DistVector* v = e.target == "x" ? x_.get()
                    : e.target == "r" ? r_.get()
                                      : p_.get();
    const rank_t owner = cp.owner(e.index);
    const index_t loc = cp.to_local(e.index);
    auto slice = v->local(owner);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &slice[static_cast<std::size_t>(loc)], sizeof bits);
    bits ^= std::uint64_t{1} << e.bit;
    std::memcpy(&slice[static_cast<std::size_t>(loc)], &bits, sizeof bits);
    SdcRecord rec;
    rec.event = e;
    rec.rank = owner;
    report(rec);
  }
}

SolveOutcome ResilientPcg::solve(std::span<const real_t> b,
                                 std::span<const real_t> x0,
                                 SolverObserver* observer) {
  SimCluster& cluster = op_.cluster();
  const BlockRowPartition& part = cluster.partition();
  const index_t n = op_.matrix().rows();
  ESRP_CHECK(static_cast<index_t>(b.size()) == n);
  ESRP_CHECK(x0.empty() || static_cast<index_t>(x0.size()) == n);
  const index_t T = opts_.interval;

  const double model_t0 = cluster.modeled_time();
  SolveOutcome result;

  x_ = std::make_unique<DistVector>(part);
  r_ = std::make_unique<DistVector>(part);
  z_ = std::make_unique<DistVector>(part);
  p_ = std::make_unique<DistVector>(part);
  ap_ = std::make_unique<DistVector>(part);
  resilience_.begin_solve(cluster, observer);
  beta_dstar_ = 0;
  sdc_fired_.assign(opts_.sdc_events.size(), 0);

  // The SolverState contract plus the classic-recurrence hooks the engine
  // orchestrates on a failure.
  ResilienceEngine::Client client;
  client.state = [this] { return solver_state(); };
  client.restart = [this, b, x0] {
    initialize_state(b, x0);
    beta_dstar_ = 0;
  };
  client.set_partition = [this](const BlockRowPartition& np) {
    op_.rebuild_on_partition(np);
  };
  client.reconstruct = [this, b](StateSnapshot& stars,
                                 const RedundantCopy& prev,
                                 const RedundantCopy& cur,
                                 std::span<const rank_t> failed,
                                 RecoveryRecord& record) {
    return reconstruct_lost(stars, prev, cur, failed, b, record);
  };

  DistVector b_dist(part, b);
  const real_t bnorm = std::sqrt(op_.dot(b_dist, b_dist));
  ESRP_CHECK_MSG(bnorm > 0, "right-hand side must be non-zero");

  initialize_state(b, x0);
  // <r,z> and ||r||^2 merged into one sweep + one allreduce (the unfused
  // pair posted two single-scalar allreduces).
  auto [rz, rr0] = rz_and_rr();
  real_t rnorm = std::sqrt(rr0);

  index_t j = 0;
  index_t executed = 0;
  Vector spare_copy; // the buffer the queue handed back, for the next capture

  while (true) {
    result.final_relres = rnorm / bnorm;
    // The sequential solvers' observer contract: on_iteration sees the
    // converging check and every executed body, but not the bare
    // iteration-cap exit (their loop bound ends without a final call).
    if (result.final_relres < opts_.rtol) {
      if (observer) observer->on_iteration(j, result.final_relres);
      result.converged = true;
      break;
    }
    if (executed >= opts_.cap_or(kDistributedIterationCap)) break;
    if (observer) observer->on_iteration(j, result.final_relres);

    if (hook_) hook_(j, *x_, *r_, *z_, *p_);

    // --- Rejoin rung: at a storage-cadence iteration, retired ranks come
    // back and the solve re-expands onto the full cluster (policy-gated;
    // no-op under the default policy). ---
    {
      RecoveryRecord rejoin_rec;
      if (resilience_.try_rejoin(j, client, rejoin_rec))
        result.recoveries.push_back(rejoin_rec);
    }

    // --- Storage / checkpoint phase (Alg. 3 lines 4-12) ---
    const ResilienceEngine::StoragePlan stores = resilience_.storage_plan(j);
    if (resilience_.checkpoint_due(j))
      resilience_.store_checkpoint(j, solver_state());

    // --- SpMV phase ---
    if (stores.store()) {
      spare_copy = resilience_.push_copy(op_.engine().aspmv(
          op_.aug(), *p_, j, *ap_, std::move(spare_copy)));
      if (stores.second_store) {
        // beta currently holds beta^(j-1), the value Alg. 2 needs; for
        // T >= 3 it equals the beta** captured at the end of iteration mT.
        if (T > 1 && j > T + 1) ESRP_CHECK(beta_ == beta_dstar_);
        resilience_.save_snapshot(j, solver_state());
        if (resilience_.has_copy(j - 1)) resilience_.set_recoverable(j);
      }
    } else {
      op_.engine().spmv(*p_, *ap_);
    }

    // --- Failure injection (paper §4: zero out at the marked iteration) ---
    if (const FailureEvent* event = resilience_.pending_event(j)) {
      RecoveryRecord record;
      j = resilience_.recover(*event, j, client, record);
      // A redundant-state corruption (SDC target checkpoint/pcopy) is
      // detected exactly when a recovery checksum-rejects the state it
      // corrupted — mirror that verdict into the pending SDC records.
      if (record.copies_corrupt > 0 || record.checkpoints_corrupt > 0) {
        for (SdcRecord& rec : result.sdc) {
          if (rec.detected) continue;
          if ((rec.event.target == "pcopy" && record.copies_corrupt > 0) ||
              (rec.event.target == "checkpoint" &&
               record.checkpoints_corrupt > 0)) {
            rec.detected = true;
            rec.detected_at = record.failed_at;
          }
        }
      }
      result.recoveries.push_back(record);
      const auto [rz_rec, rr_rec] = rz_and_rr();
      rz = rz_rec;
      rnorm = std::sqrt(rr_rec);
      ++executed;
      continue;
    }

    // --- SDC injection (scenario lab): the flip lands after the SpMV, so
    // a corrupted p desynchronizes the x update from the r update and the
    // damage is observable as recursive-vs-true residual drift. ---
    if (!opts_.sdc_events.empty()) inject_sdc(j, result, observer);

    // --- CG updates (Alg. 3 lines 13-18) ---
    const real_t pap = op_.dot(*p_, *ap_);
    ESRP_CHECK_MSG(pap > 0, "p^T A p <= 0 at iteration " << j);
    const real_t alpha = rz / pap;
    op_.for_each_rank(4.0, [&](RowRange rows) {
      fused_axpy2(x_->rows(rows), alpha, p_->rows(rows), r_->rows(rows),
                  -alpha, ap_->rows(rows));
    });
    op_.apply_precond(*r_, *z_);
    const auto [rz_next, rr] = rz_and_rr();
    beta_ = rz_next / rz;
    rz = rz_next;
    rnorm = std::sqrt(rr);
    op_.for_each_rank(2.0, [&](RowRange rows) {
      vec_xpby(p_->rows(rows), z_->rows(rows), beta_);
    });
    if (opts_.strategy == Strategy::esrp && T > 1 && stores.first_store)
      beta_dstar_ = beta_; // the paper's beta** = beta^(mT)

    // --- Residual replacement (van der Vorst & Ye, the paper's [27]) ---
    if (opts_.residual_replacement > 0 &&
        (j + 1) % opts_.residual_replacement == 0) {
      op_.engine().spmv(*x_, *ap_); // ap_ reused as scratch for A x
      op_.residual(b, *ap_, *r_);
      op_.apply_precond(*r_, *z_);
      const auto [rz_new, rr_new] = rz_and_rr();
      rz = rz_new;
      const real_t rnorm_recursive = rnorm;
      rnorm = std::sqrt(rr_new);
      // SDC detection: a large relative gap between the recursive residual
      // norm and the freshly recomputed one means the recurrences and the
      // true state disagree — the signature of a bit-flip. Benign drift
      // (Eq. 2 of the paper) is orders of magnitude below the threshold.
      if (!result.sdc.empty()) {
        const real_t gap = std::abs(rnorm_recursive - rnorm) /
                           std::max(rnorm, real_t{1e-300});
        for (SdcRecord& rec : result.sdc) {
          if (rec.detected) continue;
          rec.discrepancy = std::max(rec.discrepancy, gap);
          if (gap > opts_.sdc_threshold) {
            rec.detected = true;
            rec.detected_at = j;
          }
        }
      }
    }
    cluster.complete_step();

    ++j;
    ++executed;
  }

  result.iterations = j;
  result.executed_iterations = executed;
  result.modeled_time = cluster.modeled_time() - model_t0;
  result.x = x_->gather_global();
  result.r = r_->gather_global();
  return result;
}

} // namespace esrp
