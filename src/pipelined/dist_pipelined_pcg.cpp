#include "pipelined/dist_pipelined_pcg.hpp"

#include <array>
#include <cmath>

#include "comm/exchange.hpp"
#include "common/error.hpp"
#include "common/fused.hpp"
#include "common/vec.hpp"
#include "pipelined/pipelined_esr.hpp"

namespace esrp {

namespace {

/// Engine configuration of the pipelined solver: the eight recurrence
/// vectors + {gamma_prev, alpha_prev} with the leading copy pairing of
/// reference [16] (snapshot t consumes copies p'^(t), p'^(t+1)); one extra
/// snapshot scalar carries beta^(t), which only exists mid-iteration t.
ResilienceEngine::Config pipelined_engine_config() {
  ResilienceEngine::Config cfg;
  // Two star-snapshot slots: with T = 1 iteration j declares snapshot j-1
  // recoverable while snapshot j is already being captured.
  cfg.snapshot_slots = 2;
  cfg.snapshot_extra_scalars = 1;
  cfg.pairing = ResilienceEngine::CopyPairing::leading;
  cfg.checkpoint_vectors = kPipelinedVectors;
  cfg.checkpoint_scalars = 2;
  return cfg;
}

} // namespace

DistPipelinedPcg::DistPipelinedPcg(const CsrMatrix& a,
                                   const Preconditioner& precond,
                                   SimCluster& cluster,
                                   ResilienceOptions opts,
                                   const SpmvPlan* shared_plan,
                                   const AspmvPlan* shared_aug)
    : opts_(opts),
      op_(a, precond, cluster, opts_, shared_plan, shared_aug),
      resilience_(opts, cluster.partition(), pipelined_engine_config()) {
  ESRP_CHECK_MSG(opts_.sdc_events.empty(),
                 "SDC injection (sdc_events) is not implemented for the "
                 "pipelined solver");
  ESRP_CHECK_MSG(opts_.residual_replacement == 0,
                 "residual replacement is not implemented for the pipelined "
                 "solver");
  ESRP_CHECK(opts_.rtol > 0);
}

SolveOutcome DistPipelinedPcg::solve(std::span<const real_t> b,
                                     std::span<const real_t> x0,
                                     SolverObserver* observer) {
  SimCluster& cluster = op_.cluster();
  const BlockRowPartition& part = cluster.partition();
  const index_t n = op_.matrix().rows();
  ESRP_CHECK(static_cast<index_t>(b.size()) == n);
  ESRP_CHECK(x0.empty() || static_cast<index_t>(x0.size()) == n);
  const double model_t0 = cluster.modeled_time();
  ExchangeEngine& engine = op_.engine();

  SolveOutcome result;
  DistVector x(part), r(part), u(part), w(part), m(part), nv(part);
  DistVector z(part), q(part), s(part), p(part);
  real_t gamma_prev = 0, alpha_prev = 0;

  // The SolverState contract with the resilience engine: the eight
  // recurrence vectors in PipelinedVec order, the m/nv scratch, and the two
  // carried scalars.
  auto state = [&] {
    return SolverState{{&x, &r, &u, &w, &z, &q, &s, &p},
                       {&m, &nv},
                       {&gamma_prev, &alpha_prev}};
  };

  DistVector b_dist(part, b);
  const real_t bnorm = std::sqrt(op_.dot(b_dist, b_dist));
  ESRP_CHECK_MSG(bnorm > 0, "right-hand side must be non-zero");

  auto initialize = [&] {
    if (x0.empty()) {
      x.zero_all();
      r.set_from_global(b); // zero initial guess: no SpMV needed
    } else {
      x.set_from_global(x0);
      engine.spmv(x, r);
      op_.residual(b, r, r);
    }
    op_.apply_precond(r, u);
    engine.spmv(u, w);
    z.zero_all();
    q.zero_all();
    s.zero_all();
    p.zero_all();
    gamma_prev = alpha_prev = 0;
  };
  initialize();
  resilience_.begin_solve(cluster, observer);

  // Recovery-ladder hooks. The engine rebinds the recurrence vectors
  // (reached through `state`) after set_partition, so no-spare, shrink and
  // rejoin need nothing else from this solver.
  ResilienceEngine::Client client;
  client.state = state;
  client.restart = initialize;
  client.set_partition = [this](const BlockRowPartition& np) {
    op_.rebuild_on_partition(np);
  };
  client.reconstruct = [&](StateSnapshot& stars, const RedundantCopy& prev,
                           const RedundantCopy& cur,
                           std::span<const rank_t> failed,
                           RecoveryRecord& record) {
    ReconstructionInputs in;
    in.a = &op_.matrix();
    in.p_action = op_.precond().action_matrix();
    in.formulation = opts_.formulation;
    // Only the matrix formulation reads M; asking for it may assemble it.
    if (in.formulation == PrecondFormulation::matrix)
      in.p_matrix = op_.precond().matrix_form();
    in.part = &op_.partition();
    in.failed = failed;
    in.p_prev = &prev; // leading pairing: `prev` is p'^(t), the rollback tag
    in.p_cur = &cur;   // and `cur` is p'^(t+1)
    in.beta_prev = stars.scalar(2); // beta^(t)
    in.b_global = b;
    const PipelinedEsrOutput out =
        reconstruct_pipelined_state(in, stars, cluster);
    if (!out.ok) return false;

    // Survivors roll back to the stars; replacements receive the
    // reconstructed entries; the repaired state becomes the new snapshot.
    const SolverState st = state();
    stars.restore_vectors(st);
    const std::array<const Vector*, kPipelinedVectors> fixed = {
        &out.x_f, &out.r_f, &out.u_f, &out.w_f,
        &out.z_f, &out.q_f, &out.s_f, &out.p_f};
    for (std::size_t k = 0; k < kPipelinedVectors; ++k) {
      write_lost_entries(*st.vectors[k], out.lost, *fixed[k]);
      stars.vec(k).copy_from(*st.vectors[k]);
    }
    gamma_prev = stars.scalar(0);
    alpha_prev = stars.scalar(1);
    record.inner_iterations_precond = out.inner_iterations_precond;
    record.inner_iterations_matrix = out.inner_iterations_matrix;
    return true;
  };

  index_t j = 0;
  index_t executed = 0;
  Vector spare_copy; // the buffer the queue handed back, for the next capture

  while (executed < opts_.cap_or(kDistributedIterationCap)) {
    // Rejoin rung: at a storage-cadence iteration, retired ranks come back
    // and the solve re-expands onto the full cluster (policy-gated).
    {
      RecoveryRecord rejoin_rec;
      if (resilience_.try_rejoin(j, client, rejoin_rec))
        result.recoveries.push_back(rejoin_rec);
    }
    if (resilience_.checkpoint_due(j))
      resilience_.store_checkpoint(j, state());

    // ESRP storage stage (ref. [16]): disseminate the redundant copies of
    // p and capture the star snapshot at the *first* storage iteration —
    // the leading pairing makes it recoverable once the second iteration's
    // copy is in place.
    const ResilienceEngine::StoragePlan stores = resilience_.storage_plan(j);
    if (stores.store()) {
      spare_copy = resilience_.push_copy(
          engine.disseminate(op_.aug(), p, j, std::move(spare_copy)));
      if (stores.first_store || opts_.interval == 1)
        resilience_.save_snapshot(j, state());
      if (j >= 1 && resilience_.has_copy(j - 1) &&
          resilience_.has_snapshot(j - 1))
        resilience_.set_recoverable(j - 1);
    }

    // Local dot contributions, then post the allreduce and overlap it with
    // the preconditioner application and the SpMV. The gamma/delta/||r||^2
    // triple comes from one segmented-dot call per task range.
    const auto [gamma, delta, rr] =
        op_.reduce_ranks<3>(6.0, {{{r, u}, {w, u}, {r, r}}});
    op_.apply_precond(w, m);
    engine.spmv(m, nv, /*complete_step=*/false);
    cluster.allreduce_overlapped(3, CommCategory::allreduce);

    result.final_relres = std::sqrt(rr) / bnorm;
    // Before the convergence break: observers see the converging relres,
    // matching every other solver behind the facade.
    if (observer) observer->on_iteration(j, result.final_relres);
    if (result.final_relres < opts_.rtol) {
      result.converged = true;
      break;
    }

    // Failure injection point: after the SpMV/storage phase, as in
    // ResilientPcg.
    if (const FailureEvent* event = resilience_.pending_event(j)) {
      RecoveryRecord record;
      j = resilience_.recover(*event, j, client, record);
      result.recoveries.push_back(record);
      ++executed;
      continue;
    }

    real_t alpha, beta;
    if (gamma_prev == 0) {
      beta = 0;
      ESRP_CHECK_MSG(delta > 0, "w^T u <= 0: operator not SPD");
      alpha = gamma / delta;
    } else {
      beta = gamma / gamma_prev;
      const real_t denom = delta - beta * gamma / alpha_prev;
      ESRP_CHECK_MSG(denom != 0, "pipelined PCG breakdown at iteration " << j);
      alpha = gamma / denom;
    }
    // beta^(j) completes the snapshot captured earlier this iteration: the
    // p-recurrence inversion at rollback target j needs it.
    if (opts_.strategy == Strategy::esrp)
      resilience_.set_snapshot_scalar(j, 2, beta);

    // The z/q/s/p xpby quartet and the x/r/u/w axpy quartet in one sweep.
    op_.for_each_rank(16.0, [&](RowRange rows) {
      fused_pipelined_update(z.rows(rows), nv.rows(rows), q.rows(rows),
                             m.rows(rows), s.rows(rows), w.rows(rows),
                             p.rows(rows), u.rows(rows), x.rows(rows),
                             r.rows(rows), alpha, beta);
    });
    cluster.complete_step();

    gamma_prev = gamma;
    alpha_prev = alpha;
    ++j;
    ++executed;
  }

  result.iterations = j;
  result.executed_iterations = executed;
  result.modeled_time = cluster.modeled_time() - model_t0;
  result.x = x.gather_global();
  result.r = r.gather_global();
  return result;
}

} // namespace esrp
