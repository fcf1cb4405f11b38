#include "pipelined/dist_pipelined_pcg.hpp"

#include <array>
#include <cmath>
#include <optional>

#include "comm/aspmv_plan.hpp"
#include "comm/exchange.hpp"
#include "comm/spmv_plan.hpp"
#include "common/error.hpp"
#include "common/fused.hpp"
#include "parallel/parallel.hpp"
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
    : a_(&a),
      precond_(&precond),
      cluster_(&cluster),
      opts_(opts),
      shared_plan_(shared_plan),
      shared_aug_(shared_aug),
      resilience_(opts, cluster.partition(), pipelined_engine_config()) {
  ESRP_CHECK(a.rows() == a.cols());
  ESRP_CHECK(a.rows() == cluster.partition().global_size());
  if (shared_plan_ != nullptr)
    ESRP_CHECK_MSG(&shared_plan_->partition() == &cluster.partition(),
                   "shared SpmvPlan was built on a different partition than "
                   "the cluster's");
  if (shared_aug_ != nullptr)
    ESRP_CHECK_MSG(shared_plan_ != nullptr &&
                       &shared_aug_->base() == shared_plan_ &&
                       shared_aug_->phi() == opts_.phi,
                   "shared AspmvPlan does not match the SpMV plan / phi of "
                   "this solve");
  ESRP_CHECK(precond.dim() == a.rows());
  check_node_local(precond, cluster.partition());
  if (opts_.strategy == Strategy::esrp &&
      opts_.precond_formulation == PrecondFormulation::matrix) {
    ESRP_CHECK_MSG(precond.matrix_form() != nullptr,
                   "the matrix formulation requires "
                   "Preconditioner::matrix_form()");
  }
  ESRP_CHECK_MSG(opts_.spare_nodes,
                 "no-spare recovery is not implemented for the pipelined "
                 "recurrences (repartitioning the overlapped plans is future "
                 "work); keep spare_nodes = true");
  ESRP_CHECK_MSG(opts_.residual_replacement == 0,
                 "residual replacement is not implemented for the pipelined "
                 "solver");
  ESRP_CHECK(opts_.rtol > 0 && opts_.inner_rtol > 0);
}

ResilientSolveResult DistPipelinedPcg::solve(std::span<const real_t> b,
                                             SolverObserver* observer) {
  const BlockRowPartition& part = cluster_->partition();
  const index_t n = a_->rows();
  ESRP_CHECK(static_cast<index_t>(b.size()) == n);
  const double model_t0 = cluster_->modeled_time();

  // Borrow the prepared plans when a handle injected them; otherwise build
  // per call as always (same inputs, bitwise-identical plans).
  std::optional<SpmvPlan> local_plan;
  if (shared_plan_ == nullptr) local_plan.emplace(*a_, part);
  const SpmvPlan& plan = shared_plan_ ? *shared_plan_ : *local_plan;
  ExchangeEngine engine(*a_, plan, *cluster_);
  // The augmentation plan only routes the ESRP storage stages' redundant
  // p copies: the regular iteration SpMV (input m) stays unaugmented.
  std::optional<AspmvPlan> local_aug;
  if (opts_.strategy == Strategy::esrp && shared_aug_ == nullptr)
    local_aug.emplace(plan, opts_.phi);
  const AspmvPlan* aug =
      shared_aug_ ? shared_aug_ : (local_aug ? &*local_aug : nullptr);

  // Per-node loops follow ResilientPcg's idiom: elementwise work is
  // parallel_for over ranks (disjoint slices), reductions are
  // parallel_reduce with a fixed grain of one rank per chunk combined in
  // rank order — bitwise identical to the serial rank loop at every thread
  // count (docs/parallelism.md).
  const auto nodes = static_cast<index_t>(part.num_nodes());
  const index_t rank_grain = adaptive_grain(nodes);
  // The constructor checked that P is node-local: each node applies its own
  // diagonal block of P.
  const auto p_ptr = precond_->action_matrix()->row_ptr();
  auto apply_precond = [&](const DistVector& in, DistVector& out) {
    parallel_for(index_t{0}, nodes, rank_grain, [&](index_t lo, index_t hi) {
      for (index_t i = lo; i < hi; ++i) {
        const auto s = static_cast<rank_t>(i);
        const index_t begin = part.begin(s), end = part.end(s);
        precond_->apply_local(begin, end, in.local(s), out.local(s));
        cluster_->add_compute(
            s, static_cast<double>(2 * (p_ptr[end] - p_ptr[begin])));
      }
    });
  };
  auto local_dot = [&](const DistVector& u, const DistVector& v) {
    return parallel_reduce(index_t{0}, nodes, index_t{1}, real_t{0},
                           [&](index_t lo, index_t hi) {
                             real_t acc = 0;
                             for (index_t i = lo; i < hi; ++i) {
                               const auto s = static_cast<rank_t>(i);
                               acc += vec_dot(u.local(s), v.local(s));
                               cluster_->add_compute(
                                   s, 2.0 * static_cast<double>(
                                                part.local_size(s)));
                             }
                             return acc;
                           });
  };
  // The gamma/delta/||r||^2 triple: one sweep over every rank's slices (was
  // three), feeding the single merged allreduce the formulation is built
  // around. Componentwise accumulation in rank order keeps each component
  // bitwise equal to its separate local_dot.
  using Triple = std::array<real_t, 3>;
  auto local_dot3 = [&](const DistVector& r, const DistVector& u,
                        const DistVector& w) {
    return parallel_reduce(
        index_t{0}, nodes, index_t{1}, Triple{0, 0, 0},
        [&](index_t lo, index_t hi) {
          Triple acc{0, 0, 0};
          for (index_t i = lo; i < hi; ++i) {
            const auto s = static_cast<rank_t>(i);
            const auto [g, d, n2] =
                vec_dot3(r.local(s), u.local(s), w.local(s), u.local(s),
                         r.local(s), r.local(s));
            acc[0] += g;
            acc[1] += d;
            acc[2] += n2;
            cluster_->add_compute(
                s, 6.0 * static_cast<double>(part.local_size(s)));
          }
          return acc;
        },
        [](Triple a, Triple b) {
          return Triple{a[0] + b[0], a[1] + b[1], a[2] + b[2]};
        });
  };
  // The full recurrence tail — the z/q/s/p xpby quartet plus the x/r/u/w
  // axpy quartet — in one sweep per rank (was eight).
  auto local_update = [&](DistVector& z, const DistVector& nv, DistVector& q,
                          const DistVector& m, DistVector& s_, DistVector& w,
                          DistVector& p, DistVector& u, DistVector& x,
                          DistVector& r, real_t alpha, real_t beta) {
    parallel_for(index_t{0}, nodes, rank_grain, [&](index_t lo, index_t hi) {
      for (index_t i = lo; i < hi; ++i) {
        const auto s = static_cast<rank_t>(i);
        fused_pipelined_update(z.local(s), nv.local(s), q.local(s),
                               m.local(s), s_.local(s), w.local(s),
                               p.local(s), u.local(s), x.local(s),
                               r.local(s), alpha, beta);
        cluster_->add_compute(
            s, 16.0 * static_cast<double>(part.local_size(s)));
      }
    });
  };

  ResilientSolveResult result;
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
  const real_t bnorm = std::sqrt(local_dot(b_dist, b_dist));
  cluster_->allreduce(1, CommCategory::allreduce);
  ESRP_CHECK_MSG(bnorm > 0, "right-hand side must be non-zero");

  auto initialize = [&] {
    x.zero_all();
    r.set_from_global(b); // zero initial guess
    apply_precond(r, u);
    engine.spmv(u, w);
    z.zero_all();
    q.zero_all();
    s.zero_all();
    p.zero_all();
    gamma_prev = alpha_prev = 0;
  };
  initialize();
  resilience_.begin_solve(*cluster_, observer);

  // Recovery-ladder hooks: this solver supplies reconstruct and restart
  // only. It leaves `repartition` and `rejoin` unset, so the engine skips
  // the shrink and rejoin rungs (validate_spec rejects shrink policies for
  // "dist-pipelined" via SolverEntry::supports_shrink); all other rungs —
  // reconstruct, older-snapshot (real here: pipelined storage keeps two
  // snapshot slots), IMCR checkpoint, scratch — apply unchanged.
  ResilienceEngine::Client client;
  client.state = state;
  client.restart = initialize;
  client.reconstruct = [&](StateSnapshot& stars, const RedundantCopy& prev,
                           const RedundantCopy& cur,
                           std::span<const rank_t> failed,
                           RecoveryRecord& record) {
    PipelinedEsrInputs in;
    in.a = a_;
    in.p_action = precond_->action_matrix();
    in.formulation = opts_.precond_formulation;
    in.p_matrix = precond_->matrix_form();
    in.part = &part;
    in.failed = failed;
    in.p_cur = &prev; // leading pairing: `prev` is the rollback tag t
    in.p_next = &cur; // and `cur` is p'^(t+1)
    in.beta = stars.scalar(2);
    in.stars = &stars;
    in.b_global = b;
    in.inner_rtol = opts_.inner_rtol;
    in.inner_max_iterations = opts_.inner_max_iterations;
    in.inner_block_size = opts_.inner_block_size;
    const PipelinedEsrOutput out = reconstruct_pipelined_state(in, *cluster_);
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

  while (executed < opts_.max_iterations) {
    if (resilience_.checkpoint_due(j))
      resilience_.store_checkpoint(j, state());

    // ESRP storage stage (ref. [16]): disseminate the redundant copies of
    // p and capture the star snapshot at the *first* storage iteration —
    // the leading pairing makes it recoverable once the second iteration's
    // copy is in place.
    const ResilienceEngine::StoragePlan stores = resilience_.storage_plan(j);
    if (stores.store()) {
      resilience_.push_copy(engine.disseminate(*aug, p, j));
      if (stores.first_store || opts_.interval == 1)
        resilience_.save_snapshot(j, state());
      if (j >= 1 && resilience_.has_copy(j - 1) &&
          resilience_.has_snapshot(j - 1))
        resilience_.set_recoverable(j - 1);
    }

    // Local dot contributions (one fused sweep), then post the allreduce
    // and overlap it with the preconditioner application and the SpMV.
    const auto [gamma, delta, rr] = local_dot3(r, u, w);
    apply_precond(w, m);
    engine.spmv(m, nv, /*complete_step=*/false);
    cluster_->allreduce_overlapped(3, CommCategory::allreduce);

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

    local_update(z, nv, q, m, s, w, p, u, x, r, alpha, beta);
    cluster_->complete_step();

    gamma_prev = gamma;
    alpha_prev = alpha;
    ++j;
    ++executed;
  }

  result.trajectory_iterations = j;
  result.executed_iterations = executed;
  result.modeled_time = cluster_->modeled_time() - model_t0;
  result.x = x.gather_global();
  result.r = r.gather_global();
  return result;
}

} // namespace esrp
