// Distributed pipelined PCG on the simulated cluster.
//
// The point of the pipelined variant is *communication hiding*: the single
// per-iteration allreduce (3 scalars: gamma, delta, ||r||^2) is posted
// before the preconditioner application and SpMV and completes while they
// compute (modeled via SimCluster::allreduce_overlapped). At high latency or
// large node counts this removes the reduction from the critical path that
// dominates classic PCG.
//
// Resilience rides on the same solver-agnostic ResilienceEngine as the
// classic solver (resilience/engine.hpp) and the shared ResilienceOptions
// surface, including multi-event failure schedules:
//   imcr — buddy checkpoints of the eight recurrence vectors plus the two
//          carried scalars, every T iterations;
//   esrp — exact state reconstruction for the pipelined recurrences, per
//          the paper's reference [16] (Levonyak et al.): the storage stage
//          disseminates redundant copies of the search direction p (the
//          iteration's SpMV input is m = P w, so the copies cannot ride the
//          ASpMV as in classic ESR) and saves the star snapshot at the
//          first storage iteration; recovery inverts the p-recurrence into
//          u, runs the standard Alg. 2 inner solves for r and x, and
//          derives w, s, q, z by row products (pipelined/pipelined_esr.hpp).
// Not supported here: no-spare recovery (repartitioning the pipelined
// plans is future work — ResilienceOptions::spare_nodes must stay true),
// residual replacement, and initial guesses.
#pragma once

#include <span>

#include "comm/aspmv_plan.hpp"
#include "comm/spmv_plan.hpp"
#include "common/observer.hpp"
#include "netsim/cluster.hpp"
#include "netsim/dist_vector.hpp"
#include "precond/preconditioner.hpp"
#include "resilience/engine.hpp"
#include "resilience/options.hpp"
#include "sparse/csr.hpp"

namespace esrp {

class DistPipelinedPcg {
public:
  /// `shared_plan` / `shared_aug` (optional, service layer) inject plans a
  /// prepared ProblemHandle built for this (matrix, partition, phi); the
  /// solver then borrows them in every solve() instead of rebuilding per
  /// call. They must outlive the solver, be built on `cluster.partition()`,
  /// and match `opts.phi` (aug). Plans are deterministic functions of those
  /// inputs, so borrowed and per-call-built plans solve bitwise identically.
  DistPipelinedPcg(const CsrMatrix& a, const Preconditioner& precond,
                   SimCluster& cluster, ResilienceOptions opts,
                   const SpmvPlan* shared_plan = nullptr,
                   const AspmvPlan* shared_aug = nullptr);

  /// Solve A x = b from the zero initial guess. `observer` (may be null)
  /// gets the same hooks as ResilientPcg::solve (core/resilient_pcg.hpp).
  /// The result's `sdc` stays empty: this solver injects no bit-flips.
  ResilientSolveResult solve(std::span<const real_t> b,
                             SolverObserver* observer = nullptr);

  const ResilienceOptions& options() const { return opts_; }
  /// Introspection for tests, mirroring ResilientPcg.
  std::vector<index_t> queue_tags() const { return resilience_.queue_tags(); }
  index_t last_recoverable() const { return resilience_.last_recoverable(); }

private:
  const CsrMatrix* a_;
  const Preconditioner* precond_;
  SimCluster* cluster_;
  ResilienceOptions opts_;
  const SpmvPlan* shared_plan_ = nullptr;  ///< borrowed; may be null
  const AspmvPlan* shared_aug_ = nullptr;  ///< borrowed; may be null
  ResilienceEngine resilience_;
};

} // namespace esrp
