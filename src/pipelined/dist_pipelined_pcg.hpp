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
// Not supported here, and rejected by the constructor: no-spare recovery
// and the shrink/rejoin policy rungs (the solver has no repartition hook
// yet — ResilienceOptions::spare_nodes must stay true), SDC injection
// (sdc_events), and residual replacement. Initial guesses are not taken.
//
// The partition-bound machinery — plans, exchange engine, P apply and the
// charged rank loops — is the DistOperator it shares with ResilientPcg
// (comm/dist_operator.hpp).
#pragma once

#include <span>

#include "comm/aspmv_plan.hpp"
#include "comm/dist_operator.hpp"
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
  /// `shared_plan` / `shared_aug` (optional; the registry drivers pass their
  /// ProblemHandle's) are prepared plans the distributed operator borrows
  /// (comm/dist_operator.hpp).
  DistPipelinedPcg(const CsrMatrix& a, const Preconditioner& precond,
                   SimCluster& cluster, ResilienceOptions opts,
                   const SpmvPlan* shared_plan = nullptr,
                   const AspmvPlan* shared_aug = nullptr);

  /// Solve A x = b from the zero initial guess. `observer` (may be null)
  /// gets the same hooks as ResilientPcg::solve (core/resilient_pcg.hpp).
  /// The result's `sdc` stays empty: this solver injects no bit-flips.
  SolveOutcome solve(std::span<const real_t> b,
                     SolverObserver* observer = nullptr);

private:
  ResilienceOptions opts_;
  DistOperator op_;
  ResilienceEngine resilience_;
};

} // namespace esrp
