// Distributed PCG with algorithm-based checkpoint-recovery — the paper's
// Alg. 3 plus the failure-injection and recovery protocol of §4.
//
// The resilience machinery itself — strategy state (redundancy queue +
// storage stages for ESRP, buddy checkpoints for IMCR), failure-event
// scheduling, and recovery orchestration including the no-spare path — is
// the solver-agnostic ResilienceEngine (resilience/engine.hpp); this solver
// is its first client and contributes only what is specific to the classic
// CG recurrences: the solve loop, and the Alg. 2 reconstruction hook
// (z from the p-recurrence inversion, then r and x by inner solves —
// core/reconstruction.hpp). The Strategy enum and the shared
// ResilienceOptions / RecoveryRecord types live in resilience/options.hpp;
// the pipelined solver (pipelined/dist_pipelined_pcg.hpp) consumes the very
// same surface and returns the same SolveOutcome. The two solvers
// also share one DistOperator (comm/dist_operator.hpp): plans, exchange
// engine, P apply and the charged rank loops.
//
// Failure model (paper §4/§5): at the marked iteration the affected ranks
// zero all their dynamic data (vector slices and scalars) and then act as
// their own replacement nodes. The event is injected after the
// SpMV/storage phase of the marked iteration, before the alpha update.
// Static data (A, P, b) is assumed reloadable from safe storage and its
// reload is not charged, as in the paper. The paper injects one event per
// run; ResilienceOptions::extra_failures schedules repeated recoveries.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "comm/aspmv_plan.hpp"
#include "comm/dist_operator.hpp"
#include "comm/exchange.hpp"
#include "comm/spmv_plan.hpp"
#include "common/observer.hpp"
#include "core/reconstruction.hpp"
#include "netsim/cluster.hpp"
#include "netsim/dist_vector.hpp"
#include "netsim/failure.hpp"
#include "precond/preconditioner.hpp"
#include "resilience/engine.hpp"
#include "resilience/options.hpp"
#include "sparse/csr.hpp"

namespace esrp {

/// Hook invoked at the top of every iteration body (before the SpMV phase):
/// (j, x, r, z, p). Used by tests to snapshot the exact solver state.
using IterationHook = std::function<void(index_t, const DistVector&,
                                         const DistVector&, const DistVector&,
                                         const DistVector&)>;

class ResilientPcg {
public:
  /// `precond` must outlive the solver and must expose an explicit action
  /// matrix whose rows are node-local (block Jacobi qualifies); this is
  /// required by both the distributed application and the reconstruction.
  ///
  /// `shared_plan` / `shared_aug` (optional; the registry drivers pass their
  /// ProblemHandle's) are prepared plans the distributed operator borrows
  /// (comm/dist_operator.hpp). After a no-spare repartition the solver
  /// switches to its own rebuilt plans.
  ResilientPcg(const CsrMatrix& a, const Preconditioner& precond,
               SimCluster& cluster, ResilienceOptions opts,
               const SpmvPlan* shared_plan = nullptr,
               const AspmvPlan* shared_aug = nullptr);

  /// Solve A x = b from the zero initial guess (or `x0` when given).
  /// `observer` (may be null) sees on_iteration(j, ||r||_2 / ||b||_2) once
  /// per executed iteration body plus the final converging check — not on a
  /// bare iteration-cap exit, matching the sequential solvers — and
  /// on_failure / on_recovery around every failure event. An injected SDC
  /// bit-flip is reported as on_failure with cause = FailureCause::sdc and
  /// the corrupted entry's owner as the single rank.
  SolveOutcome solve(std::span<const real_t> b,
                     std::span<const real_t> x0 = {},
                     SolverObserver* observer = nullptr);

  void set_iteration_hook(IterationHook hook) { hook_ = std::move(hook); }

  /// Partition currently in effect (differs from the construction-time
  /// partition after a no-spare recovery).
  const BlockRowPartition& current_partition() const {
    return op_.partition();
  }

private:
  /// {<r,z>, ||r||^2}: one sweep over every node's slices and one
  /// 2-scalar allreduce.
  std::array<real_t, 2> rz_and_rr();
  void initialize_state(std::span<const real_t> b, std::span<const real_t> x0);

  /// Fire any not-yet-injected SdcEvent scheduled for iteration `j`:
  /// flip the bit in the owner's slice, append a record to `result`, and
  /// report it to `observer` (may be null) as an sdc-cause failure.
  void inject_sdc(index_t j, SolveOutcome& result,
                  SolverObserver* observer);

  /// The SolverState contract with the resilience engine: live vectors
  /// {x, r, z, p}, scratch {ap}, scalars {beta}.
  SolverState solver_state();

  /// ESRP reconstruction hook (Alg. 2): rebuild the failed entries at the
  /// star snapshot from the two consecutive redundant copies and roll the
  /// live state back to the repaired snapshot.
  bool reconstruct_lost(StateSnapshot& stars, const RedundantCopy& prev,
                        const RedundantCopy& cur,
                        std::span<const rank_t> failed,
                        std::span<const real_t> b, RecoveryRecord& record);

  ResilienceOptions opts_;
  DistOperator op_;
  ResilienceEngine resilience_;

  // Solver state (valid during solve()).
  std::unique_ptr<DistVector> x_, r_, z_, p_, ap_;
  real_t beta_ = 0;
  real_t beta_dstar_ = 0; ///< the paper's beta**, captured at mT

  IterationHook hook_;
  std::vector<char> sdc_fired_; ///< one-shot flags, parallel to sdc_events
};

} // namespace esrp
