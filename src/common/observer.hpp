// SolverObserver — the one progress/fault hook surface every solver takes
// directly (`pcg_solve`, `pipelined_pcg_solve`, `ResilientPcg::solve`,
// `DistPipelinedPcg::solve`, `ResilienceEngine::begin_solve`) and the
// esrp::solve facade forwards unchanged. It lives below the solvers so they
// need no api/ dependency; api/solve_spec.hpp re-exports it.
#pragma once

#include "common/types.hpp"

namespace esrp {

struct FailureEvent;   // netsim/failure.hpp
struct RecoveryRecord; // resilience/options.hpp

/// All defaults are no-ops; override what you need. A null observer pointer
/// means "nobody is watching" everywhere it is accepted.
class SolverObserver {
public:
  virtual ~SolverObserver() = default;

  /// Every convergence check: (trajectory iteration j, ||r||_2 / ||b||_2)
  /// — once per executed iteration body plus the final (converging) check,
  /// identically across all solvers. After a recovery, j jumps back — the
  /// rollback.
  virtual void on_iteration(index_t /*iteration*/, real_t /*relres*/) {}

  /// A failure event fired (before any recovery work). Injected silent data
  /// corruptions arrive here too, with cause = FailureCause::sdc and the
  /// corrupted entry's owner as the single rank.
  virtual void on_failure(const FailureEvent& /*event*/) {}

  /// A recovery completed (reconstruction, checkpoint restore, shrink,
  /// rejoin, or scratch restart — see the record).
  virtual void on_recovery(const RecoveryRecord& /*record*/) {}
};

} // namespace esrp
