#include "solver/outcome.hpp"

namespace esrp {

std::string to_string(RecoveryRung r) {
  switch (r) {
    case RecoveryRung::none: return "none";
    case RecoveryRung::reconstruct: return "reconstruct";
    case RecoveryRung::older_snapshot: return "older-snapshot";
    case RecoveryRung::checkpoint: return "checkpoint";
    case RecoveryRung::shrink: return "shrink";
    case RecoveryRung::rejoin: return "rejoin";
    case RecoveryRung::scratch: return "scratch";
  }
  return "?";
}

index_t SolveOutcome::wasted_iterations() const {
  index_t total = 0;
  for (const RecoveryRecord& rec : recoveries) total += rec.wasted_iterations;
  return total;
}

double SolveOutcome::recovery_modeled_time() const {
  // Serial fixed-order sum over this outcome's recovery records (a handful
  // of entries, single thread); reproducible as-is. esrp-lint: allow(fp-accumulate)
  double total = 0;
  for (const RecoveryRecord& rec : recoveries) total += rec.modeled_time;
  return total;
}

bool SolveOutcome::restarted_from_scratch() const {
  for (const RecoveryRecord& rec : recoveries)
    if (rec.restarted_from_scratch) return true;
  return false;
}

} // namespace esrp
