// Failure-event descriptions and helpers. A run carries a *schedule* of
// events (primary + extras, or a sampled stochastic schedule from the
// scenario registry); each event hits a contiguous block of ranks (a switch
// fault takes out a branch of the fat tree), with the failed ranks doubling
// as their own replacements after losing all dynamic data. Events are
// tagged with a cause so crash recoveries and detected silent data
// corruptions share one reporting surface.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace esrp {

/// What produced a failure event: a node crash (the paper's fail-stop
/// model, triggering state reconstruction) or a silent data corruption
/// (a bit-flip caught — or missed — by residual replacement).
enum class FailureCause { crash, sdc };

std::string to_string(FailureCause cause);

/// A single failure event: at the *start* of iteration `iteration` (before
/// any work of that iteration), the given ranks lose all dynamic data.
struct FailureEvent {
  index_t iteration = -1;       ///< -1 disables the event
  std::vector<rank_t> ranks;
  FailureCause cause = FailureCause::crash;

  bool enabled() const { return iteration >= 0 && !ranks.empty(); }
};

/// A silent-data-corruption event: at the start of iteration `iteration`,
/// bit `bit` of global entry `index` of the named target is flipped.
/// No rank loses data — the corruption travels with the arithmetic (live
/// vectors) or lies dormant in redundant state (checkpoint / p-copy) until
/// residual replacement or a recovery-time checksum verification notices.
struct SdcEvent {
  index_t iteration = -1; ///< -1 disables the event
  /// Corruption target: a live solver vector ("p", "x", "r") or redundant
  /// recovery state — "checkpoint" flips a bit of the stored IMCR buddy
  /// checkpoint, "pcopy" flips a bit of the newest redundancy-queue copy.
  /// Redundant-state corruption is detected (if ever consumed) by the
  /// recovery ladder's checksum verification, not by residual replacement.
  std::string target = "p";
  index_t index = 0;        ///< global entry index
  int bit = 51;             ///< bit to flip (0 = LSB of the mantissa)

  bool enabled() const { return iteration >= 0; }
};

/// Contiguous block of `count` ranks starting at `start`, wrapping modulo
/// `num_nodes` (paper §5: blocks starting at ranks 0 and 64).
std::vector<rank_t> contiguous_ranks(rank_t start, rank_t count,
                                     rank_t num_nodes);

/// True iff `rank` is in `ranks`.
bool rank_in(std::span<const rank_t> ranks, rank_t rank);

/// Sorted copy of the surviving ranks (complement of `failed`).
std::vector<rank_t> surviving_ranks(std::span<const rank_t> failed,
                                    rank_t num_nodes);

/// Validate one failure schedule in one place (every consumer — the
/// resilience engine, validate_spec, the scenario samplers — routes
/// through here instead of re-checking its own subset). Throws esrp::Error
/// naming the offending event when:
///  - an event is half-specified (iteration >= 0 XOR non-empty ranks),
///  - iterations are not strictly increasing (duplicates included),
///  - a rank repeats within one event,
///  - a rank lies outside [0, num_nodes).
/// An event may fail *all* ranks — the recovery ladder resolves that to a
/// deterministic scratch restart, it is not a schedule error. Disabled
/// events (iteration < 0 with empty ranks) are rejected too: merge first,
/// then validate.
void validate_failure_schedule(std::span<const FailureEvent> schedule,
                               rank_t num_nodes);

/// Copy `events` into one list sorted by iteration (stable), skipping
/// disabled events, then validate_failure_schedule the result.
std::vector<FailureEvent> merge_failure_schedule(
    std::span<const FailureEvent> events, rank_t num_nodes);

} // namespace esrp
