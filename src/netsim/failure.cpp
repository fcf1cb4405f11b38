#include "netsim/failure.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace esrp {

std::string to_string(FailureCause cause) {
  switch (cause) {
  case FailureCause::crash: return "crash";
  case FailureCause::sdc: return "sdc";
  }
  return "unknown";
}

std::vector<rank_t> contiguous_ranks(rank_t start, rank_t count,
                                     rank_t num_nodes) {
  ESRP_CHECK(num_nodes > 0);
  ESRP_CHECK_MSG(count >= 0 && count <= num_nodes,
                 "cannot fail " << count << " of " << num_nodes << " nodes");
  ESRP_CHECK(start >= 0 && start < num_nodes);
  std::vector<rank_t> out;
  out.reserve(static_cast<std::size_t>(count));
  for (rank_t k = 0; k < count; ++k)
    out.push_back(static_cast<rank_t>((start + k) % num_nodes));
  return out;
}

bool rank_in(std::span<const rank_t> ranks, rank_t rank) {
  return std::find(ranks.begin(), ranks.end(), rank) != ranks.end();
}

std::vector<rank_t> surviving_ranks(std::span<const rank_t> failed,
                                    rank_t num_nodes) {
  std::vector<rank_t> out;
  out.reserve(static_cast<std::size_t>(num_nodes) - failed.size());
  for (rank_t s = 0; s < num_nodes; ++s)
    if (!rank_in(failed, s)) out.push_back(s);
  return out;
}

void validate_failure_schedule(std::span<const FailureEvent> schedule,
                               rank_t num_nodes) {
  ESRP_CHECK(num_nodes > 0);
  index_t prev = -1;
  for (std::size_t e = 0; e < schedule.size(); ++e) {
    const FailureEvent& ev = schedule[e];
    ESRP_CHECK_MSG(ev.enabled(),
                   "failure event " << e << " is not fully specified "
                   "(needs iteration >= 0 and at least one rank; got "
                   "iteration " << ev.iteration << ", " << ev.ranks.size()
                   << " ranks)");
    ESRP_CHECK_MSG(ev.iteration > prev,
                   "failure schedule must be strictly increasing by "
                   "iteration: event " << e << " at iteration "
                   << ev.iteration << " follows iteration " << prev);
    prev = ev.iteration;
    for (std::size_t k = 0; k < ev.ranks.size(); ++k) {
      const rank_t r = ev.ranks[k];
      ESRP_CHECK_MSG(r >= 0 && r < num_nodes,
                     "failure event " << e << " (iteration " << ev.iteration
                     << "): rank " << r << " outside [0, " << num_nodes
                     << ")");
      for (std::size_t j = k + 1; j < ev.ranks.size(); ++j)
        ESRP_CHECK_MSG(ev.ranks[j] != r,
                       "failure event " << e << " (iteration "
                       << ev.iteration << "): rank " << r
                       << " listed more than once");
    }
  }
}

std::vector<FailureEvent> merge_failure_schedule(
    std::span<const FailureEvent> events, rank_t num_nodes) {
  // A default-constructed event (iteration -1, no ranks) means "no event";
  // a half-specified one (iteration set XOR ranks set) is kept so the
  // validation below rejects it with a message instead of silently
  // dropping what the caller probably intended to fire.
  const auto disabled = [](const FailureEvent& e) {
    return e.iteration < 0 && e.ranks.empty();
  };
  std::vector<FailureEvent> merged;
  merged.reserve(events.size());
  for (const FailureEvent& e : events)
    if (!disabled(e)) merged.push_back(e);
  std::stable_sort(merged.begin(), merged.end(),
                   [](const FailureEvent& a, const FailureEvent& b) {
                     return a.iteration < b.iteration;
                   });
  validate_failure_schedule(merged, num_nodes);
  return merged;
}

} // namespace esrp

