// Stochastic failure processes for the scenario lab (ROADMAP item 3).
//
// The paper's protocol injects exactly one failure at a fixed iteration
// (§5); the scenario registry generalizes that into named, seeded arrival
// processes so survival-probability and expected-overhead curves can be
// swept instead of hand-picked:
//
//   failure_process_registry() — "none", "fixed", "exponential", "weibull",
//                                "rack"
//
// Parameterized keys take an argument after a colon, mirroring the matrix
// registry: "fixed:it=17,start=2,count=2", the paper's placement
// "fixed:it=worst,start=64,count=phi" (resolved per run from C, T and phi),
// "exponential:mean=30",
// "weibull:k=1.5,scale=40", and the correlation decorator
// "rack:4/exponential:mean=30" (every arrival takes out a contiguous block
// of 4 ranks — a switch fault on one fat-tree branch).
//
// Sampling is deterministic: the same spec + seed + context produce the
// same schedule on every platform and thread count (splitmix64, inverse
// CDF, no libm distribution objects).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "netsim/failure.hpp"

namespace esrp {

/// Everything a process needs to turn arrival times into FailureEvents.
struct FailureDrawContext {
  rank_t num_nodes = 0;
  /// Reference trajectory length C: events are scheduled in [1, horizon).
  index_t horizon = 0;
  /// The run's storage interval T and phi, read by "fixed:it=worst" and
  /// "fixed:count=phi"; 0 = unknown (those spellings then throw).
  index_t interval = 0;
  int phi = 0;
};

/// A named failure process: samples one run's full event schedule. Events
/// come back with strictly increasing iterations (the engine requires
/// pairwise distinct ones) and FailureCause::crash.
class FailureProcess {
public:
  virtual ~FailureProcess() = default;
  virtual std::vector<FailureEvent> sample(const FailureDrawContext& ctx,
                                           Rng& rng) const = 0;
};

/// A factory receives the text after the key's colon (empty when absent).
using FailureProcessFactory =
    std::function<std::unique_ptr<FailureProcess>(const std::string& arg)>;

Registry<FailureProcessFactory>& failure_process_registry();

/// Split a "key" or "key:arg" spec and build the process. Unknown base keys
/// throw with the "did you mean" message; malformed arguments throw
/// esrp::Error naming the offending parameter.
std::unique_ptr<FailureProcess> resolve_failure_process(
    const std::string& spec);

/// Validates the whole spec (key, parameters and a rack's inner spec)
/// without sampling, so callers reject typos before any expensive work.
void check_failure_process_key(const std::string& spec);

/// One Exp(1/mean) inter-arrival draw by inverse CDF. Exposed so the
/// statistical sanity tests can pin the distribution, not just the
/// schedule shape.
double exponential_interarrival(double mean, Rng& rng);

/// One Weibull(shape k, scale lambda) inter-arrival draw by inverse CDF
/// (k = 1 degenerates to Exp(1/lambda)).
double weibull_interarrival(double shape, double scale, Rng& rng);

/// Convenience: resolve `spec`, seed an Rng, sample one schedule.
/// `interval` and `phi` fill the FailureDrawContext fields of that name.
std::vector<FailureEvent> sample_failure_schedule(
    const std::string& spec, rank_t num_nodes, index_t horizon,
    std::uint64_t seed, index_t interval = 0, int phi = 0);

} // namespace esrp
