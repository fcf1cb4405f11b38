#include "scenario/failure_process.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "scenario/kv_params.hpp"
#include "xp/experiment.hpp"

namespace esrp {

namespace {

/// Split "key" / "key:arg" at the first colon (the matrix-registry idiom).
std::pair<std::string, std::string> split_spec(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos) return {spec, ""};
  return {spec.substr(0, colon), spec.substr(colon + 1)};
}

/// Turn a continuous arrival time into the next usable integer iteration:
/// at least 1 (iteration 0 has no state to lose that wasn't the input) and
/// strictly after the previous event (the engine requires pairwise
/// distinct event iterations).
index_t arrival_iteration(double t, index_t prev) {
  const auto it = static_cast<index_t>(std::max(1.0, std::ceil(t)));
  return std::max(it, static_cast<index_t>(prev + 1));
}

/// Renewal process with inter-arrivals drawn by `draw`: accumulate
/// continuous arrival times until the horizon, then attach one uniformly
/// chosen start rank per arrival. The inter-arrival is drawn before the
/// rank so decorating a process (rack) never shifts the arrival sequence.
template <typename Draw>
std::vector<FailureEvent> sample_renewal(const FailureDrawContext& ctx,
                                         Rng& rng, Draw&& draw) {
  std::vector<FailureEvent> events;
  index_t prev = 0;
  for (double t = draw(rng);; t += draw(rng)) {
    const index_t it = arrival_iteration(t, prev);
    if (it >= ctx.horizon) break;
    FailureEvent e;
    e.iteration = it;
    e.ranks = {static_cast<rank_t>(
        rng.next_below(static_cast<std::uint64_t>(ctx.num_nodes)))};
    prev = it;
    events.push_back(std::move(e));
  }
  return events;
}

/// One event of `count` contiguous ranks from `start`. The iteration may be
/// kWorst (the paper's §5 placement for this run's C and T) and the count
/// kPhi (this run's phi).
class FixedProcess final : public FailureProcess {
public:
  static constexpr index_t kWorst = -1;
  static constexpr rank_t kPhi = -1;

  FixedProcess(index_t iteration, rank_t start, rank_t count)
      : iteration_(iteration), start_(start), count_(count) {}

  std::vector<FailureEvent> sample(const FailureDrawContext& ctx,
                                   Rng&) const override {
    ESRP_CHECK_MSG(start_ < ctx.num_nodes,
                   "fixed process start rank " << start_ << " out of range [0, "
                                               << ctx.num_nodes << ")");
    ESRP_CHECK_MSG(iteration_ != kWorst || ctx.interval >= 1,
                   "fixed process it=worst needs the run's interval");
    ESRP_CHECK_MSG(count_ != kPhi || ctx.phi >= 1,
                   "fixed process count=phi needs the run's phi");
    FailureEvent e;
    e.iteration = iteration_ == kWorst
                      ? xp::worst_case_failure_iteration(ctx.horizon,
                                                         ctx.interval)
                      : iteration_;
    e.ranks = contiguous_ranks(
        start_, count_ == kPhi ? static_cast<rank_t>(ctx.phi) : count_,
        ctx.num_nodes);
    return {std::move(e)};
  }

private:
  index_t iteration_;
  rank_t start_, count_;
};

class NoFailures final : public FailureProcess {
public:
  std::vector<FailureEvent> sample(const FailureDrawContext&,
                                   Rng&) const override {
    return {};
  }
};

class ExponentialProcess final : public FailureProcess {
public:
  explicit ExponentialProcess(double mean) : mean_(mean) {}

  std::vector<FailureEvent> sample(const FailureDrawContext& ctx,
                                   Rng& rng) const override {
    return sample_renewal(
        ctx, rng, [this](Rng& r) { return exponential_interarrival(mean_, r); });
  }

private:
  double mean_;
};

class WeibullProcess final : public FailureProcess {
public:
  WeibullProcess(double shape, double scale) : shape_(shape), scale_(scale) {}

  std::vector<FailureEvent> sample(const FailureDrawContext& ctx,
                                   Rng& rng) const override {
    return sample_renewal(ctx, rng, [this](Rng& r) {
      return weibull_interarrival(shape_, scale_, r);
    });
  }

private:
  double shape_, scale_;
};

/// Correlation decorator: every arrival of the inner process takes out a
/// contiguous block of `width` ranks anchored at the arrival's first rank
/// (a switch fault on one fat-tree branch, paper §5). The inner schedule —
/// arrival times and anchor ranks — is untouched.
class RackProcess final : public FailureProcess {
public:
  RackProcess(rank_t width, std::unique_ptr<FailureProcess> inner)
      : width_(width), inner_(std::move(inner)) {}

  std::vector<FailureEvent> sample(const FailureDrawContext& ctx,
                                   Rng& rng) const override {
    ESRP_CHECK_MSG(width_ < ctx.num_nodes,
                   "rack width " << width_ << " must leave a survivor among "
                                 << ctx.num_nodes << " nodes");
    std::vector<FailureEvent> events = inner_->sample(ctx, rng);
    for (FailureEvent& e : events) {
      ESRP_CHECK(!e.ranks.empty());
      e.ranks = contiguous_ranks(e.ranks.front(), width_, ctx.num_nodes);
    }
    return events;
  }

private:
  rank_t width_;
  std::unique_ptr<FailureProcess> inner_;
};

void register_processes(Registry<FailureProcessFactory>& reg) {
  reg.add("none", "no failure (the failure-free run of a grid)",
          [](const std::string& arg) -> std::unique_ptr<FailureProcess> {
            const KvParams kv(arg, "failure process \"none\"", {});
            return std::make_unique<NoFailures>();
          });
  reg.add("fixed",
          "single event at a fixed iteration: "
          "it=<iter>|worst[,start=0][,count=<n>|phi] (the paper's §5 "
          "protocol; worst = two iterations before the end of the "
          "interval T containing C/2, phi = the run's phi)",
          [](const std::string& arg) -> std::unique_ptr<FailureProcess> {
            const KvParams kv(arg, "failure process \"fixed\"",
                              {"it", "start", "count"});
            const bool worst = kv.get_string("it", "") == "worst";
            const bool per_phi = kv.get_string("count", "") == "phi";
            const auto it = worst ? FixedProcess::kWorst
                                  : static_cast<index_t>(kv.require_int("it"));
            const auto start = static_cast<rank_t>(kv.get_int("start", 0));
            const auto count =
                per_phi ? FixedProcess::kPhi
                        : static_cast<rank_t>(kv.get_int("count", 1));
            if (!worst && it < 1)
              throw Error("failure process \"fixed\": it must be >= 1");
            if (start < 0 || (!per_phi && count < 1))
              throw Error(
                  "failure process \"fixed\": start >= 0 and count >= 1");
            return std::make_unique<FixedProcess>(it, start, count);
          });
  reg.add("exponential",
          "Poisson arrivals, Exp(mean) inter-arrival iterations: "
          "mean=<iterations>",
          [](const std::string& arg) -> std::unique_ptr<FailureProcess> {
            const KvParams kv(arg, "failure process \"exponential\"",
                              {"mean"});
            const double mean = kv.require_double("mean");
            if (!(mean > 0))
              throw Error("failure process \"exponential\": mean must be > 0");
            return std::make_unique<ExponentialProcess>(mean);
          });
  reg.add("weibull",
          "Weibull renewal arrivals: k=<shape>,scale=<iterations> "
          "(k = 1 is exponential; k > 1 models wear-out)",
          [](const std::string& arg) -> std::unique_ptr<FailureProcess> {
            const KvParams kv(arg, "failure process \"weibull\"",
                              {"k", "scale"});
            const double k = kv.require_double("k");
            const double scale = kv.require_double("scale");
            if (!(k > 0) || !(scale > 0))
              throw Error(
                  "failure process \"weibull\": k and scale must be > 0");
            return std::make_unique<WeibullProcess>(k, scale);
          });
  reg.add("rack",
          "correlation decorator: <width>/<inner-spec> expands every "
          "arrival into a contiguous block of <width> ranks, e.g. "
          "rack:4/exponential:mean=30",
          [](const std::string& arg) -> std::unique_ptr<FailureProcess> {
            const std::size_t slash = arg.find('/');
            if (slash == std::string::npos || slash == 0 ||
                slash + 1 == arg.size())
              throw Error("failure process \"rack\" needs "
                          "\"rack:<width>/<inner-spec>\", got \"rack:" +
                          arg + "\"");
            const std::string width_text = arg.substr(0, slash);
            rank_t width = 0;
            try {
              std::size_t used = 0;
              width = static_cast<rank_t>(std::stoll(width_text, &used));
              if (used != width_text.size()) throw Error("trailing text");
            } catch (const std::exception&) {
              throw Error("failure process \"rack\": width \"" + width_text +
                          "\" is not an integer");
            }
            if (width < 1)
              throw Error("failure process \"rack\": width must be >= 1");
            return std::make_unique<RackProcess>(
                width, resolve_failure_process(arg.substr(slash + 1)));
          });
}

} // namespace

Registry<FailureProcessFactory>& failure_process_registry() {
  static Registry<FailureProcessFactory>* reg = [] {
    auto* r = new Registry<FailureProcessFactory>("failure process");
    register_processes(*r);
    return r;
  }();
  return *reg;
}

std::unique_ptr<FailureProcess> resolve_failure_process(
    const std::string& spec) {
  const auto [key, arg] = split_spec(spec);
  return failure_process_registry().get(key)(arg);
}

void check_failure_process_key(const std::string& spec) {
  (void)resolve_failure_process(spec);
}

double exponential_interarrival(double mean, Rng& rng) {
  // Inverse CDF: -mean * ln(1 - u), u in [0, 1) so the log argument stays
  // in (0, 1] and the draw is finite and non-negative.
  return -mean * std::log(1.0 - rng.next_double());
}

double weibull_interarrival(double shape, double scale, Rng& rng) {
  return scale * std::pow(-std::log(1.0 - rng.next_double()), 1.0 / shape);
}

std::vector<FailureEvent> sample_failure_schedule(
    const std::string& spec, rank_t num_nodes, index_t horizon,
    std::uint64_t seed, index_t interval, int phi) {
  FailureDrawContext ctx;
  ctx.num_nodes = num_nodes;
  ctx.horizon = horizon;
  ctx.interval = interval;
  ctx.phi = phi;
  Rng rng(seed);
  return resolve_failure_process(spec)->sample(ctx, rng);
}

} // namespace esrp
