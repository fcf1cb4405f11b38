#include "api/solve_spec.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "api/registry.hpp"
#include "common/error.hpp"
#include "scenario/cluster_shape.hpp"

namespace esrp {

namespace {

/// True when `s` points into `storage`'s buffer (the owning take_rhs path);
/// used by the copy/move members to decide whether a span must be re-seated
/// into the destination's own storage.
bool points_into(std::span<const real_t> s, const Vector& storage) {
  if (s.empty() || storage.empty()) return false;
  return s.data() >= storage.data() &&
         s.data() + s.size() <= storage.data() + storage.size();
}

/// Debug-build tripwire: overwrite freed owned storage with NaN so a span
/// that outlived its RunSpec produces a loud validate_spec failure instead
/// of silently reading reused memory. Release builds skip the sweep.
void poison(Vector& storage) {
#ifndef NDEBUG
  for (real_t& v : storage)
    v = std::numeric_limits<real_t>::quiet_NaN();
#else
  (void)storage;
#endif
}

} // namespace

void RunSpec::take_rhs(Vector v) {
  rhs_storage_ = std::move(v);
  rhs = rhs_storage_;
}

void RunSpec::take_x0(Vector v) {
  x0_storage_ = std::move(v);
  x0 = x0_storage_;
}

bool RunSpec::owns_rhs() const { return points_into(rhs, rhs_storage_); }

bool RunSpec::owns_x0() const { return points_into(x0, x0_storage_); }

RunSpec::RunSpec(const RunSpec& other)
    : rhs(other.rhs),
      x0(other.x0),
      failures(other.failures),
      sdc_events(other.sdc_events),
      sdc_threshold(other.sdc_threshold),
      threads(other.threads),
      rhs_storage_(other.rhs_storage_),
      x0_storage_(other.x0_storage_) {
  // Owning spans must follow the data into this copy's buffers; borrowed
  // spans keep borrowing from wherever the source pointed.
  if (other.owns_rhs()) rhs = rhs_storage_;
  if (other.owns_x0()) x0 = x0_storage_;
}

RunSpec::RunSpec(RunSpec&& other) noexcept
    : rhs(other.rhs),
      x0(other.x0),
      failures(std::move(other.failures)),
      sdc_events(std::move(other.sdc_events)),
      sdc_threshold(other.sdc_threshold),
      threads(other.threads),
      rhs_storage_(std::move(other.rhs_storage_)),
      x0_storage_(std::move(other.x0_storage_)) {
  // Vector's move transfers the buffer, so spans into the source storage
  // already point at *our* storage; just clear the moved-from spans so the
  // source cannot be used to reach the transferred data.
  other.rhs = {};
  other.x0 = {};
}

RunSpec& RunSpec::operator=(const RunSpec& other) {
  if (this == &other) return *this;
  RunSpec copy(other);
  *this = std::move(copy);
  return *this;
}

RunSpec& RunSpec::operator=(RunSpec&& other) noexcept {
  if (this == &other) return *this;
  poison(rhs_storage_);
  poison(x0_storage_);
  rhs = other.rhs;
  x0 = other.x0;
  failures = std::move(other.failures);
  sdc_events = std::move(other.sdc_events);
  sdc_threshold = other.sdc_threshold;
  threads = other.threads;
  rhs_storage_ = std::move(other.rhs_storage_);
  x0_storage_ = std::move(other.x0_storage_);
  other.rhs = {};
  other.x0 = {};
  return *this;
}

RunSpec::~RunSpec() {
  poison(rhs_storage_);
  poison(x0_storage_);
}

namespace {

[[noreturn]] void invalid(const std::string& what) {
  throw Error("invalid SolveSpec: " + what);
}

} // namespace

void validate_spec(const SolveSpec& spec) {
  if (spec.matrix_data == nullptr && spec.matrix.empty())
    invalid("set either `matrix` (a registry key) or `matrix_data`");
  if (spec.matrix_data == nullptr) check_matrix_key(spec.matrix);

  // Unknown solver / preconditioner keys throw the registry's
  // "did you mean" message.
  const SolverEntry& solver = solver_registry().get(spec.solver);
  const PrecondEntry& precond = precond_registry().get(spec.precond);

  if (solver.distributed && !precond.explicit_action) {
    std::string valid;
    for (const std::string& key : precond_registry().keys()) {
      if (precond_registry().get(key).explicit_action)
        valid += (valid.empty() ? "" : ", ") + key;
    }
    invalid("preconditioner \"" + spec.precond +
            "\" has no explicit node-local action matrix, which the "
            "distributed solvers require (use one of: " +
            valid + ")");
  }

#ifndef NDEBUG
  // Liveness tripwire for the borrowed-span footgun: owned RunSpec storage
  // is NaN-poisoned on destruction, so a spec whose rhs/x0 span outlived
  // its owner fails here instead of corrupting the solve.
  for (const real_t v : spec.rhs) {
    if (std::isnan(v))
      invalid("rhs contains NaN — if the data was owned via take_rhs, its "
              "RunSpec has likely been destroyed (see the lifetime note in "
              "api/solve_spec.hpp)");
  }
  for (const real_t v : spec.x0) {
    if (std::isnan(v))
      invalid("x0 contains NaN — if the data was owned via take_x0, its "
              "RunSpec has likely been destroyed (see the lifetime note in "
              "api/solve_spec.hpp)");
  }
#endif

  if (!(spec.rtol > 0)) invalid("rtol must be positive");
  if (spec.max_iterations < 0) invalid("max_iterations must be >= 0");
  if (spec.interval < 1)
    invalid("checkpoint interval must be >= 1, got " +
            std::to_string(spec.interval));
  if (spec.phi < 1) invalid("phi (redundant copies) must be >= 1");
  if (spec.block_size < 1) invalid("block_size must be >= 1");
  if (spec.queue_capacity < 1) invalid("queue_capacity must be >= 1");
  if (spec.residual_replacement < 0)
    invalid("residual_replacement must be >= 0");
  if (!(spec.sdc_threshold > 0)) invalid("sdc_threshold must be positive");
  check_cluster_shape_key(spec.cluster_shape); // "" = homogeneous
  if (spec.threads < -1)
    invalid("threads must be -1 (keep), 0 (hardware), or a positive count");
  if (!(spec.ssor_omega > 0 && spec.ssor_omega < 2))
    invalid("ssor_omega must lie in (0, 2)");

  if (solver.distributed) {
    if (spec.nodes < 1) invalid("nodes must be >= 1");
    if (spec.phi >= spec.nodes)
      invalid("phi = " + std::to_string(spec.phi) +
              " redundant copies need phi < nodes = " +
              std::to_string(spec.nodes));
    // One source of truth for schedule well-formedness (fully-specified
    // events, distinct iterations, in-range ranks, no duplicate ranks):
    // the same netsim validation the resilience engines run. Note that an
    // all-ranks event is *valid* — it resolves to the scratch rung of the
    // recovery ladder instead of being rejected up front.
    try {
      merge_failure_schedule(spec.failures, spec.nodes);
    } catch (const Error& e) {
      invalid(e.what());
    }
    RecoveryPolicy policy;
    try {
      policy = recovery_policy_from_string(spec.recovery_policy);
    } catch (const Error& e) {
      invalid(e.what());
    }
    if (policy.shrink_on_unrecoverable && spec.strategy != Strategy::esrp)
      invalid("recovery_policy \"" + spec.recovery_policy +
              "\" (shrink rung) is only defined for the esrp strategy, "
              "like no-spare recovery (ref. [22]); strategy \"" +
              to_string(spec.strategy) + "\" cannot shrink");
    if (!spec.spare_nodes && spec.strategy != Strategy::esrp)
      invalid("no-spare recovery is only defined for the esrp strategy "
              "(ref. [22]); strategy \"" + to_string(spec.strategy) +
              "\" needs spare nodes");
    if (spec.residual_replacement > 0 && !solver.supports_residual_replacement)
      invalid("\"" + spec.solver +
              "\" does not implement residual replacement "
              "(residual_replacement > 0); use \"resilient-pcg\"");
    if (!spec.sdc_events.empty() && !solver.supports_sdc)
      invalid("\"" + spec.solver +
              "\" does not implement SDC injection (sdc_events); use "
              "\"resilient-pcg\"");
    for (std::size_t i = 0; i < spec.sdc_events.size(); ++i) {
      const SdcEvent& e = spec.sdc_events[i];
      if (!e.enabled())
        invalid("SDC event " + std::to_string(i) +
                " is not fully specified (needs iteration >= 0)");
      if (e.target != "p" && e.target != "x" && e.target != "r" &&
          e.target != "checkpoint" && e.target != "pcopy")
        invalid("SDC event target must be p, x, r, checkpoint, or pcopy, "
                "got \"" + e.target + "\"");
      if (e.target == "checkpoint" && spec.strategy != Strategy::imcr)
        invalid("SDC target \"checkpoint\" corrupts the IMCR buddy "
                "checkpoint — it needs strategy imcr, got \"" +
                to_string(spec.strategy) + "\"");
      if (e.target == "pcopy" && spec.strategy != Strategy::esrp)
        invalid("SDC target \"pcopy\" corrupts a redundancy-queue copy — "
                "it needs strategy esrp, got \"" +
                to_string(spec.strategy) + "\"");
      if (e.bit < 0 || e.bit >= 64)
        invalid("SDC event bit " + std::to_string(e.bit) +
                " outside [0, 64)");
      if (e.index < 0)
        invalid("SDC event entry index must be >= 0");
    }
  } else if (!spec.failures.empty()) {
    invalid("solver \"" + spec.solver +
            "\" is sequential and cannot inject node failures");
  } else if (!spec.sdc_events.empty()) {
    invalid("solver \"" + spec.solver +
            "\" is sequential and cannot inject silent data corruptions");
  }
}

} // namespace esrp
