// ProblemHandle — the "prepare" half of the service-layer prepare/solve
// split (service/solve_service.hpp). A handle owns every amortizable
// artifact of a (ProblemSpec, SolverConfig) pair:
//
//   - the assembled CsrMatrix (copied from ProblemSpec::matrix_data, or
//     built from the matrix registry key) plus its display name,
//   - the default right-hand side xp::make_rhs builds for experiments,
//   - for distributed solvers: the BlockRowPartition, the static SpMV
//     communication plan, and the phi-augmented ASpMV plan,
//   - the factorized preconditioner (partition-aligned for distributed
//     solvers, single-domain for sequential ones — the two factorizations
//     differ, which is why the content key includes distributed-ness).
//
// Handles are immutable after build() and shared by const pointer, so any
// number of concurrent solve sessions can run against one handle without
// synchronization. Every owned artifact is a deterministic function of the
// spec fields the facade drivers would otherwise use per solve, so a solve
// through a handle is bitwise identical to the facade path — pinned by
// tests/service/service_parity_test.cpp.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "api/registry.hpp"
#include "api/solve_spec.hpp"
#include "comm/aspmv_plan.hpp"
#include "comm/spmv_plan.hpp"
#include "partition/partition.hpp"
#include "precond/preconditioner.hpp"
#include "sparse/csr.hpp"

namespace esrp {

class ProblemHandle {
public:
  /// The cache key for (problem, config): a readable string covering every
  /// field the prepared artifacts depend on, plus every SolverConfig field
  /// (solve() replays the handle's config, so a hit must carry exactly the
  /// requested one). Registry-built matrices key on their spec string;
  /// caller-supplied matrix_data keys on shape, nnz, and a word-wise FNV-1a
  /// hash of the raw row/column/value bytes, so two different matrices never
  /// collide on shape alone (plan_cache_test pins this).
  static std::string content_key(const ProblemSpec& problem,
                                 const SolverConfig& config);

  /// Assemble the matrix, build the plans, and factorize the
  /// preconditioner. Throws esrp::Error on unknown registry keys or an
  /// invalid spec. This is the expensive call the PlanCache amortizes.
  static std::shared_ptr<const ProblemHandle> build(const ProblemSpec& problem,
                                                    const SolverConfig& config);

  const CsrMatrix& matrix() const { return matrix_; }
  const std::string& name() const { return name_; }
  /// The experiment-standard rhs (xp::make_rhs) used when a RunSpec leaves
  /// `rhs` empty.
  std::span<const real_t> default_rhs() const { return default_rhs_; }
  /// The problem spec this handle was prepared from, with matrix_data
  /// re-pointed at the handle's own copy (the caller's buffer is not
  /// retained past build()).
  const ProblemSpec& problem() const { return problem_; }
  const SolverConfig& config() const { return config_; }
  const std::string& key() const { return key_; }

  /// True when the configured solver runs on the simulated cluster (the
  /// handle then carries partition + plans).
  bool distributed() const { return partition_ != nullptr; }
  const Preconditioner& precond() const { return *precond_; }

  /// The injection view the solver drivers consume (api/registry.hpp).
  /// Pointers borrow from this handle — keep the handle alive across the
  /// solve (SolveService holds it by shared_ptr for exactly this reason).
  PreparedParts parts() const {
    return PreparedParts{partition_.get(), spmv_plan_.get(), aspmv_plan_.get(),
                         precond_.get()};
  }

  ProblemHandle(const ProblemHandle&) = delete;
  ProblemHandle& operator=(const ProblemHandle&) = delete;

private:
  friend class SolveService;

  ProblemHandle() = default;

  /// build() with its content_key already computed (SolveService::prepare
  /// keys the cache lookup with it, so a cold prepare hashes the matrix
  /// once).
  static std::shared_ptr<const ProblemHandle> build(const ProblemSpec& problem,
                                                    const SolverConfig& config,
                                                    std::string key);

  CsrMatrix matrix_;
  std::string name_;
  Vector default_rhs_;
  ProblemSpec problem_;
  SolverConfig config_;
  std::string key_;
  std::unique_ptr<BlockRowPartition> partition_; ///< distributed only
  std::unique_ptr<SpmvPlan> spmv_plan_;          ///< distributed only
  std::unique_ptr<AspmvPlan> aspmv_plan_;        ///< distributed only
  std::unique_ptr<Preconditioner> precond_;
};

} // namespace esrp
