// ProblemHandle — the "prepare" half of the prepare/solve split
// (service/solve_service.hpp), and the one form in which every solve reaches
// its driver. A handle holds every amortizable artifact of a
// (ProblemSpec, SolverConfig) pair:
//
//   - the CsrMatrix (built from the matrix registry key, or the caller's
//     ProblemSpec::matrix_data: copied by build(), borrowed by borrow())
//     plus its display name,
//   - for distributed solvers: the BlockRowPartition, the static SpMV
//     communication plan, and (esrp strategy only) the phi-augmented ASpMV
//     plan,
//   - the factorized preconditioner (partition-aligned for distributed
//     solvers, single-domain for sequential ones — the two factorizations
//     differ, which is why the content key includes distributed-ness).
//
// Handles are immutable once built and shared by const pointer, so any
// number of concurrent solve sessions can run against one handle without
// synchronization. esrp::solve prepares a one-shot handle with borrow() and
// SolveService::solve takes a cached one; both then run
// detail::solve_prepared, so a service solve is bitwise identical to a
// facade solve (tests/service/service_parity_test.cpp).
#pragma once

#include <memory>
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

  /// Assemble (or copy) the matrix, build the plans, and factorize the
  /// preconditioner; key() is content_key(problem, config). Throws
  /// esrp::Error on unknown registry keys, an invalid spec or a non-square
  /// matrix. This is the expensive call the PlanCache amortizes.
  static std::shared_ptr<const ProblemHandle> build(const ProblemSpec& problem,
                                                    const SolverConfig& config);

  /// build() for a one-shot solve (esrp::solve): a caller's matrix_data is
  /// borrowed, not copied, and no content key is computed (key() is empty).
  /// `problem.matrix_data` must outlive the handle.
  static std::shared_ptr<const ProblemHandle> borrow(
      const ProblemSpec& problem, const SolverConfig& config);

  const CsrMatrix& matrix() const { return *problem_.matrix_data; }
  const std::string& name() const { return problem_.matrix_name; }
  /// The problem spec this handle was prepared from, with matrix_data
  /// pointed at the handle's matrix and matrix_name set to its name.
  const ProblemSpec& problem() const { return problem_; }
  const SolverConfig& config() const { return config_; }
  const std::string& key() const { return key_; }

  /// Node partition; null for sequential solvers, whose handles carry no
  /// plans either.
  const BlockRowPartition* partition() const { return partition_.get(); }
  /// Static SpMV plan on partition(); null for sequential solvers.
  const SpmvPlan* spmv_plan() const { return spmv_plan_.get(); }
  /// Augmented SpMV plan at config().phi; null unless the strategy is esrp.
  const AspmvPlan* aspmv_plan() const { return aspmv_plan_.get(); }
  const Preconditioner& precond() const { return *precond_; }

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
  /// The shared body of build() and borrow().
  static std::shared_ptr<ProblemHandle> prepare(const ProblemSpec& problem,
                                                const SolverConfig& config,
                                                bool copy_matrix_data);

  CsrMatrix owned_matrix_; ///< registry-built or copied; empty when borrowing
  ProblemSpec problem_;
  SolverConfig config_;
  std::string key_;
  std::unique_ptr<BlockRowPartition> partition_; ///< distributed only
  std::unique_ptr<SpmvPlan> spmv_plan_;          ///< distributed only
  std::unique_ptr<AspmvPlan> aspmv_plan_;        ///< distributed esrp only
  std::unique_ptr<Preconditioner> precond_;
};

namespace detail {

/// The one solve path under esrp::solve and SolveService::solve: run `run`
/// against the handle's problem and config through the registered driver.
/// Validates the assembled spec, draws the experiment-standard rhs
/// (xp::make_rhs) when `run.rhs` is empty, and fills the report's identity
/// fields; `wall_seconds` times the driver call alone. `run.threads` is
/// ignored: callers apply their thread setting around this call.
SolveReport solve_prepared(const ProblemHandle& handle, const RunSpec& run,
                           SolverObserver* observer);

} // namespace detail

} // namespace esrp
