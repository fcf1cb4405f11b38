// String-keyed factories behind esrp::solve — the PETSc/Trilinos-style
// "solver factory" pattern: every solver variant, preconditioner, and test
// matrix is a named entry, so new grid points of the paper's experiment
// space (solver x preconditioner x matrix x strategy x failure) need one
// registration and zero new plumbing in the CLI / examples / harness.
//
//   solver_registry()  — "pcg", "pipelined", "resilient-pcg", "dist-pipelined"
//   precond_registry() — "identity", "jacobi", "block-jacobi", "ssor", "ic0"
//   matrix_registry()  — "emilia", "audikw", "poisson2d", "poisson3d",
//                        "laplace1d", "mm"; parameterized keys take an
//                        argument after a colon, e.g. "poisson2d:24,24",
//                        "emilia:8,8,8", "mm:/path/to/matrix.mtx"; the
//                        spec splits at its first colon only, so the
//                        argument may itself contain ':' or ';'
//
// Lookups of unknown keys throw esrp::Error with a "did you mean" hint and
// the list of valid keys; duplicate registrations are rejected.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/solve_spec.hpp"
#include "common/error.hpp"
#include "precond/preconditioner.hpp"
#include "sparse/generators.hpp"

namespace esrp {

class BlockRowPartition;
class ProblemHandle;

/// Error text for a failed lookup: names the kind, suggests the closest
/// valid key (edit distance) when one is plausibly a typo, and lists every
/// valid key.
std::string unknown_key_message(const std::string& kind, std::string_view key,
                                const std::vector<std::string>& valid);

/// A string-keyed table of factories. Key order is lexicographic (stable
/// --list output); duplicate registration throws; unknown lookup throws
/// with a "did you mean" message.
template <typename Value>
class Registry {
public:
  /// `kind` names the entries in error messages and --list headers, e.g.
  /// "solver" or "preconditioner".
  explicit Registry(std::string kind) : kind_(std::move(kind)) {}

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Register `key`; `help` is the one-line description --list prints.
  void add(std::string key, std::string help, Value value) {
    if (key.empty()) throw Error(kind_ + " registry key must be non-empty");
    const auto [it, inserted] = entries_.emplace(
        std::move(key), Entry{std::move(help), std::move(value)});
    if (!inserted)
      throw Error("duplicate " + kind_ + " registration: \"" + it->first +
                  "\"");
  }

  bool contains(std::string_view key) const {
    return entries_.find(key) != entries_.end();
  }

  const Value& get(std::string_view key) const {
    const auto it = entries_.find(key);
    if (it == entries_.end())
      throw Error(unknown_key_message(kind_, key, keys()));
    return it->second.value;
  }

  const std::string& help(std::string_view key) const {
    const auto it = entries_.find(key);
    if (it == entries_.end())
      throw Error(unknown_key_message(kind_, key, keys()));
    return it->second.help;
  }

  /// All keys, lexicographically sorted.
  std::vector<std::string> keys() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [key, entry] : entries_) out.push_back(key);
    return out;
  }

  const std::string& kind() const { return kind_; }

private:
  struct Entry {
    std::string help;
    Value value;
  };

  std::string kind_;
  std::map<std::string, Entry, std::less<>> entries_;
};

// ---------------------------------------------------------------- solvers --

/// Everything a solver driver needs: the prepared handle (matrix, partition,
/// plans, factorized preconditioner; service/problem_handle.hpp) plus the
/// validated spec of this run and its resolved rhs.
struct SolveContext {
  const ProblemHandle& handle;
  std::span<const real_t> b;
  const SolveSpec& spec;
  SolverObserver* observer = nullptr; ///< may be null
};

/// A registered solver: the driver plus the capability flags validate_spec
/// enforces — declaring limits here (instead of hardcoding solver keys in
/// the validation) keeps "new solver = one registration" true.
struct SolverEntry {
  std::function<SolveReport(const SolveContext&)> run;
  /// Distributed solvers run on the simulated cluster (nodes, strategy and
  /// the failure schedule apply, every strategy included); sequential ones
  /// ignore nodes/strategy and take no failure events.
  bool distributed = false;
  /// Whether periodic residual replacement (SolveSpec::residual_replacement
  /// > 0) is implemented (distributed solvers only; sequential solvers
  /// ignore the field).
  bool supports_residual_replacement = true;
  /// Whether SDC injection (SolveSpec::sdc_events) is implemented. Requires
  /// the residual-replacement machinery for detection, so only
  /// "resilient-pcg" qualifies today.
  bool supports_sdc = false;
};

Registry<SolverEntry>& solver_registry();

// --------------------------------------------------------- preconditioners --

struct PrecondContext {
  const CsrMatrix& a;
  /// Node partition for distributed solvers (block Jacobi aligns its blocks
  /// to it); null for the sequential solvers.
  const BlockRowPartition* part = nullptr;
  const SolveSpec& spec;
};

using PrecondFactory =
    std::function<std::unique_ptr<Preconditioner>(const PrecondContext&)>;

/// A registered preconditioner: the factory plus the capability flag
/// validate_spec needs to reject impossible combinations up front.
struct PrecondEntry {
  PrecondFactory make;
  /// Whether the built preconditioner exposes an explicit action matrix
  /// with node-local rows — required by every distributed solver (and by
  /// ESR/ESRP reconstruction). False for SSOR and IC(0), whose action is
  /// only available as an algorithm.
  bool explicit_action = true;
};

Registry<PrecondEntry>& precond_registry();

// ---------------------------------------------------------------- matrices --

/// A matrix factory receives the text after the key's colon ("24,24" for
/// "poisson2d:24,24"; empty when the key has no colon).
using MatrixFactory = std::function<TestProblem(const std::string& arg)>;

Registry<MatrixFactory>& matrix_registry();

/// Build the problem for a "key[:arg]" matrix spec, split at the first
/// colon only: the key selects the factory and everything after the colon is
/// its argument verbatim (a Matrix Market path may contain ':' or ';').
/// Unknown keys throw with the "did you mean" message; malformed arguments
/// (wrong dimension count, non-positive or non-numeric sizes, unreadable
/// files) throw esrp::Error from the factory.
TestProblem resolve_matrix(const std::string& spec);

/// Lookup-only variant of resolve_matrix: validates the key (throwing the
/// same error) without building the matrix or parsing its argument. Lets
/// the CLI reject typos before any expensive work.
void check_matrix_key(const std::string& spec);

} // namespace esrp
