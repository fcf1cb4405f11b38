#include "service/problem_handle.hpp"

#include <cstdint>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/fnv.hpp"

namespace esrp {

namespace {

// Word-wise FNV-1a-64 (common/fnv.hpp) over the raw CSR arrays: it runs on
// every prepare, hit or miss. It is not the byte-wise hash the parity tests
// print for trajectories, so the two are not comparable.
std::uint64_t matrix_content_hash(const CsrMatrix& a) {
  std::uint64_t h = fnv1a_words(a.row_ptr().data(), a.row_ptr().size_bytes());
  h = fnv1a_words(a.col_idx().data(), a.col_idx().size_bytes(), h);
  return fnv1a_words(a.values().data(), a.values().size_bytes(), h);
}

} // namespace

std::string ProblemHandle::content_key(const ProblemSpec& problem,
                                       const SolverConfig& config) {
  std::ostringstream key;
  // Round-trip precision: two distinct real parameters never share a key.
  key << std::setprecision(17);
  if (problem.matrix_data != nullptr) {
    const CsrMatrix& a = *problem.matrix_data;
    key << "data:" << a.rows() << "x" << a.cols() << ":nnz=" << a.nnz()
        << ":fnv=" << std::hex << matrix_content_hash(a) << std::dec;
  } else {
    key << "key:" << problem.matrix;
  }
  // The preconditioner factorization depends on the full parameter surface;
  // keying on all of it keeps equal keys implying equal factorizations.
  key << "|precond=" << problem.precond << ",bs=" << problem.block_size
      << ",omega=" << problem.ssor_omega << ",shift=" << problem.ic0_shift;
  // Distributed handles carry partition-aligned artifacts (partition, SpMV /
  // ASpMV plans, per-node preconditioner blocks); sequential handles carry a
  // single-domain factorization. nodes/phi only shape the former.
  const bool distributed = solver_registry().get(config.solver).distributed;
  key << "|dist=" << (distributed ? 1 : 0);
  if (distributed) key << ",nodes=" << problem.nodes;
  // SolveService::solve replays the handle's config, so every SolverConfig
  // field enters the key: a hit must hand back the configuration that was
  // asked for, not merely compatible artifacts.
  key << "|solver=" << config.solver << ",rtol=" << config.rtol
      << ",maxit=" << config.max_iterations
      << ",calibrated=" << config.calibrated_cost
      << ",shape=" << config.cluster_shape
      << ",strategy=" << to_string(config.strategy)
      << ",T=" << config.interval << ",phi=" << config.phi
      << ",queue=" << config.queue_capacity
      << ",formulation=" << static_cast<int>(config.formulation)
      << ",spares=" << config.spare_nodes
      << ",rr=" << config.residual_replacement
      << ",policy=" << config.recovery_policy;
  return key.str();
}

std::shared_ptr<const ProblemHandle> ProblemHandle::build(
    const ProblemSpec& problem, const SolverConfig& config) {
  return build(problem, config, content_key(problem, config));
}

std::shared_ptr<const ProblemHandle> ProblemHandle::build(
    const ProblemSpec& problem, const SolverConfig& config, std::string key) {
  // make_shared needs a public ctor; the aliasing-free way around the
  // private default ctor is a derived helper local to this function.
  struct Concrete : ProblemHandle {};
  auto handle = std::make_shared<Concrete>();

  handle->key_ = std::move(key); // content_key validated config.solver
  handle->config_ = config;
  handle->problem_ = problem;

  if (problem.matrix_data != nullptr) {
    handle->matrix_ = *problem.matrix_data;
    handle->name_ =
        problem.matrix_name.empty() ? "custom" : problem.matrix_name;
  } else {
    TestProblem tp = resolve_matrix(problem.matrix);
    handle->matrix_ = std::move(tp.matrix);
    handle->name_ = std::move(tp.name);
  }
  // The handle is self-contained: its ProblemSpec points at its own matrix
  // copy, never the caller's buffer.
  handle->problem_.matrix_data = &handle->matrix_;
  handle->problem_.matrix_name = handle->name_;

  if (handle->matrix_.rows() != handle->matrix_.cols())
    throw Error("prepare requires a square matrix, got " +
                std::to_string(handle->matrix_.rows()) + " x " +
                std::to_string(handle->matrix_.cols()));

  const bool distributed = solver_registry().get(config.solver).distributed;
  if (distributed) {
    handle->partition_ = std::make_unique<BlockRowPartition>(
        handle->matrix_.rows(), problem.nodes);
    handle->spmv_plan_ =
        std::make_unique<SpmvPlan>(handle->matrix_, *handle->partition_);
    // Only the esrp strategy reads the augmented plan (DistOperator
    // borrows it then); the cache key includes the strategy.
    if (config.strategy == Strategy::esrp)
      handle->aspmv_plan_ =
          std::make_unique<AspmvPlan>(*handle->spmv_plan_, config.phi);
  }

  // Factorize exactly as the facade drivers would: partition-aligned for
  // distributed solvers (resolve_precond passes the cluster partition),
  // single-domain for sequential ones (null partition).
  SolveSpec factorize_spec;
  static_cast<ProblemSpec&>(factorize_spec) = handle->problem_;
  static_cast<SolverConfig&>(factorize_spec) = config;
  handle->precond_ = precond_registry().get(problem.precond).make(
      PrecondContext{handle->matrix_, handle->partition_.get(),
                     factorize_spec});

  return handle;
}

} // namespace esrp
