// PlanCache behavior: hit/miss/eviction counters, LRU order, content-key
// construction (two different matrices must never share a key on shape
// alone), and the warm-prepare guarantee — a cache hit returns the *same*
// handle object, so repeat prepares do zero re-assembly/re-factorization.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "service/plan_cache.hpp"
#include "service/problem_handle.hpp"
#include "service/solve_service.hpp"
#include "sparse/generators.hpp"

namespace esrp {
namespace {

ProblemSpec laplace_problem(const std::string& key) {
  ProblemSpec problem;
  problem.matrix = key;
  problem.precond = "jacobi";
  return problem;
}

SolverConfig pcg_config() {
  SolverConfig config;
  config.solver = "pcg";
  return config;
}

TEST(PlanCacheTest, CountsHitsMissesAndEvictions) {
  PlanCache cache(2);
  const auto h1 = ProblemHandle::build(laplace_problem("laplace1d:16"),
                                       pcg_config());
  const auto h2 = ProblemHandle::build(laplace_problem("laplace1d:17"),
                                       pcg_config());
  const auto h3 = ProblemHandle::build(laplace_problem("laplace1d:18"),
                                       pcg_config());

  EXPECT_EQ(cache.find("a"), nullptr); // miss
  cache.insert("a", h1);
  cache.insert("b", h2);
  EXPECT_EQ(cache.find("a").get(), h1.get()); // hit, refreshes "a"
  cache.insert("c", h3);                      // evicts LRU "b"
  EXPECT_EQ(cache.find("b"), nullptr);        // miss (evicted)
  EXPECT_EQ(cache.find("a").get(), h1.get());
  EXPECT_EQ(cache.find("c").get(), h3.get());

  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.capacity, 2u);
}

TEST(PlanCacheTest, ReinsertRefreshesWithoutEviction) {
  PlanCache cache(2);
  const auto h = ProblemHandle::build(laplace_problem("laplace1d:16"),
                                      pcg_config());
  cache.insert("a", h);
  cache.insert("a", h);
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(PlanCacheTest, CapacityZeroNeverRetainsButStillCounts) {
  PlanCache cache(0);
  const auto h = ProblemHandle::build(laplace_problem("laplace1d:16"),
                                      pcg_config());
  cache.insert("a", h);
  EXPECT_EQ(cache.find("a"), nullptr);
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.size, 0u);
}

// Two matrices with identical shape and sparsity but different values must
// get different content keys — the key hashes the numeric content, not just
// dimensions (a shape-only key would hand a solver the wrong factorization).
TEST(PlanCacheTest, ContentKeySeparatesEqualShapedMatrices) {
  CsrMatrix a = laplace1d(32);
  CsrMatrix b = laplace1d(32);
  b.values_mut()[0] += 1.0;

  ProblemSpec pa;
  pa.matrix_data = &a;
  ProblemSpec pb;
  pb.matrix_data = &b;
  EXPECT_NE(ProblemHandle::content_key(pa, pcg_config()),
            ProblemHandle::content_key(pb, pcg_config()));
}

// Sequential and distributed preparations of the same problem factorize
// differently (single-domain vs partition-aligned blocks), so their keys
// must differ; nodes only matters for the distributed key.
TEST(PlanCacheTest, ContentKeySeparatesDistributedness) {
  const ProblemSpec problem = laplace_problem("laplace1d:64");

  SolverConfig sequential = pcg_config();
  SolverConfig distributed;
  distributed.solver = "resilient-pcg";

  const std::string seq_key = ProblemHandle::content_key(problem, sequential);
  const std::string dist_key =
      ProblemHandle::content_key(problem, distributed);
  EXPECT_NE(seq_key, dist_key);

  ProblemSpec other_nodes = problem;
  other_nodes.nodes = 16;
  // nodes reshapes the distributed partition -> new key ...
  EXPECT_NE(ProblemHandle::content_key(other_nodes, distributed), dist_key);
  // ... but is irrelevant to a sequential preparation -> same key.
  EXPECT_EQ(ProblemHandle::content_key(other_nodes, sequential), seq_key);
}

TEST(PlanCacheTest, PrecondParametersEnterTheKey) {
  const ProblemSpec base = laplace_problem("laplace1d:64");
  ProblemSpec other = base;
  other.precond = "block-jacobi";
  EXPECT_NE(ProblemHandle::content_key(base, pcg_config()),
            ProblemHandle::content_key(other, pcg_config()));

  ProblemSpec sized = other;
  sized.block_size = 4;
  EXPECT_NE(ProblemHandle::content_key(sized, pcg_config()),
            ProblemHandle::content_key(other, pcg_config()));
}

// esrp::solve's one-shot prepare: borrow() solves the caller's matrix in
// place and computes no content key, while build() copies and keys it. Both
// prepare the same partition and plans.
TEST(PlanCacheTest, BorrowUsesTheCallersMatrixAndComputesNoKey) {
  const CsrMatrix a = laplace1d(64);
  ProblemSpec problem;
  problem.matrix_data = &a;
  problem.precond = "block-jacobi";
  problem.nodes = 4;
  SolverConfig config;
  config.solver = "resilient-pcg";
  config.strategy = Strategy::esrp;
  config.phi = 2;

  const auto borrowed = ProblemHandle::borrow(problem, config);
  EXPECT_EQ(&borrowed->matrix(), &a);
  EXPECT_TRUE(borrowed->key().empty());
  EXPECT_EQ(borrowed->name(), "custom");

  const auto built = ProblemHandle::build(problem, config);
  EXPECT_NE(&built->matrix(), &a);
  EXPECT_EQ(built->key(), ProblemHandle::content_key(problem, config));

  for (const ProblemHandle* h : {borrowed.get(), built.get()}) {
    ASSERT_NE(h->partition(), nullptr);
    EXPECT_EQ(h->partition()->num_nodes(), 4);
    ASSERT_NE(h->spmv_plan(), nullptr);
    EXPECT_EQ(&h->spmv_plan()->partition(), h->partition());
    ASSERT_NE(h->aspmv_plan(), nullptr);
    EXPECT_EQ(h->aspmv_plan()->phi(), 2);
  }
  // A registry matrix is built by the handle either way.
  const auto generated = ProblemHandle::borrow(
      laplace_problem("laplace1d:16"), pcg_config());
  EXPECT_EQ(generated->matrix().rows(), 16);
  EXPECT_TRUE(generated->key().empty());
  EXPECT_EQ(generated->partition(), nullptr);
}

// The warm-prepare guarantee: the second prepare of an identical problem is
// a cache hit that returns the same handle object — shared_ptr identity is
// the proof that nothing was re-assembled or re-factorized.
TEST(PlanCacheTest, WarmPrepareReusesTheHandle) {
  SolveService service;
  const ProblemSpec problem = laplace_problem("laplace1d:64");
  const SolverConfig config = pcg_config();

  const PrepareResult cold = service.prepare(problem, config);
  EXPECT_FALSE(cold.cache_hit);
  const PrepareResult warm = service.prepare(problem, config);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(cold.handle.get(), warm.handle.get());

  const PlanCache::Stats stats = service.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

// An evicted handle stays alive while someone holds it — eviction drops the
// cache's reference, never the object under a running solve.
TEST(PlanCacheTest, EvictionKeepsLiveHandlesAlive) {
  ServiceOptions opts;
  opts.cache_capacity = 1;
  SolveService service(opts);

  const PrepareResult first =
      service.prepare(laplace_problem("laplace1d:32"), pcg_config());
  const PrepareResult second =
      service.prepare(laplace_problem("laplace1d:33"), pcg_config());
  EXPECT_EQ(service.cache_stats().evictions, 1u);

  // The evicted handle still solves.
  const SolveReport report = service.solve(*first.handle, RunSpec{});
  EXPECT_TRUE(report.converged);

  // Re-preparing the evicted problem is a rebuild (miss), not a hit.
  const PrepareResult again =
      service.prepare(laplace_problem("laplace1d:32"), pcg_config());
  EXPECT_FALSE(again.cache_hit);
  EXPECT_NE(again.handle.get(), first.handle.get());
  (void)second;
}

// SolveService::solve replays the handle's config, so a cache hit across
// different SolverConfigs would silently run the first config. Every config
// field keys the cache: these prepares miss, and each solve reports the
// solver and strategy that were asked for.
TEST(PlanCacheTest, EverySolverConfigFieldEntersTheKey) {
  SolveService service;
  ProblemSpec problem = laplace_problem("laplace1d:64");

  const PrepareResult pcg = service.prepare(problem, pcg_config());
  SolverConfig pipelined = pcg_config();
  pipelined.solver = "pipelined";
  const PrepareResult piped = service.prepare(problem, pipelined);
  EXPECT_FALSE(piped.cache_hit);
  EXPECT_NE(pcg.handle.get(), piped.handle.get());
  EXPECT_EQ(service.solve(*pcg.handle, RunSpec{}).solver, "pcg");
  EXPECT_EQ(service.solve(*piped.handle, RunSpec{}).solver, "pipelined");

  problem.precond = "block-jacobi";
  problem.nodes = 4;
  SolverConfig none;
  none.solver = "resilient-pcg";
  none.interval = 5;
  SolverConfig esrp = none;
  esrp.strategy = Strategy::esrp;
  const PrepareResult plain = service.prepare(problem, none);
  const PrepareResult resilient = service.prepare(problem, esrp);
  EXPECT_FALSE(resilient.cache_hit);
  EXPECT_EQ(resilient.handle->config().strategy, Strategy::esrp);
  RunSpec run;
  run.failures.push_back(FailureEvent{12, {1}});
  const SolveReport recovered = service.solve(*resilient.handle, run);
  const SolveReport restarted = service.solve(*plain.handle, run);
  ASSERT_EQ(recovered.recoveries.size(), 1u);
  ASSERT_EQ(restarted.recoveries.size(), 1u);
  EXPECT_EQ(recovered.recoveries[0].rung, RecoveryRung::reconstruct);
  EXPECT_EQ(restarted.recoveries[0].rung, RecoveryRung::scratch);

  // Fields that shape no prepared artifact key the cache all the same.
  const std::string base = ProblemHandle::content_key(problem, esrp);
  SolverConfig other = esrp;
  other.rtol = 1e-9;
  EXPECT_NE(ProblemHandle::content_key(problem, other), base);
  other = esrp;
  other.interval = 7;
  EXPECT_NE(ProblemHandle::content_key(problem, other), base);
  other = esrp;
  other.recovery_policy = "exact";
  EXPECT_NE(ProblemHandle::content_key(problem, other), base);
  other = esrp;
  other.cluster_shape = "slow-links:factor=2";
  EXPECT_NE(ProblemHandle::content_key(problem, other), base);
  EXPECT_EQ(ProblemHandle::content_key(problem, esrp), base);
}

TEST(PlanCacheTest, UnknownSolverKeyThrows) {
  SolverConfig config;
  config.solver = "nope";
  EXPECT_THROW(
      ProblemHandle::content_key(laplace_problem("laplace1d:16"), config),
      Error);
}

} // namespace
} // namespace esrp
