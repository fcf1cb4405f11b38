// Concurrent-stats audit for the PlanCache: many threads hammer
// find/insert/stats simultaneously, then the test asserts the traffic
// counters add up EXACTLY. The counters are mutable integers bumped from
// const lookups; an increment outside the cache's mutex is a data race that
// drops counts under contention, and clang's thread-safety analysis rejects
// it at compile time. The TSan CI job runs this test with real
// instrumentation; on any build it fails if even one hit or miss goes
// missing.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "service/plan_cache.hpp"
#include "service/problem_handle.hpp"
#include "service/solve_service.hpp"

namespace esrp {
namespace {

constexpr int kThreads = 8;
constexpr int kOpsPerThread = 400;

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

// The workers deliberately use naked std::thread, not the ThreadPool: the
// point is maximal scheduling freedom while hammering the caches, and the
// pool's own mutex would serialize the contention we want to provoke.

TEST(CacheStatsConcurrency, PlanCacheCountersAreExactUnderContention) {
  // Capacity large enough that nothing is evicted: every find() is then
  // exactly one hit or one miss, so the totals must balance perfectly.
  PlanCache cache(64);
  const auto handle =
      ProblemHandle::build(laplace_problem("laplace1d:16"), pcg_config());

  // Each thread loops over kKeys keys: the first find() of a key by any
  // thread is a miss (then inserted), later finds are hits. Interleaving
  // makes the exact hit/miss split nondeterministic — but their SUM is
  // exactly the number of find() calls, and that is what a dropped
  // (racy) increment would break.
  constexpr int kKeys = 16;
  std::vector<std::string> keys;
  for (int k = 0; k < kKeys; ++k) {
    // Built with += (not operator+): GCC 12's -Wrestrict false-fires on the
    // inlined char* + string&& overload, and the strict lane runs -Werror.
    std::string key = "k";
    key += std::to_string(k);
    keys.push_back(std::move(key));
  }
  std::vector<std::thread> workers; // esrp-lint: allow(raw-thread)
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &handle, &keys] {
      for (int op = 0; op < kOpsPerThread; ++op) {
        const std::string& key = keys[op % kKeys];
        if (cache.find(key) == nullptr) cache.insert(key, handle);
        if (op % 64 == 0) (void)cache.stats(); // concurrent stats reads
      }
    });
  }
  for (std::thread& w : workers) w.join(); // esrp-lint: allow(raw-thread)

  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  // Every key was missed at least once (first toucher) and at most once
  // per thread (a thread that misses inserts before its next find).
  EXPECT_GE(stats.misses, static_cast<std::uint64_t>(kKeys));
  EXPECT_LE(stats.misses, static_cast<std::uint64_t>(kKeys) * kThreads);
  EXPECT_EQ(stats.size, static_cast<std::size_t>(kKeys));
  EXPECT_EQ(stats.evictions, 0u);
}

} // namespace
} // namespace esrp
