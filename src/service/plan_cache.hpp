// PlanCache — a keyed, thread-safe, LRU-bounded cache of prepared
// ProblemHandles. It memoizes the expensive *preparation* artifacts
// (assembled matrix, communication plans, factorized preconditioner) under
// a content key, never solve outcomes, so repeat prepares of the
// same problem re-use one handle and do zero re-factorization (counter-
// asserted by tests/service/plan_cache_test.cpp).
//
// Concurrency: all operations take one internal mutex. Values are
// shared_ptr<const ProblemHandle>, so an eviction never invalidates a
// handle that a running solve still holds — the handle dies with its last
// reference. Two threads that miss the same key concurrently may both
// build; the second insert simply replaces the first (both handles are
// bitwise-equivalent by construction), which keeps the fast path lock-free
// of any build work.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/thread_annotations.hpp"

namespace esrp {

class ProblemHandle;

class PlanCache {
public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t size = 0;     ///< entries currently cached
    std::size_t capacity = 0; ///< LRU bound
  };

  /// `capacity` bounds the number of cached handles; the least recently
  /// used entry is evicted when a fresh insert exceeds it. Capacity 0 is
  /// legal (every insert evicts immediately — effectively a disabled
  /// cache that still counts traffic).
  explicit PlanCache(std::size_t capacity = 16);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Look up `key`. A hit refreshes recency and bumps the hit counter; a
  /// miss bumps the miss counter and returns nullptr.
  std::shared_ptr<const ProblemHandle> find(const std::string& key);

  /// Insert (or refresh) `key`. Re-inserting an existing key replaces the
  /// value and refreshes recency without counting an eviction.
  void insert(const std::string& key,
              std::shared_ptr<const ProblemHandle> handle);

  Stats stats() const;
  void clear();

private:
  using Entry = std::pair<std::string, std::shared_ptr<const ProblemHandle>>;

  mutable Mutex mu_;
  const std::size_t capacity_; ///< immutable after construction
  std::uint64_t hits_ ESRP_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ ESRP_GUARDED_BY(mu_) = 0;
  std::uint64_t evictions_ ESRP_GUARDED_BY(mu_) = 0;
  /// front = most recently used
  std::list<Entry> lru_ ESRP_GUARDED_BY(mu_);
  std::map<std::string, std::list<Entry>::iterator> index_
      ESRP_GUARDED_BY(mu_);
};

} // namespace esrp
