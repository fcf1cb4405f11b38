// FNV-1a content hashing, in two widths:
//
//   - fnv1a (byte-wise FNV-1a-64): short keys whose value is pinned or
//     printed — scenario cell seeds (scenario/sweep) and the trajectory
//     hashes the tests and bench/e2e compute. Its output must never change.
//   - fnv1a_words (8-byte words, then a byte tail): bulk content — the
//     integrity seals on redundant recovery state (RedundantCopy holders,
//     CheckpointStore entries) and the matrix hash in
//     ProblemHandle::content_key. One multiply per word instead of per
//     byte: both loops are bound by the multiply's latency, so the
//     word-wise one does an eighth of the serial work (compare
//     BM_Fnv1a/{bytes,words} in bench_micro_kernels).
//
// Word-wise does not weaken detection. Each step (h ^= w, then h *= odd
// prime) is a bijection on the 64-bit state for fixed w, and h ^= w is a
// bijection in w for fixed h. So with everything else fixed, the final hash
// is a bijection of any single word: a change confined to one word (any
// number of flipped bits within it) always changes the hash, just as a
// one-byte change always changes the byte-wise hash.
//
// 64-bit FNV-1a is not cryptographic — it detects accidental corruption
// (bit flips, torn writes), which is exactly the SDC threat model here.
// Words are loaded in host byte order, so word-wise hashes are only
// compared within one process (seals), or with one build (cache keys).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace esrp {

// The standard offset basis is 14695981039346656037; kFnvOffset lacks its
// last digit. The loop and prime are standard (tests/common/fnv_test.cpp
// checks the published vectors from the standard basis), but cell seeds and
// golden hashes are pinned to this basis, so it stays.
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Fold `bytes` bytes at `data` into the running hash `h`. Chain calls by
/// passing the previous return value as `h`.
inline std::uint64_t fnv1a(const void* data, std::size_t bytes,
                           std::uint64_t h = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// FNV-1a over 8-byte words of `data` (memcpy loads: no alignment or
/// aliasing assumptions), then byte-wise over the last `bytes % 8` bytes.
/// Equals fnv1a for `bytes < 8`. Chains like fnv1a; a chain split at word
/// boundaries equals one call over the concatenation.
inline std::uint64_t fnv1a_words(const void* data, std::size_t bytes,
                                 std::uint64_t h = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + sizeof(std::uint64_t) <= bytes; i += sizeof(std::uint64_t)) {
    std::uint64_t w;
    std::memcpy(&w, p + i, sizeof w);
    h ^= w;
    h *= kFnvPrime;
  }
  return fnv1a(p + i, bytes - i, h);
}

} // namespace esrp
