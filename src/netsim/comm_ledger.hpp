// Communication accounting. Every message in the simulated cluster is
// recorded here, categorized so benches can attribute overhead to its source
// (regular SpMV halo vs ASpMV augmentation vs checkpointing vs recovery).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace esrp {

enum class CommCategory : std::uint8_t {
  spmv_halo = 0,    ///< entries required by the regular SpMV
  aspmv_extra = 1,  ///< additional redundancy entries of the ASpMV
  checkpoint = 2,   ///< IMCR buddy checkpoint traffic
  recovery = 3,     ///< gathering data for replacement nodes after a failure
  allreduce = 4,    ///< dot products / norms
  other = 5,
};

constexpr std::size_t kNumCommCategories = 6;

std::string to_string(CommCategory c);

struct CategoryTotals {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

/// Cumulative per-category communication totals for a whole run.
class CommLedger {
public:
  void record(CommCategory cat, std::size_t bytes) {
    auto& t = totals_[static_cast<std::size_t>(cat)];
    ++t.messages;
    t.bytes += bytes;
  }

  /// Record a batch of messages at once: `add` counts them and their bytes.
  void record(CommCategory cat, const CategoryTotals& add) {
    auto& t = totals_[static_cast<std::size_t>(cat)];
    t.messages += add.messages;
    t.bytes += add.bytes;
  }

  const CategoryTotals& totals(CommCategory cat) const {
    return totals_[static_cast<std::size_t>(cat)];
  }

  std::uint64_t total_bytes() const {
    std::uint64_t b = 0;
    for (const auto& t : totals_) b += t.bytes;
    return b;
  }

  std::uint64_t total_messages() const {
    std::uint64_t m = 0;
    for (const auto& t : totals_) m += t.messages;
    return m;
  }

  void reset() { totals_.fill(CategoryTotals{}); }

private:
  std::array<CategoryTotals, kNumCommCategories> totals_{};
};

} // namespace esrp
