#include "resilience/redundancy_queue.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace esrp {

RedundancyQueue::RedundancyQueue(std::size_t capacity) : capacity_(capacity) {
  ESRP_CHECK_MSG(capacity >= 2, "queue needs at least two slots");
}

Vector RedundancyQueue::push(RedundantCopy copy) {
  ESRP_CHECK(copy.valid());
  const auto it = std::find_if(
      entries_.begin(), entries_.end(),
      [&](const RedundantCopy& e) { return e.tag() == copy.tag(); });
  if (it != entries_.end()) {
    // Rollback re-execution: replace in place.
    Vector spare = std::move(*it).release();
    *it = std::move(copy);
    return spare;
  }
  ESRP_CHECK_MSG(entries_.empty() || copy.tag() > entries_.back().tag(),
                 "queue tags must be pushed in increasing order (got "
                     << copy.tag() << " after " << entries_.back().tag() << ")");
  entries_.push_back(std::move(copy));
  if (entries_.size() <= capacity_) return {};
  Vector spare = std::move(entries_.front()).release();
  entries_.erase(entries_.begin());
  return spare;
}

const RedundantCopy* RedundancyQueue::find(index_t tag) const {
  for (const RedundantCopy& e : entries_)
    if (e.tag() == tag) return &e;
  return nullptr;
}

std::optional<index_t> RedundancyQueue::newest_adjacent_pair() const {
  for (std::size_t k = entries_.size(); k-- > 1;) {
    if (entries_[k].tag() == entries_[k - 1].tag() + 1)
      return entries_[k].tag();
  }
  return std::nullopt;
}

void RedundancyQueue::drop_holders(std::span<const rank_t> ranks) {
  for (RedundantCopy& e : entries_) e.drop_holders(ranks);
}

rank_t RedundancyQueue::corrupt_newest(index_t entry, int bit) {
  if (entries_.empty()) return -1;
  return entries_.back().corrupt(entry, bit);
}

std::vector<index_t> RedundancyQueue::tags() const {
  std::vector<index_t> out;
  out.reserve(entries_.size());
  for (const RedundantCopy& e : entries_) out.push_back(e.tag());
  return out;
}

} // namespace esrp
