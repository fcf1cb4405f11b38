#include "partition/index_set.hpp"

#include <algorithm>
#include <iterator>

#include "common/error.hpp"

namespace esrp {

bool is_index_set(std::span<const index_t> xs) {
  for (std::size_t k = 1; k < xs.size(); ++k)
    if (xs[k] <= xs[k - 1]) return false;
  return true;
}

IndexSet index_range(index_t lo, index_t hi) {
  ESRP_CHECK(lo <= hi);
  IndexSet out;
  out.reserve(static_cast<std::size_t>(hi - lo));
  for (index_t i = lo; i < hi; ++i) out.push_back(i);
  return out;
}

IndexSet set_union(std::span<const index_t> a, std::span<const index_t> b) {
  ESRP_CHECK(is_index_set(a) && is_index_set(b));
  IndexSet out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

IndexSet set_difference(std::span<const index_t> a, std::span<const index_t> b) {
  ESRP_CHECK(is_index_set(a) && is_index_set(b));
  IndexSet out;
  out.reserve(a.size());
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

IndexSet set_intersection(std::span<const index_t> a,
                          std::span<const index_t> b) {
  ESRP_CHECK(is_index_set(a) && is_index_set(b));
  IndexSet out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

IndexSet set_complement(std::span<const index_t> a, index_t domain) {
  ESRP_CHECK(is_index_set(a));
  ESRP_CHECK(a.empty() || (a.front() >= 0 && a.back() < domain));
  IndexSet out;
  out.reserve(static_cast<std::size_t>(domain) - a.size());
  std::size_t k = 0;
  for (index_t i = 0; i < domain; ++i) {
    if (k < a.size() && a[k] == i) {
      ++k;
    } else {
      out.push_back(i);
    }
  }
  return out;
}

bool set_contains(std::span<const index_t> a, index_t x) {
  return std::binary_search(a.begin(), a.end(), x);
}

IndexRuns::IndexRuns(std::span<const index_t> set) {
  for (std::size_t k = 0; k < set.size(); ++k) {
    if (runs_.empty() || set[k] != runs_.back().end)
      runs_.push_back({set[k], set[k] + 1, static_cast<index_t>(k)});
    else
      ++runs_.back().end;
  }
}

index_t IndexRuns::position(index_t x) const {
  // The last run that starts at or before x.
  const auto it = std::upper_bound(
      runs_.begin(), runs_.end(), x,
      [](index_t v, const Run& r) { return v < r.first; });
  if (it == runs_.begin()) return -1;
  const Run& r = *std::prev(it);
  return x < r.end ? r.pos + (x - r.first) : -1;
}

} // namespace esrp
