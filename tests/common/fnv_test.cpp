#include "common/fnv.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string_view>

namespace esrp {
namespace {

/// The standard FNV-1a-64 offset basis. kFnvOffset is not it (see fnv.hpp).
constexpr std::uint64_t kStandardOffset = 14695981039346656037ull;

std::uint64_t bytewise(std::string_view s) { return fnv1a(s.data(), s.size()); }
std::uint64_t wordwise(std::string_view s) {
  return fnv1a_words(s.data(), s.size());
}

TEST(Fnv, BytewiseMatchesStandardVectors) {
  const auto standard = [](std::string_view s) {
    return fnv1a(s.data(), s.size(), kStandardOffset);
  };
  EXPECT_EQ(standard(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(standard("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(standard("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv, BytewiseFromTheRepoOffsetIsPinned) {
  // Cell seeds and the tests' golden trajectory hashes start from
  // kFnvOffset, so its outputs must never move.
  EXPECT_EQ(bytewise(""), kFnvOffset);
  EXPECT_EQ(bytewise("a"), 4953267810257967366ull);
  EXPECT_EQ(bytewise("foobar"), 9870438755804841970ull);
}

TEST(Fnv, WordsEqualBytesBelowOneWord) {
  const std::string_view text = "abcdefg";
  for (std::size_t n = 0; n < 8; ++n)
    EXPECT_EQ(wordwise(text.substr(0, n)), bytewise(text.substr(0, n))) << n;
}

TEST(Fnv, WordsChainAcrossWordBoundaries) {
  // 43 bytes: five whole words and a 3-byte tail.
  const std::string_view text = "the quick brown fox jumps over the lazy dog";
  const std::uint64_t whole = wordwise(text);
  for (std::size_t split = 0; split <= text.size(); split += 8) {
    const std::uint64_t head = fnv1a_words(text.data(), split);
    EXPECT_EQ(fnv1a_words(text.data() + split, text.size() - split, head), whole)
        << split;
  }
}

TEST(Fnv, WordsIgnoreAlignment) {
  alignas(8) std::array<unsigned char, 32> buf{};
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<unsigned char>(i * 37 + 11);
  alignas(8) std::array<unsigned char, 33> shifted{};
  std::copy(buf.begin(), buf.end(), shifted.begin() + 1);
  EXPECT_EQ(fnv1a_words(shifted.data() + 1, buf.size()),
            fnv1a_words(buf.data(), buf.size()));
}

} // namespace
} // namespace esrp
