// Tiny "k=v,k=v" argument parser shared by the scenario registries
// (failure processes and cluster shapes). Strict by design: unknown keys,
// duplicate keys, and malformed numbers all throw esrp::Error naming the
// spec kind, so a typo in a sweep axis fails the whole sweep up front
// instead of silently running a default.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace esrp {

class KvParams {
public:
  /// Parse `arg` ("", "k=v", or "k=v,k=v,..."); `what` names the spec in
  /// error messages (e.g. "failure process \"exponential\""); `allowed`
  /// lists every accepted key.
  KvParams(const std::string& arg, std::string what,
           std::vector<std::string> allowed);

  bool has(const std::string& key) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;

  /// Required variants: throw when the key is absent.
  double require_double(const std::string& key) const;
  std::int64_t require_int(const std::string& key) const;

private:
  [[noreturn]] void fail(const std::string& message) const;
  const std::string& raw(const std::string& key) const;

  std::string what_;
  std::map<std::string, std::string> values_;
};

} // namespace esrp
