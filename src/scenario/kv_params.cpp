#include "scenario/kv_params.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/error.hpp"

namespace esrp {

KvParams::KvParams(const std::string& arg, std::string what,
                   std::vector<std::string> allowed)
    : what_(std::move(what)) {
  std::size_t pos = 0;
  while (pos < arg.size()) {
    std::size_t end = arg.find(',', pos);
    if (end == std::string::npos) end = arg.size();
    const std::string item = arg.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) fail("empty parameter in \"" + arg + "\"");
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == item.size())
      fail("parameter \"" + item + "\" is not of the form key=value");
    const std::string key = item.substr(0, eq);
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      std::string valid;
      for (const std::string& a : allowed)
        valid += (valid.empty() ? "" : ", ") + a;
      fail("unknown parameter \"" + key + "\" (valid: " + valid + ")");
    }
    if (!values_.emplace(key, item.substr(eq + 1)).second)
      fail("duplicate parameter \"" + key + "\"");
  }
}

bool KvParams::has(const std::string& key) const {
  return values_.count(key) > 0;
}

const std::string& KvParams::raw(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) fail("missing required parameter \"" + key + "\"");
  return it->second;
}

std::int64_t KvParams::get_int(const std::string& key,
                               std::int64_t fallback) const {
  return has(key) ? require_int(key) : fallback;
}

std::string KvParams::get_string(const std::string& key,
                                 const std::string& fallback) const {
  return has(key) ? raw(key) : fallback;
}

double KvParams::require_double(const std::string& key) const {
  const std::string& text = raw(key);
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    fail("parameter \"" + key + "\" = \"" + text + "\" is not a number");
  }
}

std::int64_t KvParams::require_int(const std::string& key) const {
  const std::string& text = raw(key);
  try {
    std::size_t used = 0;
    const long long v = std::stoll(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    fail("parameter \"" + key + "\" = \"" + text + "\" is not an integer");
  }
}

void KvParams::fail(const std::string& message) const {
  throw Error(what_ + ": " + message);
}

} // namespace esrp
