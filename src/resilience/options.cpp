#include "resilience/options.hpp"

#include "common/error.hpp"

namespace esrp {

std::string to_string(Strategy s) {
  switch (s) {
    case Strategy::none: return "none";
    case Strategy::esrp: return "esrp";
    case Strategy::imcr: return "imcr";
  }
  return "?";
}

Strategy strategy_from_string(std::string_view name) {
  if (name == "none") return Strategy::none;
  if (name == "esrp") return Strategy::esrp;
  if (name == "imcr") return Strategy::imcr;
  throw Error("unknown strategy \"" + std::string(name) +
              "\" (valid: none, esrp, imcr)");
}

RecoveryPolicy recovery_policy_from_string(std::string_view name) {
  RecoveryPolicy p;
  p.name = std::string(name);
  if (name == "ladder") return p;
  if (name == "exact") {
    p.try_older_snapshot = false;
    p.try_checkpoint = false;
    return p;
  }
  if (name == "checkpoint") {
    p.try_reconstruct = false;
    p.try_older_snapshot = false;
    return p;
  }
  if (name == "scratch") {
    p.try_reconstruct = false;
    p.try_older_snapshot = false;
    p.try_checkpoint = false;
    return p;
  }
  if (name == "shrink") {
    p.shrink_on_unrecoverable = true;
    p.rejoin = true;
    return p;
  }
  throw Error("unknown recovery policy \"" + std::string(name) +
              "\" (valid: ladder, exact, checkpoint, scratch, shrink)");
}

} // namespace esrp
