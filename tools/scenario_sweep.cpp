// scenario_sweep — grid sweeps over strategy x storage interval x failure
// process x cluster shape, through the esrp::solve facade
// (src/scenario/sweep.hpp).
//
// Examples:
//   scenario_sweep                              # the default 2x2x2x2 grid
//   scenario_sweep --strategy esrp --strategy imcr --interval 10
//       --process exponential:mean=40 --process rack:2/exponential:mean=40
//       --cluster homogeneous --cluster straggler:factor=4
//       --matrix poisson2d:16,16 --nodes 8 --phi 2 --reps 10 --seed 7
//     (one command line; wrapped here for width)
//   scenario_sweep --csv sweep.csv              # also write the CSV artifact
//
// Every run is reproducible from its --seed: per-cell seeds are derived by
// FNV-1a over the cell key, so adding or removing grid cells never changes
// another cell's draws, and the table is bitwise identical at any thread
// count (docs/parallelism.md).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "parallel/parallel.hpp"
#include "scenario/sweep.hpp"

namespace {

using namespace esrp;

struct OptionSpec {
  const char* flag;
  const char* arg;  ///< argument placeholder, or nullptr for booleans
  bool repeatable;  ///< axis flags may appear once per grid value
  const char* help;
};

constexpr OptionSpec kOptions[] = {
    {"--strategy", "S", true,
     "axis: none | esrp | imcr (repeatable;\n"
     "                    default: esrp, imcr)"},
    {"--interval", "T", true,
     "axis: storage interval (repeatable; default: 10, 25)"},
    {"--process", "SPEC", true,
     "axis: failure-process spec, e.g.\n"
     "                    exponential:mean=40 | weibull:k=2,scale=40 |\n"
     "                    rack:2/exponential:mean=40 (repeatable;\n"
     "                    default: exponential:mean=40 and its rack:2 form)"},
    {"--cluster", "SPEC", true,
     "axis: cluster-shape spec, e.g. homogeneous |\n"
     "                    straggler:factor=4 (repeatable; default:\n"
     "                    homogeneous, straggler:count=1,factor=4)"},
    {"--matrix", "M", false, "problem"},
    {"--solver", "S", false, "distributed solver"},
    {"--precond", "P", false, "preconditioner"},
    {"--nodes", "N", false, "simulated cluster size"},
    {"--phi", "P", false, "redundant copies"},
    {"--reps", "R", false, "repetitions per grid cell"},
    {"--seed", "N", false, "base seed"},
    {"--rtol", "X", false, "convergence tolerance"},
    {"--block-size", "B", false, "block Jacobi block size"},
    {"--threads", "N", false,
     "kernel threads (default $ESRP_NUM_THREADS or 1;\n"
     "                    0 = all hardware threads)"},
    {"--csv", "FILE", false, "also write the machine-readable table"},
    {"--quiet", nullptr, false, "suppress the console table (CSV to stdout)"},
};

/// The default --help shows for a scalar flag, read from SweepOptions so
/// that default_sweep_spec() is the one place the defaults are written.
/// Empty for flags whose help text says it already.
std::string default_text(const std::string& flag) {
  const SweepOptions d;
  std::ostringstream s;
  if (flag == "--matrix") s << d.base.matrix;
  else if (flag == "--solver") s << d.base.solver;
  else if (flag == "--precond") s << d.base.precond;
  else if (flag == "--nodes") s << d.base.nodes;
  else if (flag == "--phi") s << d.base.phi;
  else if (flag == "--reps") s << d.repetitions;
  else if (flag == "--seed") s << "0x" << std::uppercase << std::hex << d.seed;
  else if (flag == "--rtol") s << d.base.rtol;
  else if (flag == "--block-size") s << d.base.block_size;
  return s.str();
}

[[noreturn]] void usage(const char* msg = nullptr, int code = 2) {
  if (msg) std::fprintf(stderr, "error: %s\n\n", msg);
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(out, "usage: scenario_sweep [options]\n");
  for (const OptionSpec& o : kOptions) {
    char label[32];
    std::snprintf(label, sizeof label, "%s %s", o.flag, o.arg ? o.arg : "");
    const std::string fallback = default_text(o.flag);
    std::fprintf(out, "  %-17s %s%s\n", label, o.help,
                 fallback.empty() ? ""
                                  : (" (default " + fallback + ")").c_str());
  }
  std::exit(code);
}

const OptionSpec* find_option(const std::string& key) {
  for (const OptionSpec& o : kOptions)
    if (key == o.flag) return &o;
  return nullptr;
}

std::int64_t parse_int(const std::string& text, const char* flag) {
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0')
    usage((std::string(flag) + " needs an integer, got \"" + text + "\"")
              .c_str());
  return v;
}

double parse_double(const std::string& text, const char* flag) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end == nullptr || *end != '\0')
    usage((std::string(flag) + " needs a number, got \"" + text + "\"")
              .c_str());
  return v;
}

} // namespace

int main(int argc, char** argv) {
  // Axis flags are repeatable; scalar flags are last-wins like esrp_cli.
  std::map<std::string, std::vector<std::string>> axis;
  std::map<std::string, std::string> scalar;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--quiet") {
      quiet = true;
      continue;
    }
    if (key == "--help" || key == "-h") usage(nullptr, 0);
    const OptionSpec* opt = find_option(key);
    if (opt == nullptr) {
      usage(((key.rfind("--", 0) == 0 ? "unknown option: "
                                      : "unexpected argument: ") +
             key)
                .c_str());
    }
    if (i + 1 >= argc) usage((key + " requires a value").c_str());
    const std::string value = argv[++i];
    if (opt->repeatable)
      axis[key].push_back(value);
    else
      scalar[key] = value;
  }

  // Flags overwrite the SweepOptions defaults; an absent flag keeps them.
  auto given = [&](const char* key) -> const std::string* {
    const auto it = scalar.find(key);
    return it == scalar.end() ? nullptr : &it->second;
  };

  SweepOptions opts;
  SolveSpec& base = opts.base;
  if (const std::string* v = given("--matrix")) base.matrix = *v;
  if (const std::string* v = given("--solver")) base.solver = *v;
  if (const std::string* v = given("--precond")) base.precond = *v;
  if (const std::string* v = given("--nodes"))
    base.nodes = static_cast<rank_t>(parse_int(*v, "--nodes"));
  if (const std::string* v = given("--phi"))
    base.phi = static_cast<int>(parse_int(*v, "--phi"));
  if (const std::string* v = given("--reps"))
    opts.repetitions = static_cast<int>(parse_int(*v, "--reps"));
  if (const std::string* v = given("--rtol"))
    base.rtol = parse_double(*v, "--rtol");
  if (const std::string* v = given("--block-size"))
    base.block_size = static_cast<index_t>(parse_int(*v, "--block-size"));
  if (const std::string* v = given("--seed")) {
    const std::string& text = *v;
    char* end = nullptr;
    opts.seed = std::strtoull(text.c_str(), &end, 0);
    if (text.empty() || end == nullptr || *end != '\0')
      usage("--seed must be a non-negative integer");
  }
  if (const std::string* v = given("--threads")) {
    const auto n = parse_int(*v, "--threads");
    if (n < 0) usage("--threads must be a non-negative integer");
    base.threads = static_cast<int>(n);
    set_num_threads(static_cast<int>(n)); // the references run here too
  }

  // Default grid: the smallest sweep that exercises every subsystem —
  // both recovery strategies, two intervals, an uncorrelated and a
  // rack-correlated process, a homogeneous and a straggler cluster.
  ParamGrid grid;
  auto axis_values = [&](const char* key,
                         std::vector<std::string> fallback) {
    const auto it = axis.find(key);
    return it == axis.end() ? fallback : it->second;
  };
  for (const std::string& s : axis_values("--strategy", {"esrp", "imcr"}))
    grid["strategy"].push_back(s);
  for (const std::string& t : axis_values("--interval", {"10", "25"}))
    grid["interval"].emplace_back(parse_int(t, "--interval"));
  for (const std::string& p : axis_values(
           "--process",
           {"exponential:mean=40", "rack:2/exponential:mean=40"}))
    grid["process"].push_back(p);
  for (const std::string& c : axis_values(
           "--cluster", {"homogeneous", "straggler:count=1,factor=4"}))
    grid["cluster"].push_back(c);

  try {
    const SweepResult result = run_sweep(grid, opts);
    if (!quiet) {
      print_sweep_table(result, std::cout);
    } else {
      std::cout << sweep_csv(result);
    }
    if (scalar.count("--csv")) {
      const std::string& path = scalar.at("--csv");
      std::ofstream out(path);
      if (!out) {
        std::fprintf(stderr, "scenario_sweep: cannot write %s\n",
                     path.c_str());
        return 1;
      }
      out << sweep_csv(result);
      if (!quiet) std::printf("csv written to %s\n", path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scenario_sweep: %s\n", e.what());
    return 1;
  }
}
