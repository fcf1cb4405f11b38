// esrp_cli — run one solve through the esrp::solve(SolveSpec) facade.
//
// Examples:
//   esrp_cli --matrix emilia --nodes 128 --strategy esrp --interval 20 --phi 3 --fail-at auto --fail-ranks 64:3
//   esrp_cli --matrix poisson3d:24,24,24 --strategy imcr --interval 50 --phi 1 --fail-at 100 --fail-ranks 0:1
//   esrp_cli --matrix mm:/path/to/matrix.mtx --strategy none
//   esrp_cli --solver pipelined --precond ssor --matrix poisson2d:64,64
//   esrp_cli --list
//
// Solvers, preconditioners and matrix generators come from the string-keyed
// registries behind the facade (src/api/registry.hpp) — `--list` prints
// them, and an unknown key answers with a "did you mean" hint. `--fail-at
// auto` places the failure with the paper's worst-case rule (two iterations
// before the end of the interval containing C/2): it runs as the failure
// process "fixed:it=worst,start=S,count=C", which needs one extra
// reference solve.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/solve.hpp"
#include "parallel/parallel.hpp"
#include "scenario/cluster_shape.hpp"
#include "scenario/failure_process.hpp"
#include "scenario/kv_params.hpp"
#include "scenario/sweep.hpp"
#include "service/solve_service.hpp"

namespace {

using namespace esrp;

// One table drives both the help text and the allowlist of value-taking
// options, so a new flag cannot be documented but rejected (or vice versa).
struct OptionSpec {
  const char* flag;     ///< bare option name, e.g. "--matrix"
  const char* arg;      ///< argument placeholder, or nullptr for booleans
  const char* help;     ///< may contain embedded newlines with indentation
};

constexpr OptionSpec kOptions[] = {
    {"--matrix", "M",
     "emilia | audikw | poisson2d:NX,NY |\n"
     "                    poisson3d:NX,NY,NZ | laplace1d:N | mm:<file.mtx>\n"
     "                    (see --list)"},
    {"--solver", "S",
     "pcg | pipelined | resilient-pcg | dist-pipelined\n"
     "                    (default resilient-pcg; see --list)"},
    {"--precond", "P",
     "identity | jacobi | block-jacobi | ssor | ic0\n"
     "                    (default block-jacobi; see --list)"},
    {"--nodes", "N", "simulated cluster size (default 128)"},
    {"--strategy", "S",
     "none | esrp | imcr  (default esrp for the\n"
     "                    distributed solvers, none otherwise)"},
    {"--interval", "T", "checkpoint interval (default 20; 1=ESR)"},
    {"--phi", "P", "redundant copies (default 1)"},
    {"--rtol", "X", "convergence tolerance (default 1e-8)"},
    {"--block-size", "B", "block Jacobi block size (default 10)"},
    {"--fail-at", "J|auto",
     "inject a failure (default: none); auto = two\n"
     "                    iterations before the end of the interval\n"
     "                    containing C/2 (runs one reference solve)"},
    {"--fail-ranks", "S:C", "contiguous ranks, start:count (default 0:phi)"},
    {"--failure-process", "SPEC",
     "sample a stochastic failure schedule instead of\n"
     "                    --fail-at: fixed:it=J|worst[,start=S]\n"
     "                    [,count=C|phi] | none |\n"
     "                    exponential:mean=M | weibull:k=K,scale=S |\n"
     "                    rack:W/<inner> (see --list; runs one reference\n"
     "                    solve for the horizon C)"},
    {"--seed", "N", "failure-process sampling seed (default 1)"},
    {"--cluster", "SPEC",
     "cluster shape: homogeneous | straggler:... |\n"
     "                    slow-rack:... | slow-links:... (see --list)"},
    {"--sdc", "KV",
     "inject a silent bit-flip: it=J[,vec=p|x|r|\n"
     "                    checkpoint|pcopy][,entry=E][,bit=B]\n"
     "                    (resilient-pcg; live vectors detect via\n"
     "                    --residual-replacement, redundant state via the\n"
     "                    recovery ladder's checksums)"},
    {"--residual-replacement", "K",
     "recompute r = b - A x every K iterations\n"
     "                    (default 0 = never; resilient-pcg only)"},
    {"--formulation", "F", "inverse | matrix (default inverse)"},
    {"--threads", "N",
     "kernel threads (default $ESRP_NUM_THREADS or 1;\n"
     "                    0 = all hardware threads)"},
    {"--repeat", "N",
     "run the solve N times through the SolveService\n"
     "                    prepare/solve split, re-using one prepared handle\n"
     "                    (matrix, plans, factorization) across runs, and\n"
     "                    print the plan-cache statistics (default 1)"},
    {"--no-spares", nullptr,
     "recover onto survivors (resilient-pcg ESRP only)"},
    {"--recovery-policy", "P",
     "ladder | exact | checkpoint | scratch | shrink\n"
     "                    recovery-ladder preset (default ladder; shrink\n"
     "                    needs resilient-pcg + esrp, see --list)"},
    {"--list", nullptr, "print the registered solvers, preconditioners,\n"
                        "                    and matrix generators, then exit"},
    {"--quiet", nullptr, "machine-readable one-line output"},
};

[[noreturn]] void usage(const char* msg = nullptr, int code = 2) {
  if (msg) std::fprintf(stderr, "error: %s\n\n", msg);
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(out, "usage: esrp_cli [options]\n");
  for (const OptionSpec& o : kOptions) {
    char label[32];
    std::snprintf(label, sizeof label, "%s %s", o.flag,
                  o.arg ? o.arg : "");
    std::fprintf(out, "  %-17s %s\n", label, o.help);
  }
  std::exit(code);
}

/// A whole-string base-10 integer in [lo, hi]; anything else is a usage
/// error. The default range fits every int-typed field.
std::int64_t parse_int(const std::string& text, const std::string& what,
                       std::int64_t lo = std::numeric_limits<int>::min(),
                       std::int64_t hi = std::numeric_limits<int>::max()) {
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0')
    usage((what + " needs an integer, got \"" + text + "\"").c_str());
  if (v < lo || v > hi)
    usage((what + " must lie in [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "], got " + text)
              .c_str());
  return v;
}

/// A whole-string number; anything else is a usage error.
double parse_double(const std::string& text, const std::string& what) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end == nullptr || *end != '\0')
    usage((what + " needs a number, got \"" + text + "\"").c_str());
  return v;
}

bool takes_value(const std::string& key) {
  for (const OptionSpec& o : kOptions)
    if (o.arg != nullptr && key == o.flag) return true;
  return false;
}

template <typename Registry>
void print_registry(const Registry& reg, const char* heading) {
  std::printf("%s:\n", heading);
  for (const std::string& key : reg.keys())
    std::printf("  %-15s %s\n", key.c_str(), reg.help(key).c_str());
}

/// One capability line per solver, straight from the registry's
/// SolverEntry flags — the same flags validate_spec enforces, so what
/// --list prints is exactly what a spec may ask for.
void print_solver_registry() {
  std::printf("solvers:\n");
  for (const std::string& key : solver_registry().keys()) {
    const SolverEntry& e = solver_registry().get(key);
    std::printf("  %-15s %s\n", key.c_str(),
                solver_registry().help(key).c_str());
    std::string caps;
    if (!e.distributed) {
      caps = "sequential; no failure injection";
    } else {
      // Every distributed solver runs every strategy on a multi-event
      // failure schedule and climbs every rung of the recovery ladder,
      // no-spare recovery included.
      caps = "strategies: none, esrp, imcr; failures: multi-event";
      if (!e.supports_residual_replacement) caps += "; no residual replacement";
      if (e.supports_sdc) caps += "; sdc injection";
    }
    std::printf("  %-15s   [%s]\n", "", caps.c_str());
  }
}

[[noreturn]] void list_registries() {
  print_solver_registry();
  print_registry(precond_registry(), "preconditioners");
  print_registry(matrix_registry(), "matrices");
  print_registry(failure_process_registry(), "failure processes");
  print_registry(cluster_shape_registry(), "cluster shapes");
  std::exit(0);
}

} // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool no_spares = false, quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--no-spares") {
      no_spares = true;
    } else if (key == "--quiet") {
      quiet = true;
    } else if (key == "--list") {
      list_registries();
    } else if (key == "--help" || key == "-h") {
      usage(nullptr, 0);
    } else if (takes_value(key) && i + 1 < argc) {
      args[key] = argv[++i];
    } else if (takes_value(key)) {
      usage((key + " requires a value").c_str());
    } else if (key.rfind("--", 0) == 0) {
      usage(("unknown option: " + key).c_str());
    } else {
      usage(("unexpected argument: " + key).c_str());
    }
  }

  auto get = [&](const char* key, const char* fallback) {
    const auto it = args.find(key);
    return it == args.end() ? std::string(fallback) : it->second;
  };

  SolveSpec spec;
  spec.matrix = get("--matrix", "emilia");
  spec.solver = get("--solver", "resilient-pcg");
  spec.precond = get("--precond", "block-jacobi");

  // Key typos, bad enum spellings and a bad --threads are usage errors
  // (exit 2, with the registry's "did you mean" hint), not runtime
  // failures. Validate them before any expensive work.
  try {
    check_matrix_key(spec.matrix);
    const SolverEntry& entry = solver_registry().get(spec.solver);
    (void)precond_registry().get(spec.precond);
    // The default strategy is esrp on the distributed solvers and none on
    // the sequential ones, which ignore the strategy entirely.
    spec.strategy = strategy_from_string(
        get("--strategy", entry.distributed ? "esrp" : "none"));
    spec.formulation =
        formulation_from_string(get("--formulation", "inverse"));
  } catch (const Error& e) {
    usage(e.what());
  }

  if (args.count("--threads")) {
    const auto n =
        static_cast<int>(parse_int(args.at("--threads"), "--threads", 0));
    spec.threads = n;
    // Also apply globally (as the pre-facade CLI did): the --fail-at auto
    // reference solve runs outside esrp::solve's per-solve override, and
    // its trajectory — which places the failure — is only comparable to
    // the main solve's at the same thread count.
    set_num_threads(n);
  }

  int repeat = 1;
  if (args.count("--repeat")) {
    repeat = static_cast<int>(parse_int(args.at("--repeat"), "--repeat", 1));
  }

  spec.nodes = static_cast<rank_t>(parse_int(get("--nodes", "128"), "--nodes"));
  spec.interval = parse_int(get("--interval", "20"), "--interval");
  spec.phi = static_cast<int>(parse_int(get("--phi", "1"), "--phi"));
  spec.rtol = parse_double(get("--rtol", "1e-8"), "--rtol");
  spec.block_size = parse_int(get("--block-size", "10"), "--block-size");
  spec.spare_nodes = !no_spares;
  spec.residual_replacement =
      parse_int(get("--residual-replacement", "0"), "--residual-replacement");
  spec.cluster_shape = get("--cluster", "");
  spec.recovery_policy = get("--recovery-policy", "ladder");

  // --sdc is strict k=v parsing (scenario/kv_params.hpp), so a typo'd key
  // is a usage error like an unknown registry key. Semantic checks
  // (target name, bit range, entry range) follow in validate_spec.
  if (args.count("--sdc")) {
    try {
      const KvParams kv(args.at("--sdc"), "--sdc",
                        {"it", "vec", "entry", "bit"});
      SdcEvent e;
      e.iteration = static_cast<index_t>(kv.require_int("it"));
      e.target = kv.get_string("vec", "p");
      e.index = static_cast<index_t>(kv.get_int("entry", 0));
      e.bit = static_cast<int>(kv.get_int("bit", 51));
      spec.sdc_events.push_back(e);
    } catch (const Error& e) {
      usage(e.what());
    }
  }

  // Unsupported solver/strategy/no-spare combinations are usage errors
  // (exit 2) with the registry's capability message, caught before any
  // expensive work — same spirit as the "did you mean" key hints above.
  // (The failure schedule is validated again inside esrp::solve.)
  try {
    validate_spec(spec);
  } catch (const Error& e) {
    usage(e.what());
  }

  // Generator-built matrices resolve at flag time, so malformed dimension
  // arguments stay usage errors (exit 2) like unknown keys. Matrix Market
  // files stay deferred to the solve: an unreadable file is a runtime
  // failure (exit 1), not a usage mistake.
  TestProblem prob;
  if (spec.matrix != "mm" && spec.matrix.rfind("mm:", 0) != 0) {
    try {
      prob = resolve_matrix(spec.matrix);
    } catch (const Error& e) {
      usage(e.what());
    }
    spec.matrix_data = &prob.matrix;
    spec.matrix_name = prob.name;
  }

  try {
    double t0 = -1;
    const std::string fail_at = get("--fail-at", "");
    std::string process = get("--failure-process", "");
    if (fail_at.empty() && args.count("--fail-ranks"))
      usage("--fail-ranks requires --fail-at");
    if (process.empty() && args.count("--seed"))
      usage("--seed requires --failure-process");
    if (!process.empty() && !fail_at.empty())
      usage("--failure-process and --fail-at are mutually exclusive");
    if ((!fail_at.empty() || !process.empty()) &&
        !solver_registry().get(spec.solver).distributed)
      usage(((fail_at.empty() ? "--failure-process" : "--fail-at") +
             std::string(" needs a distributed solver; ") + spec.solver +
             " is sequential")
                .c_str());

    // --fail-at J injects one event as given; --fail-at auto is the
    // failure process "fixed:it=worst" below, so it shares the reference
    // solve of every sampled schedule.
    if (!fail_at.empty()) {
      const std::string ranks = get("--fail-ranks",
                                    ("0:" + std::to_string(spec.phi)).c_str());
      const std::size_t colon = ranks.find(':');
      if (colon == std::string::npos) usage("--fail-ranks needs start:count");
      const auto start = static_cast<rank_t>(parse_int(
          ranks.substr(0, colon), "--fail-ranks start", 0, spec.nodes - 1));
      const auto count = static_cast<rank_t>(parse_int(
          ranks.substr(colon + 1), "--fail-ranks count", 1, spec.nodes));
      if (fail_at == "auto") {
        process = "fixed:it=worst,start=" + std::to_string(start) +
                  ",count=" + std::to_string(count);
      } else {
        spec.failures.push_back(FailureEvent{
            parse_int(fail_at, "--fail-at (an iteration or auto)", 0),
            contiguous_ranks(start, count, spec.nodes)});
      }
    }

    if (!process.empty()) {
      try {
        check_failure_process_key(process);
      } catch (const Error& e) {
        usage(e.what());
      }
      if (spec.matrix_data == nullptr) { // mm: path — build and reuse
        prob = resolve_matrix(spec.matrix);
        spec.matrix_data = &prob.matrix;
        spec.matrix_name = prob.name;
      }
      // The process samples iterations on [1, C): the horizon C comes from
      // the failure-free reference solve of the *same* spec (solver,
      // preconditioner, block size, threads), so the schedule is calibrated
      // to the trajectory it will interrupt and t0 to the solve it is
      // compared with.
      const SolveReport ref = esrp::solve(reference_spec(spec));
      if (!ref.converged) usage("reference run did not converge");
      t0 = ref.modeled_time;
      const std::string seed_text = get("--seed", "1");
      char* seed_end = nullptr;
      const std::uint64_t seed =
          std::strtoull(seed_text.c_str(), &seed_end, 10);
      if (seed_text.empty() || seed_end == nullptr || *seed_end != '\0')
        usage("--seed must be a non-negative integer");
      spec.failures = sample_failure_schedule(
          process, spec.nodes, ref.iterations, seed, spec.interval, spec.phi);
      if (!quiet && fail_at == "auto") {
        std::printf("reference: C = %lld, t0 = %.3f s; failing at %lld\n",
                    static_cast<long long>(ref.iterations), t0,
                    static_cast<long long>(spec.failures[0].iteration));
      } else if (!quiet) {
        std::printf("reference: C = %lld, t0 = %.3f s; seed %llu sampled "
                    "%zu event(s)\n",
                    static_cast<long long>(ref.iterations), t0,
                    static_cast<unsigned long long>(seed),
                    spec.failures.size());
        for (const FailureEvent& e : spec.failures)
          std::printf("  failure at %lld: %zu rank(s) from %d\n",
                      static_cast<long long>(e.iteration), e.ranks.size(),
                      static_cast<int>(e.ranks.empty() ? -1 : e.ranks.front()));
      }
    }

    SolveReport res;
    if (repeat > 1) {
      // The prepare/solve split: the first prepare builds the handle
      // (matrix, partition, plans, factorization), every later one is a
      // plan-cache hit, and each run re-dispatches only the per-run half.
      // Service-routed solves are bitwise identical to esrp::solve, so
      // --repeat changes amortization, never the answer.
      SolveService service;
      for (int rep = 0; rep < repeat; ++rep) {
        const PrepareResult prep = service.prepare(spec);
        res = service.solve(*prep.handle, spec);
        if (!quiet)
          std::printf("run %d/%d:       converged=%d iterations=%lld "
                      "wall=%.4f s (prepare: cache %s)\n",
                      rep + 1, repeat, res.converged ? 1 : 0,
                      static_cast<long long>(res.iterations),
                      res.wall_seconds, prep.cache_hit ? "hit" : "miss");
      }
      const PlanCache::Stats cache = service.cache_stats();
      if (!quiet)
        std::printf("plan cache:    %llu hit(s), %llu miss(es), "
                    "%llu eviction(s), %zu resident\n",
                    static_cast<unsigned long long>(cache.hits),
                    static_cast<unsigned long long>(cache.misses),
                    static_cast<unsigned long long>(cache.evictions),
                    cache.size);
    } else {
      res = esrp::solve(spec);
    }
    const bool distributed = res.nodes > 0;

    if (quiet) {
      if (distributed) {
        std::size_t detected = 0;
        for (const SdcRecord& s : res.sdc) detected += s.detected ? 1 : 0;
        std::printf("converged=%d iterations=%lld executed=%lld "
                    "modeled_time=%.6f recoveries=%zu drift=%.3e",
                    res.converged ? 1 : 0,
                    static_cast<long long>(res.iterations),
                    static_cast<long long>(res.executed_iterations),
                    res.modeled_time, res.recoveries.size(), res.drift);
        if (!res.recoveries.empty()) {
          std::string rungs;
          for (const RecoveryRecord& rec : res.recoveries) {
            if (!rungs.empty()) rungs += ',';
            rungs += to_string(rec.rung);
          }
          std::printf(" rungs=%s", rungs.c_str());
        }
        if (!res.sdc.empty())
          std::printf(" sdc_detected=%zu/%zu", detected, res.sdc.size());
        std::printf("\n");
      } else {
        std::printf("converged=%d iterations=%lld relres=%.3e flops=%.3e\n",
                    res.converged ? 1 : 0,
                    static_cast<long long>(res.iterations), res.final_relres,
                    res.flops);
      }
      return res.converged ? 0 : 1;
    }

    std::printf("matrix:        %s (%lld rows, %lld nnz)\n",
                res.matrix.c_str(), static_cast<long long>(res.rows),
                static_cast<long long>(res.nnz));
    std::printf("solver:        %s, preconditioner %s\n", res.solver.c_str(),
                res.precond.c_str());
    if (distributed)
      std::printf("strategy:      %s, T = %lld, phi = %d, policy %s%s\n",
                  to_string(spec.strategy).c_str(),
                  static_cast<long long>(spec.interval), spec.phi,
                  spec.recovery_policy.c_str(),
                  no_spares ? ", no spares" : "");
    const int threads = spec.threads >= 0 ? spec.threads : num_threads();
    if (threads != 1)
      std::printf("threads:       %d%s\n", threads,
                  threads == 0 ? " (all hardware)" : "");
    std::printf("converged:     %s after %lld iterations (%lld executed)\n",
                res.converged ? "yes" : "no",
                static_cast<long long>(res.iterations),
                static_cast<long long>(res.executed_iterations));
    if (distributed) {
      std::printf("modeled time:  %.3f s on %d nodes\n", res.modeled_time,
                  static_cast<int>(res.nodes));
      if (t0 > 0)
        std::printf("overhead:      %.1f%% over the reference\n",
                    100 * (res.modeled_time - t0) / t0);
      for (const RecoveryRecord& rec : res.recoveries) {
        std::printf("recovery:      failed at %lld, resumed from %lld "
                    "(%lld redone) via %s, %.4f s modeled\n",
                    static_cast<long long>(rec.failed_at),
                    static_cast<long long>(rec.restored_to),
                    static_cast<long long>(rec.wasted_iterations),
                    to_string(rec.rung).c_str(), rec.modeled_time);
        if (rec.attempted.size() > 1) {
          std::string path;
          for (const RecoveryRung r : rec.attempted) {
            if (!path.empty()) path += " -> ";
            path += to_string(r);
          }
          std::printf("               ladder: %s\n", path.c_str());
        }
        if (rec.copies_corrupt > 0 || rec.checkpoints_corrupt > 0)
          std::printf("               integrity: %lld corrupt cop%s, "
                      "%lld corrupt checkpoint%s demoted (%lld copies "
                      "verified)\n",
                      static_cast<long long>(rec.copies_corrupt),
                      rec.copies_corrupt == 1 ? "y" : "ies",
                      static_cast<long long>(rec.checkpoints_corrupt),
                      rec.checkpoints_corrupt == 1 ? "" : "s",
                      static_cast<long long>(rec.copies_verified));
        if (rec.ranks_absorbed > 0 || rec.ranks_rejoined > 0)
          std::printf("               cluster: %lld rank%s lost, %lld "
                      "absorbed, %lld rejoined\n",
                      static_cast<long long>(rec.ranks_lost),
                      rec.ranks_lost == 1 ? "" : "s",
                      static_cast<long long>(rec.ranks_absorbed),
                      static_cast<long long>(rec.ranks_rejoined));
      }
      for (const SdcRecord& s : res.sdc) {
        std::printf("sdc:           bit %d of %s[%lld] flipped at %lld on "
                    "rank %d — ",
                    s.event.bit, s.event.target.c_str(),
                    static_cast<long long>(s.event.index),
                    static_cast<long long>(s.event.iteration),
                    static_cast<int>(s.rank));
        if (s.detected)
          std::printf("detected at %lld (gap %.3e)\n",
                      static_cast<long long>(s.detected_at),
                      static_cast<double>(s.discrepancy));
        else
          std::printf("UNDETECTED (max gap %.3e%s)\n",
                      static_cast<double>(s.discrepancy),
                      spec.residual_replacement > 0
                          ? ""
                          : "; no residual replacement configured");
      }
      std::printf("residual drift: %+.3e\n", res.drift);
    } else {
      std::printf("final relres:  %.3e after %.3e flops\n", res.final_relres,
                  res.flops);
    }
    return res.converged ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "esrp_cli: %s\n", e.what());
    return 1;
  }
}
