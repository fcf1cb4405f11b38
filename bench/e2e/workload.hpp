// Workloads, input generation, spans and result writing shared by the gated
// end-to-end runner (esrp_bench.cpp) and the layer probes
// (esrp_bench_layers.cpp).
//
// Only the api/ vocabulary, the matrix generators and common/'s hash and
// seeded stream are included here: the gated runner must not depend on a
// layer below the service API, so the paper's few-line failure placement is
// reimplemented locally instead of borrowed from xp/.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/solve_spec.hpp"
#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "sparse/generators.hpp"

namespace bench {

using esrp::index_t;
using esrp::rank_t;
using esrp::real_t;

// The paper's §5 protocol: 128 nodes, block Jacobi with blocks of at most
// 10 rows, convergence at ||r|| / ||b|| < 1e-8. Every solve runs on one
// kernel thread: on a shared VM a multi-threaded solve waits at every
// kernel for its slowest vCPU, and its time swung up to 4x run to run.
inline constexpr rank_t kNodes = 128;
inline constexpr index_t kBlockSize = 10;
inline constexpr real_t kRtol = 1e-8;

struct Workload {
  std::string name;
  std::string family; ///< "emilia" | "audikw" | "poisson3d"
  index_t grid;       ///< cube edge of the generated grid
  index_t smoke_grid; ///< cube edge under --smoke
  std::string solver; ///< "resilient-pcg" | "pcg"
  esrp::Strategy strategy = esrp::Strategy::none;
  index_t interval = 1; ///< T
  int phi = 1;

  bool distributed() const { return solver != "pcg"; }
};

/// Why each workload exists is recorded in README.md and BENCHMARK.json.
inline const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"emilia-esrp", "emilia", 20, 8, "resilient-pcg", esrp::Strategy::esrp,
       50, 3},
      {"emilia-esr", "emilia", 20, 8, "resilient-pcg", esrp::Strategy::esrp, 1,
       3},
      {"audikw-imcr", "audikw", 20, 6, "resilient-pcg", esrp::Strategy::imcr,
       50, 3},
      {"poisson-pcg", "poisson3d", 80, 16, "pcg"},
  };
  return all;
}

inline const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return w;
  throw std::runtime_error("unknown workload '" + name + "'");
}

// -------------------------------------------------------------- inputs ---

/// Everything the workload seed determines: the matrix (generator seed),
/// the right-hand side, and where the failure lands.
struct Inputs {
  esrp::CsrMatrix a;
  std::string name;
  esrp::Vector b;
  rank_t fail_start = 0; ///< first of the phi contiguous failed ranks
};

inline Inputs make_inputs(const Workload& w, std::uint64_t seed, bool smoke) {
  esrp::Rng rng(seed);
  const std::uint64_t matrix_seed = rng.next_u64();
  const index_t g = smoke ? w.smoke_grid : w.grid;
  Inputs in;
  esrp::TestProblem tp;
  if (w.family == "emilia") {
    tp = esrp::emilia_like(g, g, g, matrix_seed);
  } else if (w.family == "audikw") {
    tp = esrp::audikw_like(g, g, g, matrix_seed);
  } else {
    tp.name = "poisson3d_" + std::to_string(g);
    tp.matrix = esrp::poisson3d(g, g, g);
  }
  in.a = std::move(tp.matrix);
  in.name = tp.name;
  in.b.resize(static_cast<std::size_t>(in.a.rows()));
  for (real_t& v : in.b) v = rng.uniform(-1.0, 1.0);
  // The paper's two failure locations: the block starting at rank 0
  // ("start") or at rank N/2 ("center").
  in.fail_start = (rng.next_u64() & 1) != 0 ? kNodes / 2 : 0;
  return in;
}

inline std::vector<rank_t> failed_ranks(const Workload& w, const Inputs& in) {
  std::vector<rank_t> ranks;
  for (int k = 0; k < w.phi; ++k) ranks.push_back((in.fail_start + k) % kNodes);
  return ranks;
}

/// Paper §5 worst case: two iterations before the end of the interval
/// [mT, (m+1)T) that contains C/2 (C/2 itself for T = 1), kept in [1, C-1].
inline index_t worst_case_failure_iteration(index_t c, index_t interval) {
  if (interval == 1) return std::max<index_t>(1, c / 2);
  const index_t it = ((c / 2) / interval + 1) * interval - 2;
  return std::min<index_t>(std::max<index_t>(it, 1), c - 1);
}

inline esrp::ProblemSpec problem_spec(const Inputs& in) {
  esrp::ProblemSpec p;
  p.matrix_data = &in.a;
  p.matrix_name = in.name;
  p.nodes = kNodes;
  p.precond = "block-jacobi";
  p.block_size = kBlockSize;
  return p;
}

inline esrp::SolverConfig solver_config(const Workload& w,
                                        esrp::Strategy strategy) {
  esrp::SolverConfig c;
  c.solver = w.solver;
  c.rtol = kRtol;
  c.strategy = strategy;
  c.interval = w.interval;
  c.phi = w.phi;
  return c;
}

// ----------------------------------------------------------- yardstick ---

/// A plain CSR SpMV, y = A x, on a private copy of the workload's matrix,
/// written here and sharing no code with the library, so no library change
/// can move it. It runs on the machine state a solve runs on: the core
/// clock, the load on the vCPU's SMT sibling, and other tenants' pressure
/// on the shared L3 and memory bandwidth. On a shared VM that state changes
/// over minutes and moves wall times by up to 60%.
///
/// The gated times are therefore read at reference speed: the wall time
/// over the median yardstick SpMV taken right before and right after,
/// times the SpMV's time on a reference machine, fixed at 1 ns per
/// nonzero. The wall times stay in the result file.
class Yardstick {
public:
  static constexpr double kReferenceSecondsPerNnz = 1e-9;

  explicit Yardstick(const esrp::CsrMatrix& a)
      : row_ptr_(a.row_ptr().begin(), a.row_ptr().end()),
        col_idx_(a.col_idx().begin(), a.col_idx().end()),
        values_(a.values().begin(), a.values().end()),
        x_(static_cast<std::size_t>(a.cols()), 1.0),
        y_(static_cast<std::size_t>(a.rows())) {}

  /// Median [s] of at least 9 SpMVs and 5 ms of them.
  double seconds() {
    std::vector<double> t;
    const auto start = std::chrono::steady_clock::now();
    while (t.size() < 9 ||
           (std::chrono::steady_clock::now() - start <
                std::chrono::milliseconds(5) &&
            t.size() < 1000)) {
      const auto t0 = std::chrono::steady_clock::now();
      spmv();
      t.push_back(std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count());
    }
    std::sort(t.begin(), t.end());
    const double s = t[t.size() / 2];
    ns_per_nnz_.push_back(s * 1e9 / static_cast<double>(values_.size()));
    return s;
  }

  /// `wall` seconds of a step that began right after `seconds()` returned
  /// `before`, at reference speed. Measures the yardstick once more.
  double reference_seconds(double wall, double before) {
    const double yard = 0.5 * (before + seconds());
    return wall / yard * kReferenceSecondsPerNnz *
           static_cast<double>(values_.size());
  }

  /// Every measurement so far, in ns per nonzero.
  const std::vector<double>& ns_per_nnz() const { return ns_per_nnz_; }

private:
  void spmv() {
    const std::size_t n = y_.size();
    for (std::size_t i = 0; i < n; ++i) {
      double s = 0;
      for (std::int64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k)
        s += values_[static_cast<std::size_t>(k)] *
             x_[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])];
      y_[i] = s;
    }
    // Feed y back so that no call can be elided or hoisted.
    x_[0] = y_[n / 2] * 1e-300 + 1.0;
  }

  std::vector<std::int64_t> row_ptr_, col_idx_;
  std::vector<double> values_, x_, y_;
  std::vector<double> ns_per_nnz_;
};

// ---------------------------------------------------------- statistics ---

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// --------------------------------------------------------------- spans ---

/// In-memory spans, written out once when the run ends. A span names the
/// layer call it brackets ("<layer>.<call>"); `parent` is the index of the
/// enclosing span (-1 for a root) and `solve` ties every span of one solve
/// together (-1 outside solves). Children never overlap, so a span's self
/// time is its duration minus its children's.
struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;
  int solve = -1;

  double seconds() const { return (end_us - start_us) * 1e-6; }
};

class Trace {
public:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  int open(std::string name, int parent = -1, int solve = -1) {
    spans_.push_back(Span{std::move(name), now_us(), 0, parent, solve});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_us = now_us(); }
  int add(Span s) {
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }
  Span& span(int id) { return spans_[static_cast<std::size_t>(id)]; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Durations [s] of every span called `name`.
  std::vector<double> seconds(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name) out.push_back(s.seconds());
    return out;
  }

  void write_json(std::FILE* f) const {
    std::fputs("[", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": "
                   "%.3f, \"parent\": %d, \"solve\": %d}",
                   i == 0 ? "" : ",", s.name.c_str(), s.start_us, s.end_us,
                   s.parent, s.solve);
    }
    std::fputs("]", f);
  }

private:
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
};

// -------------------------------------------------------------- result ---

/// What one benchmark process reports: metric values, the samples behind
/// each timing median, the outcome of every correctness check, and its
/// spans. run.py turns this into the result file and the summary line.
struct Result {
  std::map<std::string, double> metrics;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, std::string> info;
  std::vector<std::string> failures; ///< one line per failed check
  long attempted = 0;                ///< verified solves / probes
  long failed = 0;                   ///< of those, how many failed a check

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
  /// Record the samples of a timing and its median as the metric.
  void timing(const std::string& name, const std::vector<double>& v,
              double scale = 1) {
    std::vector<double>& s = samples[name];
    for (double x : v) s.push_back(x * scale);
    metrics[name] = median(s);
  }
};

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out;
}

inline void write_result(const std::string& path, const Result& r,
                         const Trace& trace) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\"attempted\": %ld, \"failed\": %ld,\n\"failures\": [",
               r.attempted, r.failed);
  for (std::size_t i = 0; i < r.failures.size(); ++i)
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ",
                 json_escape(r.failures[i]).c_str());
  std::fputs("],\n\"info\": {", f);
  bool first = true;
  for (const auto& [k, v] : r.info) {
    std::fprintf(f, "%s\"%s\": \"%s\"", first ? "" : ", ", k.c_str(),
                 json_escape(v).c_str());
    first = false;
  }
  std::fputs("},\n\"metrics\": {", f);
  first = true;
  for (const auto& [k, v] : r.metrics) {
    std::fprintf(f, "%s\n\"%s\": %.17g", first ? "" : ",", k.c_str(), v);
    first = false;
  }
  std::fputs("},\n\"samples\": {", f);
  first = true;
  for (const auto& [k, v] : r.samples) {
    std::fprintf(f, "%s\n\"%s\": [", first ? "" : ",", k.c_str());
    for (std::size_t i = 0; i < v.size(); ++i)
      std::fprintf(f, "%s%.17g", i == 0 ? "" : ", ", v[i]);
    std::fputs("]", f);
    first = false;
  }
  std::fputs("},\n\"spans\": ", f);
  trace.write_json(f);
  std::fputs("}\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

// ---------------------------------------------------------------- args ---

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string json;            ///< result path
  index_t fail_iteration = -1; ///< probes: the runner's failure iteration
};

inline Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      a.trace = true;
      continue;
    }
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--json") a.json = value;
    else if (flag == "--fail-iteration") a.fail_iteration = std::stoll(value);
    else throw std::runtime_error("unknown flag " + flag);
  }
  if (a.workload.empty() || a.json.empty())
    throw std::runtime_error("--workload and --json are required");
  return a;
}

} // namespace bench
