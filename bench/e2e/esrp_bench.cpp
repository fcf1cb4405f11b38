// esrp_bench — the gated end-to-end runner of bench/e2e (see README.md).
//
// One process runs one workload as a closed loop with one client: after an
// untimed warm-up solve it repeats a fixed sequence of requests until the
// time budget is spent, and verifies every solve. Distributed workloads
// repeat
//   clear_cache + timed prepare, reference solve (strategy none),
//   failure-free resilient solve, the same solve with one failure event;
// the sequential workload repeats
//   clear_cache + timed prepare, one solve.
//
// Only the service API is used (api/, service/, and the generators for the
// inputs). With --trace the solves additionally carry a SolverObserver whose
// hook timestamps become iteration, recovery and re-execution spans; traced
// and untraced repetitions alternate so the tracing cost is measured too.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "api/solve_spec.hpp"
#include "service/solve_service.hpp"
#include "sparse/generators.hpp"
#include "workload.hpp"

namespace {

using namespace bench;

/// Timestamps every observer hook; the spans are assembled after the solve,
/// so a hook costs one clock read and one push_back.
class HookRecorder final : public esrp::SolverObserver {
public:
  enum class Kind { iteration, failure, recovery };
  struct Event {
    Kind kind;
    index_t j;
    double t_us;
  };

  explicit HookRecorder(const Trace& trace) : trace_(&trace) {
    events.reserve(8192);
  }

  void on_iteration(index_t j, real_t /*relres*/) override {
    events.push_back({Kind::iteration, j, trace_->now_us()});
  }
  void on_failure(const esrp::FailureEvent& e) override {
    events.push_back({Kind::failure, e.iteration, trace_->now_us()});
  }
  void on_recovery(const esrp::RecoveryRecord& r) override {
    events.push_back({Kind::recovery, r.failed_at, trace_->now_us()});
  }

  std::vector<Event> events;

private:
  const Trace* trace_;
};

/// One timed solve: its wall time and its time at reference speed (see
/// Yardstick).
struct SolveTiming {
  std::string kind; ///< "ref" | "ff" | "fail"
  bool traced = false;
  double wall_s = 0;
  double seconds = 0;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/// ||b - A x|| / ||b||, computed here rather than trusted from the report.
double relative_residual(const esrp::CsrMatrix& a, const esrp::Vector& b,
                         const esrp::Vector& x) {
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto va = a.values();
  double rr = 0, bb = 0;
  for (index_t i = 0; i < a.rows(); ++i) {
    double ax = 0;
    for (index_t k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k)
      ax += va[static_cast<std::size_t>(k)] *
            x[static_cast<std::size_t>(ci[static_cast<std::size_t>(k)])];
    const double ri = b[static_cast<std::size_t>(i)] - ax;
    rr += ri * ri;
    bb += b[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
  }
  return std::sqrt(rr / bb);
}

class Runner {
public:
  Runner(const Workload& w, const Args& args)
      : w_(w), args_(args), in_(make_inputs(w, args.seed, args.smoke)),
        problem_(problem_spec(in_)) {}

  Result run() {
    const esrp::SolverConfig cfg = solver_config(w_, w_.strategy);
    esrp::RunSpec run;
    run.rhs = in_.b;
    run.threads = 1;

    // The reference solve (strategy none) gets a service of its own: the
    // plan cache keys on neither strategy nor interval, so one cache would
    // hand it the resilient handle.
    esrp::SolveService ref_service;
    std::shared_ptr<const esrp::ProblemHandle> ref_handle;
    if (w_.distributed())
      ref_handle =
          ref_service.prepare(problem_, solver_config(w_, esrp::Strategy::none))
              .handle;

    std::shared_ptr<const esrp::ProblemHandle> handle = cold_prepare(cfg, -1);

    // Untimed warm-up; on the cluster it is the reference solve, which
    // fixes C and with it the failure iteration.
    esrp::RunSpec fail_run = run;
    if (w_.distributed()) {
      const esrp::SolveReport warm = ref_service.solve(*ref_handle, run);
      c_ref_ = warm.iterations;
      verify("ref", warm);
      fail_iteration_ = worst_case_failure_iteration(c_ref_, w_.interval);
      fail_run.failures.push_back(
          esrp::FailureEvent{fail_iteration_, failed_ranks(w_, in_)});
    } else {
      verify("ff", service_.solve(*handle, run));
    }

    const double t_loop = trace_.now_us();
    double last_rep_us = 0;
    const int min_reps = args_.trace ? 2 : 1;
    int reps = 0;
    while (reps < min_reps ||
           (trace_.now_us() - t_loop) + last_rep_us <= args_.seconds * 1e6) {
      const double t_rep = trace_.now_us();
      // Traced and untraced repetitions alternate (--trace only).
      const bool traced = args_.trace && reps % 2 == 0;
      const int rep = trace_.open("bench.rep");
      handle.reset(); // hold one prepared problem at a time
      handle = cold_prepare(cfg, rep);
      if (args_.trace) {
        for (int k = 0; k < 3; ++k) {
          const int s = trace_.open("service.prepare_hit", rep);
          const bool hit = service_.prepare(problem_, cfg).cache_hit;
          trace_.close(s);
          result_.check(hit, "prepare after a cold prepare missed the cache");
        }
      }
      if (w_.distributed())
        solve("ref", ref_service, *ref_handle, run, rep, traced);
      solve("ff", service_, *handle, run, rep, traced);
      if (w_.distributed())
        solve("fail", service_, *handle, fail_run, rep, traced);
      trace_.close(rep);
      last_rep_us = trace_.now_us() - t_rep;
      // The allocator's high-water mark keeps creeping with every further
      // repetition, so the peak is taken after a fixed amount of work.
      if (reps == 0) peak_rss_mb_ = peak_rss_mb();
      ++reps;
    }
    finish(reps);
    return result_;
  }

  const Trace& trace() const { return trace_; }

private:
  std::shared_ptr<const esrp::ProblemHandle> cold_prepare(
      const esrp::SolverConfig& cfg, int parent) {
    service_.clear_cache();
    const double yard_before = yard_.seconds();
    const int s = trace_.open("service.prepare_miss", parent);
    esrp::PrepareResult p = service_.prepare(problem_, cfg);
    trace_.close(s);
    const double wall = trace_.span(s).seconds();
    setup_wall_s_.push_back(wall);
    setup_s_.push_back(yard_.reference_seconds(wall, yard_before));
    result_.check(!p.cache_hit, "prepare after clear_cache hit the cache");
    return std::move(p.handle);
  }

  void solve(const std::string& kind, const esrp::SolveService& service,
             const esrp::ProblemHandle& handle, const esrp::RunSpec& run,
             int rep, bool traced) {
    const int solve_id = static_cast<int>(solve_kinds_.size());
    solve_kinds_.push_back(kind);
    std::unique_ptr<HookRecorder> hooks;
    if (traced) hooks = std::make_unique<HookRecorder>(trace_);
    const double yard_before = yard_.seconds();
    const int span = trace_.open("service.solve_" + kind, rep, solve_id);
    const esrp::SolveReport report = service.solve(handle, run, hooks.get());
    trace_.close(span);
    const double wall = trace_.span(span).seconds();
    const double seconds = yard_.reference_seconds(wall, yard_before);
    timings_.push_back({kind, traced, wall, seconds});
    if (hooks) add_solve_spans(kind, span, solve_id, hooks->events);
    verify(kind, report);
    last_[kind] = report;
  }

  /// Which iteration bodies run a storage stage: the ESRP cadence of
  /// ResilienceEngine::storage_plan, the IMCR cadence of checkpoint_due
  /// (failure-free solves never re-run a checkpoint iteration).
  bool storage_iteration(const std::string& kind, index_t j) const {
    if (kind == "ref" || !w_.distributed()) return false;
    const index_t t = w_.interval;
    if (w_.strategy == esrp::Strategy::esrp)
      return t == 1 || (j >= t && (j % t == 0 || j % t == 1));
    return w_.strategy == esrp::Strategy::imcr && j > 0 && j % t == 0;
  }

  /// Turn the hook timestamps of one solve into spans. Iteration j runs from
  /// its on_iteration to the next one; the iteration that fails ends at
  /// on_recovery and holds the recovery span; re-execution runs from
  /// on_recovery until iteration failed_at starts again and holds the
  /// iterations it redoes. The final converging check runs no body.
  void add_solve_spans(const std::string& kind, int solve_span, int solve_id,
                       const std::vector<HookRecorder::Event>& events) {
    using Kind = HookRecorder::Kind;
    std::size_t last_iteration = 0;
    for (std::size_t k = 0; k < events.size(); ++k)
      if (events[k].kind == Kind::iteration) last_iteration = k;
    const std::string plain =
        w_.distributed() ? "core.iteration" : "solver.iteration";
    int iter = -1, reexec = -1;
    index_t reexec_until = -1;
    double t_fail = 0;
    for (std::size_t k = 0; k < events.size(); ++k) {
      const HookRecorder::Event& e = events[k];
      if (e.kind == Kind::iteration) {
        if (iter >= 0) trace_.span(iter).end_us = e.t_us;
        iter = -1;
        if (reexec >= 0 && e.j == reexec_until) {
          trace_.span(reexec).end_us = e.t_us;
          reexec = -1;
        }
        if (k == last_iteration) break;
        const std::string name = storage_iteration(kind, e.j)
                                     ? "resilience.storage_iteration"
                                     : plain;
        iter = trace_.add(Span{name, e.t_us, e.t_us,
                               reexec >= 0 ? reexec : solve_span, solve_id});
      } else if (e.kind == Kind::failure) {
        t_fail = e.t_us;
      } else {
        trace_.add(Span{"resilience.recover", t_fail, e.t_us, iter, solve_id});
        trace_.span(iter).end_us = e.t_us;
        iter = -1;
        reexec = trace_.add(
            Span{"resilience.reexec", e.t_us, e.t_us, solve_span, solve_id});
        reexec_until = e.j;
      }
    }
    // The solve's direct children must account for nearly all of it.
    double covered = 0;
    for (const Span& s : trace_.spans())
      if (s.parent == solve_span) covered += s.seconds();
    coverage_.push_back(covered / trace_.span(solve_span).seconds());
  }

  void verify(const std::string& kind, const esrp::SolveReport& r) {
    std::string problems;
    if (!r.converged) problems += " not converged;";
    const double rr = relative_residual(in_.a, in_.b, r.x);
    if (!(rr <= 10 * kRtol))
      problems += " true relres " + std::to_string(rr) + " > 10 rtol;";
    if (w_.distributed() && kind != "ref" && r.iterations != c_ref_)
      problems += " C = " + std::to_string(r.iterations) + ", reference " +
                  std::to_string(c_ref_) + ";";
    if (kind == "fail" &&
        (r.recoveries.size() != 1 || r.restarted_from_scratch()))
      problems += " expected one exact recovery;";
    // Every repetition of a solve must be bitwise identical.
    std::uint64_t h = esrp::fnv1a(r.x.data(), r.x.size() * sizeof(real_t));
    h = esrp::fnv1a(&r.modeled_time, sizeof(r.modeled_time), h);
    const auto [it, first] = hashes_.emplace(kind, h);
    if (!first && it->second != h) problems += " not bitwise reproducible;";
    result_.check(problems.empty(), kind + ":" + problems);
  }

  std::vector<double> span_seconds(const std::string& name,
                                   const std::string& kind) const {
    std::vector<double> out;
    for (const Span& s : trace_.spans())
      if (s.name == name && s.solve >= 0 &&
          solve_kinds_[static_cast<std::size_t>(s.solve)] == kind)
        out.push_back(s.seconds());
    return out;
  }

  /// One field of the timed solves of `kind`; traced: 1 only traced
  /// repetitions, 0 only untraced ones, -1 all.
  std::vector<double> timed(const std::string& kind,
                            double SolveTiming::*field, int traced = -1) const {
    std::vector<double> out;
    for (const SolveTiming& t : timings_)
      if (t.kind == kind && (traced < 0 || t.traced == (traced == 1)))
        out.push_back(t.*field);
    return out;
  }

  void finish(int reps) {
    auto& m = result_.metrics;
    result_.timing("setup_s", setup_s_);
    // The sequential workload has one solve and no failure to inject: it
    // is its own reference, and its own solve under the (empty) failure
    // schedule.
    const bool dist = w_.distributed();
    for (const auto& [name, kind] :
         {std::pair<std::string, std::string>{"ref_solve", dist ? "ref" : "ff"},
          {"solve", "ff"},
          {"fail_solve", dist ? "fail" : "ff"}}) {
      result_.timing(name + "_s", timed(kind, &SolveTiming::seconds));
      result_.timing(name + "_wall_s", timed(kind, &SolveTiming::wall_s));
    }
    result_.timing("setup_wall_s", setup_wall_s_);
    result_.timing("machine.yardstick_ns_per_nnz", yard_.ns_per_nnz());
    m["peak_rss_mb"] = peak_rss_mb_;

    result_.timing("service.prepare_miss_s",
                   trace_.seconds("service.prepare_miss"));
    const esrp::SolveReport& ff = last_["ff"];
    if (w_.distributed()) {
      const esrp::SolveReport& ref = last_["ref"];
      const esrp::SolveReport& fail = last_["fail"];
      m["ref_modeled_s"] = ref.modeled_time;
      m["ff_modeled_s"] = ff.modeled_time;
      m["fail_modeled_s"] = fail.modeled_time;
      m["resilience.ff_overhead_modeled"] =
          ff.modeled_time / ref.modeled_time - 1;
      m["resilience.fail_overhead_modeled"] =
          fail.modeled_time / ref.modeled_time - 1;
      m["resilience.ff_overhead_wall"] =
          m["solve_wall_s"] / m["ref_solve_wall_s"] - 1;
      m["resilience.wasted_iterations"] =
          static_cast<double>(fail.wasted_iterations());
      m["core.iterations"] = static_cast<double>(c_ref_);
      m["core.executed_iterations"] =
          static_cast<double>(fail.executed_iterations);
    } else {
      m["solver.iterations"] = static_cast<double>(ff.iterations);
    }

    if (args_.trace) {
      result_.timing("service.prepare_hit_us",
                     trace_.seconds("service.prepare_hit"), 1e6);
      if (w_.distributed()) {
        const std::vector<double> plain = span_seconds("core.iteration", "ref");
        m["core.iter_ms_p50"] = median(plain) * 1e3;
        m["core.iter_ms_p99"] = quantile(plain, 0.99) * 1e3;
        const std::vector<double> storage =
            span_seconds("resilience.storage_iteration", "ff");
        m["resilience.storage_iter_ms_p50"] = median(storage) * 1e3;
        m["resilience.storage_extra_ms"] =
            m["resilience.storage_iter_ms_p50"] - m["core.iter_ms_p50"];
        result_.timing("resilience.recover_ms",
                       span_seconds("resilience.recover", "fail"), 1e3);
        result_.timing("resilience.reexec_s",
                       span_seconds("resilience.reexec", "fail"));
      } else {
        const std::vector<double> iters =
            span_seconds("solver.iteration", "ff");
        m["solver.iter_ms_p50"] = median(iters) * 1e3;
        m["solver.iter_ms_p99"] = quantile(iters, 0.99) * 1e3;
      }
      m["trace.overhead_frac"] =
          median(timed("ff", &SolveTiming::seconds, 1)) /
              median(timed("ff", &SolveTiming::seconds, 0)) -
          1;
      m["trace.iter_coverage_min"] =
          *std::min_element(coverage_.begin(), coverage_.end());
      // Fixed per-solve costs dominate the tiny --smoke solves.
      if (!args_.smoke)
        result_.check(m["trace.iter_coverage_min"] >= 0.98,
                      "iteration spans cover less than 98% of a solve span");
    }

    auto& info = result_.info;
    info["workload"] = w_.name;
    info["matrix"] = in_.name;
    info["rows"] = std::to_string(in_.a.rows());
    info["nnz"] = std::to_string(in_.a.nnz());
    info["reps"] = std::to_string(reps);
    info["kernel_threads"] = "1";
    info["compiler"] = ESRP_BENCH_COMPILER;
    info["flags"] = ESRP_BENCH_FLAGS;
    if (w_.distributed()) {
      info["fail_iteration"] = std::to_string(fail_iteration_);
      info["fail_ranks"] = std::to_string(in_.fail_start) + "+" +
                           std::to_string(w_.phi);
    }
  }

  const Workload& w_;
  const Args& args_;
  Inputs in_;
  esrp::ProblemSpec problem_;
  esrp::SolveService service_;
  Trace trace_;
  Result result_;
  index_t c_ref_ = 0;
  index_t fail_iteration_ = -1;
  double peak_rss_mb_ = 0;
  std::vector<std::string> solve_kinds_; ///< solve id -> kind
  std::vector<SolveTiming> timings_;
  std::map<std::string, std::uint64_t> hashes_;
  std::map<std::string, esrp::SolveReport> last_;
  std::vector<double> coverage_;
  Yardstick yard_{in_.a};
  std::vector<double> setup_s_, setup_wall_s_;
};

} // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    Runner runner(find_workload(args.workload), args);
    const Result result = runner.run();
    write_result(args.json, result, runner.trace());
    return result.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "esrp_bench: %s\n", e.what());
    return 2;
  }
}
