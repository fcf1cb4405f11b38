// esrp_bench_layers — the layer probes of bench/e2e (see README.md), run
// next to esrp_bench under --trace.
//
// Each probe replays one layer's public call on the workload's own problem
// and partition, on one kernel thread like the workloads, inside spans named
// after the call; the per-layer metrics are medians of those spans. Bytes per call are computed from
// array sizes (not measured): CSR streams 8 B per value, 8 B per int64
// column index, and the row pointers and vectors once.
//
// The netsim counts come from one direct ResilientPcg solve with the
// workload's failure on a SimCluster owned here (direct_failure_solve) —
// the only place the benchmark drives a solver below the service API. Its
// modeled time must equal the service path's (run.py checks it).
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "comm/aspmv_plan.hpp"
#include "comm/exchange.hpp"
#include "comm/spmv_plan.hpp"
#include "common/fused.hpp"
#include "common/vec.hpp"
#include "core/reconstruction.hpp"
#include "core/resilient_pcg.hpp"
#include "netsim/cluster.hpp"
#include "netsim/dist_vector.hpp"
#include "parallel/parallel.hpp"
#include "resilience/checkpoint_store.hpp"
#include "resilience/solver_state.hpp"
#include "workload.hpp"
#include "xp/experiment.hpp"

namespace {

using namespace bench;

/// Solver state captured from the direct solve at the top of iterations
/// j*-1 and j*: what the checkpoint and reconstruction probes replay.
struct Captured {
  index_t j_star = -1;
  esrp::Vector p_prev, r_prev, z_prev; ///< at j*-1
  esrp::Vector x, r, z, p;             ///< at j*
};

class Probes {
public:
  Probes(const Workload& w, const Args& args)
      : w_(w), args_(args), in_(make_inputs(w, args.seed, args.smoke)),
        n_(in_.a.rows()) {
    spec_.block_size = kBlockSize;
    spec_.precond = "block-jacobi";
  }

  Result run() {
    esrp::set_num_threads(esrp::hardware_threads());
    machine();
    esrp::set_num_threads(1); // the workloads' kernel thread count
    kernels();
    if (w_.distributed()) distributed();
    trace_.close(group_);
    result_.info["workload"] = w_.name;
    result_.info["hardware_threads"] = std::to_string(esrp::hardware_threads());
    return result_;
  }

  const Trace& trace() const { return trace_; }

private:
  /// Call `fn` once untimed, then repeatedly in spans named `name` until
  /// the probe budget is spent (at least 5 calls); returns the median [us].
  double probe_us(const std::string& name, const std::function<void()>& fn) {
    fn();
    const double budget_us = args_.smoke ? 5e3 : 1.5e5;
    const double t0 = trace_.now_us();
    std::vector<double> us;
    while (us.size() < 5 ||
           (trace_.now_us() - t0 < budget_us && us.size() < 1000)) {
      const int s = trace_.open(name, group_);
      fn();
      trace_.close(s);
      us.push_back(trace_.span(s).seconds() * 1e6);
    }
    result_.timing(name + "_us", us);
    return median(us);
  }

  /// Median [s] of `reps` spans named `name` around `fn`.
  double timed_s(const std::string& name, int reps,
                 const std::function<void()>& fn) {
    std::vector<double> s;
    for (int k = 0; k < reps; ++k) {
      const int id = trace_.open(name, group_);
      fn();
      trace_.close(id);
      s.push_back(trace_.span(id).seconds());
    }
    result_.timing(name + "_s", s);
    return median(s);
  }

  void open_group(const std::string& layer) {
    if (group_ >= 0) trace_.close(group_);
    group_ = trace_.open("probe." + layer);
  }

  /// Read bandwidth of the machine over an array four times the last-level
  /// cache, at every hardware thread: the roofline the *_gbs metrics are
  /// read against.
  void machine() {
    open_group("membw");
    const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
    const std::size_t bytes =
        args_.smoke ? (std::size_t{16} << 20)
                    : 4 * static_cast<std::size_t>(l3 > 0 ? l3 : 32L << 20);
    esrp::Vector a(bytes / sizeof(real_t), 1.0);
    double sink = 0;
    const double us = probe_us("membw.stream", [&] {
      sink += esrp::parallel_reduce(
          index_t{0}, static_cast<index_t>(a.size()), esrp::kReduceGrain * 8,
          0.0, [&](index_t lo, index_t hi) {
            // Eight independent sums keep the loop bandwidth-bound.
            double s[8] = {};
            index_t i = lo;
            for (; i + 8 <= hi; i += 8)
              for (int k = 0; k < 8; ++k)
                s[k] += a[static_cast<std::size_t>(i + k)];
            for (; i < hi; ++i) s[0] += a[static_cast<std::size_t>(i)];
            return ((s[0] + s[1]) + (s[2] + s[3])) +
                   ((s[4] + s[5]) + (s[6] + s[7]));
          });
    });
    result_.check(sink > 0, "membw: stream sum is not positive");
    result_.metrics["membw.stream_gbs"] =
        static_cast<double>(bytes) / us * 1e-3;
    result_.info["membw_array_mib"] = std::to_string(bytes >> 20);
  }

  void kernels() {
    const esrp::CsrMatrix& a = in_.a;
    const auto n = static_cast<std::size_t>(n_);
    const double nd = static_cast<double>(n_);
    const double nnz = static_cast<double>(a.nnz());
    auto& m = result_.metrics;
    esrp::Vector x(in_.b), y(n), z(n), w(in_.b);

    open_group("sparse");
    const double csr_bytes = 16 * nnz + 8 * (nd + 1) + 16 * nd;
    const double spmv = probe_us("sparse.spmv", [&] { a.spmv(x, y); });
    double dot = 0;
    probe_us("sparse.spmv_dot", [&] { dot += a.spmv_dot(x, y); });
    result_.check(dot > 0, "sparse: x.Ax is not positive for an SPD matrix");
    m["sparse.spmv_gbs"] = csr_bytes / spmv * 1e-3;

    open_group("parallel");
    const int hw = esrp::hardware_threads();
    const double t1 = probe_us("parallel.spmv_1t", [&] { a.spmv(x, y); });
    esrp::set_num_threads(hw);
    const double tn = probe_us("parallel.spmv_nt", [&] { a.spmv(x, y); });
    esrp::set_num_threads(1);
    m["parallel.spmv_speedup"] = t1 / tn;
    m["parallel.efficiency"] = t1 / tn / hw;

    open_group("precond");
    part_ = std::make_unique<esrp::BlockRowPartition>(n_, kNodes);
    const esrp::BlockRowPartition* part =
        w_.distributed() ? part_.get() : nullptr;
    const esrp::PrecondEntry& bj = esrp::precond_registry().get("block-jacobi");
    timed_s("precond.factor", 3, [&] {
      precond_ = bj.make(esrp::PrecondContext{a, part, spec_});
    });
    const double apply =
        probe_us("precond.apply", [&] { precond_->apply(x, z); });
    const double p_nnz = static_cast<double>(precond_->action_matrix()->nnz());
    m["precond.apply_gbs"] =
        (16 * p_nnz + 8 * (nd + 1) + 16 * nd) / apply * 1e-3;

    open_group("common");
    const double dot2 =
        probe_us("common.dot2", [&] { (void)esrp::vec_dot2(x, w, y, z); });
    const double axpy2 = probe_us("common.axpy2", [&] {
      esrp::fused_axpy2(y, 1e-3, x, z, -1e-3, w);
    });
    // dot2 reads four vectors; axpy2 reads four and writes two.
    m["common.blas1_gbs"] = (32 * nd + 48 * nd) / (dot2 + axpy2) * 1e-3;
  }

  void distributed() {
    const esrp::CsrMatrix& a = in_.a;
    const esrp::BlockRowPartition& part = *part_;
    auto& m = result_.metrics;

    open_group("comm");
    std::unique_ptr<esrp::SpmvPlan> plan;
    std::unique_ptr<esrp::AspmvPlan> aug;
    timed_s("comm.plan", 3, [&] {
      aug.reset();
      plan = std::make_unique<esrp::SpmvPlan>(a, part);
      aug = std::make_unique<esrp::AspmvPlan>(*plan, w_.phi);
    });
    esrp::SimCluster cluster(part, esrp::xp::calibrated_cost(a, kNodes));
    esrp::ExchangeEngine engine(a, *plan, cluster);
    esrp::DistVector p(part, in_.b), y(part);
    probe_us("comm.spmv", [&] { engine.spmv(p, y); });
    index_t tag = 0;
    probe_us("comm.aspmv", [&] { engine.aspmv(*aug, p, tag++, y); });
    m["comm.halo_bytes_per_spmv"] =
        static_cast<double>(plan->total_entries_sent() * sizeof(real_t));
    m["comm.aspmv_extra_bytes_per_call"] =
        static_cast<double>(aug->total_extra_entries() * sizeof(real_t));

    open_group("netsim");
    const Captured cap = direct_failure_solve();
    if (cap.j_star < 0) return;

    open_group("resilience");
    esrp::DistVector x(part, cap.x), r(part, cap.r), z(part, cap.z),
        pj(part, cap.p);
    real_t beta = esrp::vec_dot(cap.r, cap.z) /
                  esrp::vec_dot(cap.r_prev, cap.z_prev);
    esrp::CheckpointStore store(part, w_.phi, 4, 1);
    const esrp::SolverState state{{&x, &r, &z, &pj}, {}, {&beta}};
    probe_us("resilience.checkpoint_store",
             [&] { store.store(cap.j_star, state, cluster); });

    open_group("core");
    const std::vector<rank_t> failed = failed_ranks(w_, in_);
    const esrp::DistVector p_prev(part, cap.p_prev);
    const esrp::RedundantCopy prev =
        engine.aspmv(*aug, p_prev, cap.j_star - 1, y);
    const esrp::RedundantCopy cur = engine.aspmv(*aug, pj, cap.j_star, y);
    esrp::DistVector x_star(part, cap.x), r_star(part, cap.r);
    x_star.zero_ranks(failed);
    r_star.zero_ranks(failed);
    esrp::ReconstructionInputs rin;
    rin.a = &a;
    rin.p_action = precond_->action_matrix();
    rin.p_matrix = precond_->matrix_form();
    rin.part = &part;
    rin.failed = failed;
    rin.p_prev = &prev;
    rin.p_cur = &cur;
    rin.beta_prev = beta;
    rin.x_star = &x_star;
    rin.r_star = &r_star;
    rin.b_global = in_.b;
    rin.inner_block_size = kBlockSize;
    esrp::ReconstructionOutput out;
    const double us = probe_us(
        "core.reconstruct", [&] { out = reconstruct_state(rin, cluster); });
    m["core.reconstruct_ms"] = us * 1e-3;
    m["core.inner_iterations"] = static_cast<double>(
        out.inner_iterations_precond + out.inner_iterations_matrix);
    // The reconstructed x must match the state the solver actually had.
    double err = 0, scale = 0;
    for (std::size_t k = 0; k < out.lost.size(); ++k) {
      const real_t truth = cap.x[static_cast<std::size_t>(out.lost[k])];
      err = std::max(err, std::abs(out.x_f[k] - truth));
      scale = std::max(scale, std::abs(truth));
    }
    result_.check(out.ok && err <= 1e-6 * scale,
                  "core: reconstruct_state did not recover x (max error " +
                      std::to_string(err) + ")");
  }

  /// The workload's failure solve, called directly on a cluster owned here:
  /// the communication ledger gives the netsim counts, and the iteration
  /// hook captures the state the resilience and core probes replay.
  Captured direct_failure_solve() {
    Captured cap;
    const index_t jf = args_.fail_iteration;
    result_.check(jf >= 2, "netsim: no failure iteration was passed");
    if (jf < 2) return cap;
    esrp::SimCluster cluster(*part_, esrp::xp::calibrated_cost(in_.a, kNodes));
    esrp::ResilienceOptions opts;
    opts.strategy = w_.strategy;
    opts.interval = w_.interval;
    opts.phi = w_.phi;
    opts.rtol = kRtol;
    opts.extra_failures.push_back(
        esrp::FailureEvent{jf, failed_ranks(w_, in_)});
    esrp::ResilientPcg solver(in_.a, *precond_, cluster, opts);
    const index_t j_star = jf - 1;
    solver.set_iteration_hook([&](index_t j, const esrp::DistVector& x,
                                  const esrp::DistVector& r,
                                  const esrp::DistVector& z,
                                  const esrp::DistVector& p) {
      if (cap.j_star >= 0) return; // keep the first pass, not a re-execution
      if (j == j_star - 1) {
        cap.p_prev = p.gather_global();
        cap.r_prev = r.gather_global();
        cap.z_prev = z.gather_global();
      } else if (j == j_star) {
        cap.j_star = j;
        cap.x = x.gather_global();
        cap.r = r.gather_global();
        cap.z = z.gather_global();
        cap.p = p.gather_global();
      }
    });
    const int s = trace_.open("core.resilient_pcg_solve", group_);
    const esrp::ResilientSolveResult res = solver.solve(in_.b);
    trace_.close(s);
    result_.check(res.converged && res.recoveries.size() == 1,
                  "netsim: the direct failure solve did not converge with one "
                  "recovery");

    const esrp::CommLedger& ledger = cluster.ledger();
    auto& m = result_.metrics;
    const std::pair<const char*, esrp::CommCategory> cats[] = {
        {"spmv_halo", esrp::CommCategory::spmv_halo},
        {"aspmv_extra", esrp::CommCategory::aspmv_extra},
        {"checkpoint", esrp::CommCategory::checkpoint},
        {"recovery", esrp::CommCategory::recovery},
        {"allreduce", esrp::CommCategory::allreduce}};
    for (const auto& [name, cat] : cats)
      m[std::string("netsim.bytes.") + name] =
          static_cast<double>(ledger.totals(cat).bytes);
    m["netsim.messages"] = static_cast<double>(ledger.total_messages());
    m["netsim.modeled_per_iter_ms"] =
        res.modeled_time / static_cast<double>(res.executed_iterations) * 1e3;
    m["netsim.fail_modeled_s"] = res.modeled_time;
    return cap;
  }

  const Workload& w_;
  const Args& args_;
  Inputs in_;
  index_t n_;
  esrp::SolveSpec spec_;
  std::unique_ptr<esrp::BlockRowPartition> part_;
  std::unique_ptr<esrp::Preconditioner> precond_;
  Trace trace_;
  Result result_;
  int group_ = -1;
};

} // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    Probes probes(find_workload(args.workload), args);
    const Result result = probes.run();
    write_result(args.json, result, probes.trace());
    return result.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "esrp_bench_layers: %s\n", e.what());
    return 2;
  }
}
