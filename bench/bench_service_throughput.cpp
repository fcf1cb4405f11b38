// Service-layer throughput: solves/sec through SolveService at 1–16
// concurrent clients, over mixed matrix sizes, cold (prepare included —
// every client pays assembly + factorization) vs warm (one prepared handle
// shared through the plan cache).
//
// Hand-rolled measurement loop (no google-benchmark dependency), but the
// output rows follow the library's console format —
//   BM_<name> <real> ms <cpu> ms <iterations> solves_per_sec=<rate>
// — so tools/run_benches.sh harvests them into BENCH_<stamp>.json
// unchanged.
#include <cstdio>
#include <ctime>
#include <future>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "service/solve_service.hpp"

namespace {

using namespace esrp;

constexpr int kClientCounts[] = {1, 2, 4, 8, 16};
constexpr int kRepetitions = 3;
constexpr int kSolvesPerClient = 4;

struct Problem {
  const char* label; ///< row-name fragment (no spaces)
  const char* key;   ///< matrix registry key
};

constexpr Problem kProblems[] = {
    {"poisson2d_24x24", "poisson2d:24,24"},
    {"poisson2d_64x64", "poisson2d:64,64"},
    {"poisson3d_12x12x12", "poisson3d:12,12,12"},
};

double cpu_ms_now() {
  return 1000.0 * static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

void report(const std::string& name, double real_ms_total,
            double cpu_ms_total, int iterations, double solves_per_sec) {
  std::printf("%-64s %12.3f ms %12.3f ms %10d solves_per_sec=%.2f\n",
              name.c_str(), real_ms_total / iterations,
              cpu_ms_total / iterations, iterations, solves_per_sec);
}

SolveSpec make_spec(const Problem& problem) {
  SolveSpec spec;
  spec.matrix = problem.key;
  spec.solver = "pcg";
  spec.precond = "jacobi";
  return spec;
}

/// One timed round: `clients` sessions, kSolvesPerClient solves each,
/// against `handle` on `service`. Returns the elapsed seconds.
double timed_round(SolveService& service,
                   std::shared_ptr<const ProblemHandle> handle, int clients) {
  WallTimer timer;
  std::vector<std::future<SolveReport>> futures;
  futures.reserve(static_cast<std::size_t>(clients) * kSolvesPerClient);
  for (int c = 0; c < clients; ++c)
    for (int s = 0; s < kSolvesPerClient; ++s)
      futures.push_back(service.submit(handle, RunSpec{}));
  for (std::future<SolveReport>& f : futures)
    if (!f.get().converged) std::fprintf(stderr, "warning: non-convergence\n");
  return timer.seconds();
}

void bench_throughput(const Problem& problem, int clients, bool warm) {
  const SolveSpec spec = make_spec(problem);
  double real_s = 0;
  const double cpu0 = cpu_ms_now();

  if (warm) {
    ServiceOptions opts;
    opts.max_sessions = clients;
    SolveService service(opts);
    const PrepareResult prep = service.prepare(spec); // outside the clock
    for (int rep = 0; rep < kRepetitions; ++rep)
      real_s += timed_round(service, prep.handle, clients);
  } else {
    for (int rep = 0; rep < kRepetitions; ++rep) {
      // Cold: a fresh service per repetition, the prepare on the clock.
      ServiceOptions opts;
      opts.max_sessions = clients;
      SolveService service(opts);
      WallTimer timer;
      const PrepareResult prep = service.prepare(spec);
      std::vector<std::future<SolveReport>> futures;
      for (int c = 0; c < clients; ++c)
        for (int s = 0; s < kSolvesPerClient; ++s)
          futures.push_back(service.submit(prep.handle, RunSpec{}));
      for (std::future<SolveReport>& f : futures) (void)f.get();
      real_s += timer.seconds();
    }
  }

  const double cpu_ms = cpu_ms_now() - cpu0;
  const int total_solves = kRepetitions * clients * kSolvesPerClient;
  report("BM_ServiceThroughput/" + std::string(problem.label) + "/clients:" +
             std::to_string(clients) + (warm ? "/warm" : "/cold"),
         1000.0 * real_s, cpu_ms, kRepetitions,
         static_cast<double>(total_solves) / real_s);
}

} // namespace

int main() {
  for (const Problem& problem : kProblems) {
    for (const int clients : kClientCounts) {
      bench_throughput(problem, clients, /*warm=*/false);
      bench_throughput(problem, clients, /*warm=*/true);
    }
  }
  return 0;
}
