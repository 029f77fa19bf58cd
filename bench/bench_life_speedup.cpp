// Experiment E3 — Lab 10's headline result: "near linear speedup up to
// 16 threads" for the parallel Game of Life.
//
// Two measurements:
//  (a) the deterministic MulticoreModel (a 512x512 grid priced in work
//      cycles with barrier/critical-section/contention costs), which
//      reproduces the paper's shape on any host; and
//  (b) real std::thread wall-clock on this machine, reported with the
//      host's core count — on a 1-core CI box this is expected to stay
//      flat (the model is the substitution documented in DESIGN.md).
#include <cstdio>
#include <thread>

#include "bench_json.hpp"
#include "life/life.hpp"
#include "parallel/speedup.hpp"

namespace {

double wall_seconds_for(const cs31::life::Grid& initial, std::size_t threads,
                        std::size_t generations) {
  cs31::life::ParallelLife sim(initial, threads);
  const auto t0 = cs31::bench::Clock::now();
  sim.run(generations);
  return cs31::bench::seconds_since(t0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cs31;
  cs31::bench::JsonReport json("life_speedup", argc, argv);
  json.workload("parallel Life speedup: 16-core model + real threads on this host");
  json.config("model_grid", "512x512");
  json.config("real_grid", "128x128");

  std::printf("==============================================================\n");
  std::printf("E3: parallel Game of Life speedup, 1..16 threads (Lab 10)\n");
  std::printf("==============================================================\n\n");

  // (a) Simulated 16-core machine, 512x512 grid, 100 generations.
  parallel::WorkloadModel model;
  model.total_work = 512ull * 512ull * 100ull;  // cell updates
  model.rounds = 100;                           // one barrier pair per generation
  model.serial_work = 512ull * 512ull / 100;    // setup + per-run serial swap cost
  model.barrier_cost = 400;                     // cycles per barrier stage
  model.critical_section = 60;                  // stats mutex per thread per round
  model.contention_factor = 0.004;              // shared-memory bandwidth pressure

  std::printf("(a) simulated 16-core machine, 512x512 grid, 100 generations\n");
  std::printf("%8s %14s %9s %11s\n", "threads", "model cycles", "speedup", "efficiency");
  const double t1 = parallel::modeled_time(model, 1);
  for (unsigned p = 1; p <= 16; ++p) {
    const double tp = parallel::modeled_time(model, p);
    std::printf("%8u %14.0f %8.2fx %10.1f%%\n", p, tp, t1 / tp, 100.0 * t1 / tp / p);
  }
  const double s16 = parallel::modeled_speedup(model, 16);
  std::printf("  -> 16-thread speedup %.2fx (paper: near-linear up to 16 threads)\n\n",
              s16);
  json.metric("modeled_speedup_16_threads", s16);

  // (b) Real threads on this host.
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("(b) real std::thread wall-clock on this host (%u hardware core%s)\n",
              cores, cores == 1 ? "" : "s");
  const life::Grid initial = life::Grid::random(128, 128, 0.35, 42);
  const double base = wall_seconds_for(initial, 1, 40);
  std::printf("%8s %12s %9s\n", "threads", "seconds", "speedup");
  for (const std::size_t p : {1u, 2u, 4u, 8u, 16u}) {
    const double t = wall_seconds_for(initial, p, 40);
    std::printf("%8zu %12.4f %8.2fx\n", p, t, base / t);
    json.metric("real_speedup_" + std::to_string(p) + "_threads", base / t);
  }
  json.config("hardware_cores", cores);
  std::printf(
      "  note: with %u hardware core%s, real speedup cannot exceed ~%u; the\n"
      "  model in (a) is the paper-shape reproduction (DESIGN.md, E3).\n",
      cores, cores == 1 ? "" : "s", cores);

  return s16 > 12.0 ? 0 : 1;  // "near linear": >= 75% efficiency at 16
}
