// Extension bench — false sharing, the concrete face of the paper's
// "resource contention can reduce observed speedup": (a) the MSI model
// counts the invalidation ping-pong of adjacent per-thread counters vs
// cache-line-padded ones; (b) real threads time both layouts.
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "memhier/coherence.hpp"

namespace {

// (b) real-thread layouts.
struct Packed {
  std::atomic<std::uint64_t> counters[4];
};
struct Padded {
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> value;
  };
  Slot counters[4];
};

template <typename Layout, typename Get>
double time_layout(Layout& layout, Get get, unsigned threads, std::uint64_t per_thread) {
  std::vector<std::thread> workers;
  const auto t0 = cs31::bench::Clock::now();
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto& counter = get(layout, t);
      for (std::uint64_t i = 0; i < per_thread; ++i) {
        counter.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return cs31::bench::seconds_since(t0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cs31::memhier;
  cs31::bench::JsonReport json("false_sharing", argc, argv);
  json.workload("adjacent vs padded per-thread counters: MSI model + real threads");
  json.config("threads", 4);
  json.config("increments_per_thread", 2'000'000);

  std::printf("==============================================================\n");
  std::printf("False sharing: adjacent vs padded per-thread counters\n");
  std::printf("==============================================================\n\n");

  std::printf("(a) MSI protocol model, 4 cores, 10k increments each\n");
  std::printf("%-22s %10s %14s %12s\n", "layout", "hit rate", "invalidations",
              "bus traffic");
  {
    MsiSystem adjacent(4, 64);
    MsiSystem padded(4, 64);
    for (int i = 0; i < 10000; ++i) {
      for (unsigned core = 0; core < 4; ++core) {
        adjacent.access(core, core * 8, true);    // all in one 64 B block
        padded.access(core, core * 64, true);     // one block per core
      }
    }
    for (const auto& [name, sys] :
         {std::pair<const char*, const MsiSystem*>{"adjacent (one block)", &adjacent},
          std::pair<const char*, const MsiSystem*>{"padded (64 B apart)", &padded}}) {
      std::printf("%-22s %9.1f%% %14llu %12llu\n", name, 100 * sys->stats().hit_rate(),
                  static_cast<unsigned long long>(sys->stats().invalidations),
                  static_cast<unsigned long long>(sys->stats().bus_reads +
                                                  sys->stats().bus_read_exclusives));
    }
    json.metric("msi_invalidations_adjacent", adjacent.stats().invalidations);
    json.metric("msi_invalidations_padded", padded.stats().invalidations);
  }

  std::printf("\n(b) real threads on this host (4 threads x 2M increments)\n");
  const unsigned cores = std::thread::hardware_concurrency();
  constexpr std::uint64_t kPer = 2'000'000;
  Packed packed{};
  Padded padded{};
  const double t_packed = time_layout(
      packed, [](Packed& p, unsigned t) -> std::atomic<std::uint64_t>& {
        return p.counters[t];
      },
      4, kPer);
  const double t_padded = time_layout(
      padded, [](Padded& p, unsigned t) -> std::atomic<std::uint64_t>& {
        return p.counters[t].value;
      },
      4, kPer);
  std::printf("%-22s %10.4f s\n", "adjacent", t_packed);
  std::printf("%-22s %10.4f s  (%.2fx)\n", "padded", t_padded, t_packed / t_padded);
  std::printf("  note: the gap needs multiple hardware cores to appear; this host\n"
              "  has %u. The MSI model in (a) shows the mechanism either way.\n",
              cores);
  json.config("hardware_cores", cores);
  json.metric("adjacent_seconds", t_packed);
  json.metric("padded_seconds", t_padded);
  json.metric("padded_speedup", t_packed / t_padded);
  return 0;
}
