// Experiment E9 — the producer/consumer (bounded buffer) problem that
// closes the CS 31 parallelism module: throughput and blocking behaviour
// across buffer sizes and producer/consumer mixes, with real threads.
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "parallel/sync.hpp"

namespace {

struct RunResult {
  double seconds = 0;
  std::uint64_t producer_blocks = 0;
  std::uint64_t consumer_blocks = 0;
};

RunResult run(std::size_t capacity, int producers, int consumers, int items_per_producer) {
  cs31::parallel::BoundedBuffer buffer(capacity);
  const int total = producers * items_per_producer;
  const int per_consumer = total / consumers;
  std::vector<std::thread> threads;
  const auto t0 = cs31::bench::Clock::now();
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&buffer, items_per_producer] {
      for (int i = 0; i < items_per_producer; ++i) buffer.put(i);
    });
  }
  for (int c = 0; c < consumers; ++c) {
    const int quota = per_consumer + (c == 0 ? total % consumers : 0);
    threads.emplace_back([&buffer, quota] {
      for (int i = 0; i < quota; ++i) (void)buffer.get();
    });
  }
  for (std::thread& t : threads) t.join();
  RunResult r;
  r.seconds = cs31::bench::seconds_since(t0);
  r.producer_blocks = buffer.producer_blocks();
  r.consumer_blocks = buffer.consumer_blocks();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  cs31::bench::JsonReport json("prodcons", argc, argv);
  json.workload("bounded-buffer throughput vs capacity and producer/consumer mix");
  std::printf("==============================================================\n");
  std::printf("E9: producer/consumer bounded buffer (real threads)\n");
  std::printf("==============================================================\n\n");
  constexpr int kItems = 20000;
  json.config("items", kItems);

  std::printf("(a) throughput vs buffer capacity (1 producer, 1 consumer)\n");
  std::printf("%10s %12s %14s %12s %12s\n", "capacity", "seconds", "items/sec",
              "prod blocks", "cons blocks");
  for (const std::size_t cap : {1u, 2u, 8u, 64u, 1024u}) {
    const RunResult r = run(cap, 1, 1, kItems);
    std::printf("%10zu %12.4f %14.0f %12llu %12llu\n", cap, r.seconds,
                kItems / r.seconds, static_cast<unsigned long long>(r.producer_blocks),
                static_cast<unsigned long long>(r.consumer_blocks));
    json.metric("items_per_sec_cap_" + std::to_string(cap), kItems / r.seconds);
  }
  std::printf("  shape: tiny buffers force constant blocking; capacity amortizes it.\n\n");

  std::printf("(b) producer/consumer mixes (capacity 16, %d total items)\n", kItems);
  std::printf("%6s %6s %12s %14s\n", "prod", "cons", "seconds", "items/sec");
  for (const auto& [p, c] : {std::pair{1, 1}, std::pair{2, 2}, std::pair{4, 1},
                            std::pair{1, 4}, std::pair{4, 4}}) {
    const RunResult r = run(16, p, c, kItems / p);
    const int total = (kItems / p) * p;
    std::printf("%6d %6d %12.4f %14.0f\n", p, c, r.seconds, total / r.seconds);
  }
  std::printf("\n(the paper's module ends here: students identify put/get critical\n"
              " sections; the blocking counts above are those waits, made visible)\n");
  return 0;
}
