// Extension bench — Lab 2 meets the parallelism module: the O(N^2)
// sorts students write vs merge sort vs parallel merge sort, showing
// that algorithmic improvement dwarfs parallel speedup (a "thinking in
// parallel" lesson the course sets up with Big-O vs hardware costs).
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_json.hpp"
#include "labs/sorting.hpp"

namespace {

using namespace cs31::labs;

std::vector<int> data_of(std::int64_t n) {
  std::vector<int> data(static_cast<std::size_t>(n));
  fill_random(data, 77);
  return data;
}

void BM_Bubble(benchmark::State& state) {
  const std::vector<int> base = data_of(state.range(0));
  for (auto _ : state) {
    std::vector<int> d = base;
    bubble_sort(d);
    benchmark::DoNotOptimize(d.data());
  }
}

void BM_Insertion(benchmark::State& state) {
  const std::vector<int> base = data_of(state.range(0));
  for (auto _ : state) {
    std::vector<int> d = base;
    insertion_sort(d);
    benchmark::DoNotOptimize(d.data());
  }
}

void BM_Selection(benchmark::State& state) {
  const std::vector<int> base = data_of(state.range(0));
  for (auto _ : state) {
    std::vector<int> d = base;
    selection_sort(d);
    benchmark::DoNotOptimize(d.data());
  }
}

void BM_MergeSerial(benchmark::State& state) {
  const std::vector<int> base = data_of(state.range(0));
  for (auto _ : state) {
    std::vector<int> d = base;
    parallel_merge_sort(d, 1);
    benchmark::DoNotOptimize(d.data());
  }
}

void BM_MergeParallel4(benchmark::State& state) {
  const std::vector<int> base = data_of(state.range(0));
  for (auto _ : state) {
    std::vector<int> d = base;
    parallel_merge_sort(d, 4);
    benchmark::DoNotOptimize(d.data());
  }
}

constexpr long kSmall = 2000, kLarge = 20000;

BENCHMARK(BM_Bubble)->Arg(kSmall)->Arg(kLarge)->Unit(benchmark::kMillisecond)->Iterations(2);
BENCHMARK(BM_Insertion)->Arg(kSmall)->Arg(kLarge)->Unit(benchmark::kMillisecond)->Iterations(2);
BENCHMARK(BM_Selection)->Arg(kSmall)->Arg(kLarge)->Unit(benchmark::kMillisecond)->Iterations(2);
BENCHMARK(BM_MergeSerial)->Arg(kSmall)->Arg(kLarge)->Unit(benchmark::kMillisecond)->Iterations(5);
BENCHMARK(BM_MergeParallel4)->Arg(kSmall)->Arg(kLarge)->Unit(benchmark::kMillisecond)->Iterations(5);

// The headline ratio for the JSON report: at kLarge elements, how much
// does the O(N log N) algorithm beat the O(N^2) one, and what does
// 4-way parallelism add on top? (The tables above are the full data.)
template <typename Sort>
double seconds_of(Sort sort) {
  std::vector<int> d = data_of(kLarge);
  const auto t0 = cs31::bench::Clock::now();
  sort(d);
  return cs31::bench::seconds_since(t0);
}

}  // namespace

int main(int argc, char** argv) {
  cs31::bench::JsonReport json("sort_scaling", argc, argv);
  json.workload("O(N^2) sorts vs serial vs 4-thread merge sort (lab 2 data sizes)");
  json.config("small_n", kSmall);
  json.config("large_n", kLarge);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  if (json.enabled()) {
    const double bubble_s = seconds_of([](std::vector<int>& d) { bubble_sort(d); });
    const double merge1_s =
        seconds_of([](std::vector<int>& d) { parallel_merge_sort(d, 1); });
    const double merge4_s =
        seconds_of([](std::vector<int>& d) { parallel_merge_sort(d, 4); });
    json.metric("bubble_seconds_large", bubble_s);
    json.metric("merge_serial_seconds_large", merge1_s);
    json.metric("merge_parallel4_seconds_large", merge4_s);
    json.metric("algorithmic_win", bubble_s / merge1_s);
    json.metric("parallel_win", merge1_s / merge4_s);
  }
  return 0;
}
