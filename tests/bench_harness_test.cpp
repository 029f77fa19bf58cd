// The bench timing harness (bench/bench_json.hpp): the properties every
// perf gate relies on that do not depend on how fast anything ran.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../bench/bench_json.hpp"

namespace {

using cs31::bench::kMeasureRounds;
using cs31::bench::kMinSampleSeconds;
using cs31::bench::measure;

/// A side that records its index and outlasts the minimum sample time,
/// so every sample is exactly one call and the log is the sample order.
auto logging_side(std::vector<int>& log, int index) {
  return [&log, index] {
    log.push_back(index);
    std::this_thread::sleep_for(std::chrono::duration<double>(2 * kMinSampleSeconds));
  };
}

TEST(Measure, EverySideGetsOneSamplePerRound) {
  std::vector<int> log;
  const auto two = measure(logging_side(log, 0), logging_side(log, 1));
  for (const auto& side : two) EXPECT_EQ(side.samples.size(), std::size_t{kMeasureRounds});
  EXPECT_EQ(std::count(log.begin(), log.end(), 0), kMeasureRounds);
  EXPECT_EQ(std::count(log.begin(), log.end(), 1), kMeasureRounds);

  log.clear();
  const auto three =
      measure(logging_side(log, 0), logging_side(log, 1), logging_side(log, 2));
  for (const auto& side : three) {
    EXPECT_EQ(side.samples.size(), std::size_t{kMeasureRounds});
  }
  EXPECT_EQ(log.size(), static_cast<std::size_t>(3 * kMeasureRounds));
}

TEST(Measure, FirstSideRotatesFromRoundToRound) {
  std::vector<int> log;
  (void)measure(logging_side(log, 0), logging_side(log, 1));
  ASSERT_EQ(log.size(), static_cast<std::size_t>(2 * kMeasureRounds));
  for (int round = 0; round < kMeasureRounds; ++round) {
    EXPECT_EQ(log[2 * round], round % 2) << "round " << round;
    EXPECT_EQ(log[2 * round + 1], (round + 1) % 2) << "round " << round;
  }

  log.clear();
  (void)measure(logging_side(log, 0), logging_side(log, 1), logging_side(log, 2));
  ASSERT_EQ(log.size(), static_cast<std::size_t>(3 * kMeasureRounds));
  for (int round = 0; round < kMeasureRounds; ++round) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(log[3 * round + i], (round + i) % 3) << "round " << round;
    }
  }
}

TEST(Measure, MinimumIsTheSmallestRecordedSample) {
  std::vector<int> log;
  const auto sides = measure(logging_side(log, 0), [] {});
  for (const auto& side : sides) {
    ASSERT_FALSE(side.samples.empty());
    EXPECT_EQ(side.min(), *std::min_element(side.samples.begin(), side.samples.end()));
    EXPECT_EQ(side.max(), *std::max_element(side.samples.begin(), side.samples.end()));
    EXPECT_TRUE(std::is_sorted(side.samples.begin(), side.samples.end()));
    EXPECT_LE(side.min(), side.median());
    EXPECT_LE(side.median(), side.max());
  }
}

TEST(JsonReport, FailedGatePrintsEachSidesSortedSamples) {
  int argc = 1;
  std::string name = "bench";
  char* argv[] = {name.data()};
  cs31::bench::JsonReport json("harness_test", argc, argv);
  const cs31::bench::Timing fast{{0.001, 0.003}}, slow{{0.002, 0.004}};
  testing::internal::CaptureStderr();
  EXPECT_FALSE(json.gate(false, "overhead", 2.0, 1.25, {{"fast", &fast}, {"slow", &slow}}));
  const std::string log = testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("FAIL: overhead 2.000x breaks its 1.25x bound"), std::string::npos)
      << log;
  EXPECT_NE(log.find("fast ms/call, sorted: 1.000 3.000"), std::string::npos) << log;
  EXPECT_NE(log.find("slow ms/call, sorted: 2.000 4.000"), std::string::npos) << log;
}

TEST(JsonReport, GatedRowCarriesNAndSpread) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "cs31_bench_harness_test";
  std::filesystem::create_directories(dir);
  const std::string json_flag = "--json=" + dir.string();
  std::string args[] = {"bench", json_flag, "--perf-smoke", "--own-flag"};
  char* argv[] = {args[0].data(), args[1].data(), args[2].data(), args[3].data()};
  int argc = 4;
  {
    cs31::bench::JsonReport json("harness_test", argc, argv);
    EXPECT_TRUE(json.perf_smoke());
    ASSERT_EQ(argc, 2);
    EXPECT_STREQ(argv[1], "--own-flag");
    const cs31::bench::Timing row{{0.001, 0.002, 0.004}};
    EXPECT_TRUE(json.gate(true, "row", 2.0, 5.0, {{"row", &row}}));
  }
  std::ifstream in(dir / "BENCH_harness_test.json");
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("\"row_n\": 3"), std::string::npos) << text.str();
  EXPECT_NE(text.str().find("\"row_min_ms\": 1"), std::string::npos) << text.str();
  EXPECT_NE(text.str().find("\"row_median_ms\": 2"), std::string::npos) << text.str();
  EXPECT_NE(text.str().find("\"row_max_ms\": 4"), std::string::npos) << text.str();
  std::filesystem::remove_all(dir);
}

}  // namespace
