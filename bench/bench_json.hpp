// Uniform flags, machine-readable output and timing for every bench_*.
//
// Each bench main constructs one JsonReport from its argv; the report
// swallows the harness flags so the bench's own flag parsing (if any)
// never sees them:
//
//   --json[=DIR]       enable JSON output; write BENCH_<name>.json into
//                      DIR (default: the current directory)
//   --timestamp=TEXT   opaque run timestamp recorded verbatim — passed
//                      in by the harness so reports are reproducible
//                      and the benches stay clock-free
//   --perf-smoke       the tier-1 mode (read back through perf_smoke())
//
// The schema is fixed across all benches:
//
//   {
//     "bench": "<name>",
//     "workload": "<one-line description of what was measured>",
//     "timestamp": "<harness-provided, may be empty>",
//     "config": { ... },     // knobs: sizes, thread counts, policies
//     "metrics": { ... }     // results: seconds, rates, counts
//   }
//
// config/metric calls are cheap no-ops when --json is absent, so the
// human-readable tables stay the primary interface and the JSON rides
// along. Keys keep insertion order. Non-finite doubles serialize as
// null (JSON has no NaN/inf).
//
// A wall-time gate times the sides of its ratio through `measure` and
// divides their minima: load spikes only inflate a sample, and the
// interleaved rounds expose every side to the same host weather.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace cs31::bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Rounds `measure` runs: every side gets one sample per round.
inline constexpr int kMeasureRounds = 9;
/// Wall time one sample repeats its side for, at least: it lifts the
/// sub-millisecond sides (an emulator pass, a serial Life run) clear of
/// the clock's cost and times every longer side one call per sample.
inline constexpr double kMinSampleSeconds = 0.001;

/// One side's samples from `measure`: seconds per call, sorted
/// ascending, one per round.
struct Timing {
  std::vector<double> samples;

  [[nodiscard]] double min() const { return samples.front(); }
  [[nodiscard]] double median() const { return samples[samples.size() / 2]; }
  [[nodiscard]] double max() const { return samples.back(); }
};

/// Times the sides of one ratio: kMeasureRounds rounds, each taking one
/// sample of every side, starting from side `round % sides` and going
/// round in order.
template <typename... Side>
std::array<Timing, sizeof...(Side)> measure(Side&&... sides) {
  constexpr std::size_t kSides = sizeof...(Side);
  const std::array<std::function<void()>, kSides> run{std::ref(sides)...};
  std::array<Timing, kSides> timings;
  for (std::size_t round = 0; round < kMeasureRounds; ++round) {
    for (std::size_t i = 0; i < kSides; ++i) {
      const std::size_t side = (round + i) % kSides;
      std::size_t calls = 0;
      double elapsed = 0;
      const auto start = Clock::now();
      do {
        run[side]();
        ++calls;
        elapsed = seconds_since(start);
      } while (elapsed < kMinSampleSeconds);
      timings[side].samples.push_back(elapsed / calls);
    }
  }
  for (Timing& timing : timings) std::sort(timing.samples.begin(), timing.samples.end());
  return timings;
}

class JsonReport {
 public:
  /// Parses and removes `--json[=DIR]`, `--timestamp=TEXT` and
  /// `--perf-smoke` from argv (adjusting argc), so later argv scans in
  /// the bench see only their own flags.
  JsonReport(std::string name, int& argc, char** argv) : name_(std::move(name)) {
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strcmp(arg, "--json") == 0) {
        enabled_ = true;
      } else if (std::strncmp(arg, "--json=", 7) == 0) {
        enabled_ = true;
        dir_ = arg + 7;
      } else if (std::strncmp(arg, "--timestamp=", 12) == 0) {
        timestamp_ = arg + 12;
      } else if (std::strcmp(arg, "--perf-smoke") == 0) {
        perf_smoke_ = true;
      } else {
        argv[kept++] = argv[i];
      }
    }
    argc = kept;
  }

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  /// Writes on destruction if `write()` was never called explicitly.
  ~JsonReport() {
    if (enabled_ && !written_) write();
  }

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] bool perf_smoke() const { return perf_smoke_; }

  void workload(std::string description) { workload_ = std::move(description); }

  /// A string, bool, integer or double value.
  template <typename Value>
  void config(const std::string& key, const Value& value) {
    add(config_, key, encode(value));
  }
  template <typename Value>
  void metric(const std::string& key, const Value& value) {
    add(metrics_, key, encode(value));
  }

  /// Checks one gated ratio: records N and each side's min, median and
  /// max ms per call next to it and returns `holds`. When the bound
  /// fails it prints why, then each side's sorted samples, so a red log
  /// shows whether the sides' fastest rounds fell in different regimes.
  bool gate(bool holds, const char* what, double ratio, double bound,
            std::initializer_list<std::pair<std::string, const Timing*>> sides) {
    if (!holds) {
      std::fprintf(stderr, "FAIL: %s %.3fx breaks its %gx bound\n", what, ratio, bound);
    }
    for (const auto& [key, timing] : sides) {
      metric(key + "_n", timing->samples.size());
      metric(key + "_min_ms", timing->min() * 1e3);
      metric(key + "_median_ms", timing->median() * 1e3);
      metric(key + "_max_ms", timing->max() * 1e3);
      if (holds) continue;
      std::fprintf(stderr, "  %s ms/call, sorted:", key.c_str());
      for (const double s : timing->samples) std::fprintf(stderr, " %.3f", s * 1e3);
      std::fprintf(stderr, "\n");
    }
    return holds;
  }

  /// Writes BENCH_<name>.json (no-op unless --json was given). Returns
  /// false when the file could not be opened.
  bool write() {
    written_ = true;
    if (!enabled_) return true;
    const std::string path = dir_ + "/BENCH_" + name_ + ".json";
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench_json: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(out, "{\n  \"bench\": %s,\n  \"workload\": %s,\n  \"timestamp\": %s,\n",
                 common::json_quote(name_).c_str(), common::json_quote(workload_).c_str(),
                 common::json_quote(timestamp_).c_str());
    emit(out, "config", config_);
    std::fprintf(out, ",\n");
    emit(out, "metrics", metrics_);
    std::fprintf(out, "\n}\n");
    std::fclose(out);
    std::printf("\n[json] wrote %s\n", path.c_str());
    return true;
  }

 private:
  using Fields = std::vector<std::pair<std::string, std::string>>;

  static void add(Fields& fields, const std::string& key, std::string encoded) {
    for (auto& [k, v] : fields) {
      if (k == key) {
        v = std::move(encoded);  // last write wins, order kept
        return;
      }
    }
    fields.emplace_back(key, std::move(encoded));
  }

  static std::string encode(const std::string& value) { return common::json_quote(value); }
  static std::string encode(const char* value) { return common::json_quote(value); }
  static std::string encode(bool value) { return value ? "true" : "false"; }
  static std::string encode(double value) {
    if (!std::isfinite(value)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", value);
    return buf;
  }

  template <typename Int, typename = std::enable_if_t<std::is_integral_v<Int>>>
  static std::string encode(Int value) {
    char buf[32];
    if constexpr (std::is_signed_v<Int>) {
      std::snprintf(buf, sizeof buf, "%" PRId64, static_cast<std::int64_t>(value));
    } else {
      std::snprintf(buf, sizeof buf, "%" PRIu64, static_cast<std::uint64_t>(value));
    }
    return buf;
  }

  static void emit(std::FILE* out, const char* section, const Fields& fields) {
    std::fprintf(out, "  \"%s\": {", section);
    const char* sep = "\n";
    for (const auto& [key, value] : fields) {
      std::fprintf(out, "%s    %s: %s", sep, common::json_quote(key).c_str(),
                   value.c_str());
      sep = ",\n";
    }
    std::fprintf(out, fields.empty() ? "}" : "\n  }");
  }

  std::string name_;
  std::string workload_;
  std::string timestamp_;
  std::string dir_ = ".";
  Fields config_;
  Fields metrics_;
  bool enabled_ = false;
  bool perf_smoke_ = false;
  bool written_ = false;
};

}  // namespace cs31::bench
