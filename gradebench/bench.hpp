// Shared pieces of the grading-service benchmark: the workload table,
// the service configuration every run uses, the serial correctness
// reference, and the metric list that becomes the result line.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "grader/loadgen.hpp"
#include "grader/service.hpp"
#include "grader/toolchain.hpp"

namespace gradebench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - begin).count();
}

inline Clock::time_point after(Clock::time_point from, double seconds) {
  return from + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

/// One named workload: a loadgen scenario and the batch one fresh
/// service grades per repetition.
struct Workload {
  const char* name;
  std::size_t batch;
};

struct Config {
  const Workload* workload = nullptr;
  std::uint32_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool corrupt_reference = false;  ///< self-test: the check must then fail
  std::string spans_path;          ///< traced run: where the spans go
};

/// The budget bench_grader uses: a poison spin costs exactly 200k
/// emulated instructions, well under the wall-clock backstop.
inline cs31::grader::ToolchainLimits toolchain_limits() { return {200'000, 5.0}; }

/// One submitting thread + router + two workers = four threads.
cs31::grader::GraderService::Options service_options();

/// The report line GraderService writes for `submission` graded as
/// `verdict` (envelope, then the verdict's fields).
std::string report_line(const cs31::grader::Submission& submission,
                        const cs31::grader::Verdict& verdict);

/// Serial run_toolchain over `submissions`, one expected report line
/// each. Verdicts are a pure function of (kind, body), so each distinct
/// body is graded once.
std::vector<std::string> reference_lines(
    const std::vector<cs31::grader::Submission>& submissions);

/// Pass/fail tally of the correctness checks.
struct Check {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Count `got[i]` against `want[i % want.size()]` for i < count: a
  /// missing line, a grader_error or any byte difference is a failure.
  void compare(const std::vector<std::string>& got, const std::vector<std::string>& want,
               std::size_t count);
};

double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// Process CPU time (user + sys, all threads), microseconds.
double process_cpu_us();

/// Named metrics in emission order.
struct Metrics {
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries;

  void add(std::string name, double value, std::string unit) {
    entries.push_back({std::move(name), value, std::move(unit)});
  }
};

/// trace 0: throughput, CPU, closed-loop latency and memory through
/// GraderService.
void run_end_to_end(const Config& config, const cs31::grader::LoadPlan& plan,
                    const std::vector<std::string>& reference, Metrics& metrics, Check& check);

/// trace 1: service counters plus the span-traced toolchain stages.
void run_traced(const Config& config, const cs31::grader::LoadPlan& plan,
                const std::vector<std::string>& reference, Metrics& metrics, Check& check);

}  // namespace gradebench
