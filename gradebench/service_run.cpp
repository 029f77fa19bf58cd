// The end-to-end run (--trace 0): what a course staff member running the
// grading service sees.
//
//   throughput   60% of the run: fresh service, submit the whole batch
//                from one thread (queue backpressure closes the loop),
//                wait_idle. Submissions/s and process CPU per submission.
//   latency      the other 40%: one client in a closed loop (submit one
//                submission, wait_idle) against a fresh service per pass
//                over the batch; p50 and p90 over the submissions.
//   memory       peak resident set of the whole process.
//
// The host is a shared VM whose vCPUs are descheduled in bursts of
// milliseconds. Each measurement is therefore repeated and the best kept
// (perfbook's min-of-N): the best of three repetitions for throughput
// and CPU, the least of five passes per submission for latency (a closed
// loop of three thread handoffs per submission is the most exposed).
// Medians and percentiles are taken over those.
//
// Every repetition's report lines are checked against the reference.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "bench.hpp"

namespace gradebench {

namespace {

constexpr int kBestOf = 3;
constexpr int kLatencyPasses = 5;
constexpr int kMinGroups = 3;
constexpr double kThroughputShare = 0.6;

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

}  // namespace

void run_end_to_end(const Config& config, const cs31::grader::LoadPlan& plan,
                    const std::vector<std::string>& reference, Metrics& metrics, Check& check) {
  using cs31::grader::GraderService;
  const auto& submissions = plan.submissions;
  const double batch = static_cast<double>(submissions.size());
  const auto start = Clock::now();
  const auto throughput_end = after(start, config.seconds * kThroughputShare);
  const auto latency_end = after(start, config.seconds);

  std::vector<double> rates, cpu_per_sub;
  while (rates.size() < kMinGroups || Clock::now() < throughput_end) {
    double best_rate = 0.0, best_cpu = 0.0;
    for (int rep = 0; rep < kBestOf; ++rep) {
      GraderService service(service_options());
      const double cpu_begin = process_cpu_us();
      const auto begin = Clock::now();
      for (const auto& submission : submissions) service.submit(submission);
      service.wait_idle();
      const auto end = Clock::now();
      const double cpu = (process_cpu_us() - cpu_begin) / batch;
      const double rate = batch / (us_between(begin, end) / 1e6);
      best_rate = std::max(best_rate, rate);
      best_cpu = rep == 0 ? cpu : std::min(best_cpu, cpu);
      check.compare(service.report_lines(), reference, submissions.size());
    }
    rates.push_back(best_rate);
    cpu_per_sub.push_back(best_cpu);
  }

  std::vector<double> latencies;
  std::size_t passes = 0;
  while (latencies.empty() || Clock::now() < latency_end) {
    std::vector<double> least(submissions.size(), 0.0);
    for (int pass = 0; pass < kLatencyPasses; ++pass, ++passes) {
      GraderService service(service_options());
      for (std::size_t i = 0; i < submissions.size(); ++i) {
        const auto begin = Clock::now();
        service.submit(submissions[i]);
        service.wait_idle();
        const double us = us_between(begin, Clock::now());
        least[i] = pass == 0 ? us : std::min(least[i], us);
      }
      check.compare(service.report_lines(), reference, submissions.size());
    }
    latencies.insert(latencies.end(), least.begin(), least.end());
  }

  std::printf("end-to-end: %zu x %d throughput repetitions of %zu submissions, "
              "%zu closed-loop latency passes (%zu samples)\n",
              rates.size(), kBestOf, submissions.size(), passes, latencies.size());
  metrics.add("throughput_sps", median(rates), "1/s");
  metrics.add("cpu_us_per_sub", median(cpu_per_sub), "us");
  metrics.add("latency_p50_us", quantile(latencies, 0.5), "us");
  metrics.add("latency_p90_us", quantile(latencies, 0.9), "us");
  metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace gradebench
