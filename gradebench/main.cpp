// gradebench: drives cs31::grader::GraderService with one named loadgen
// workload and prints every metric by name and unit, the last stdout
// line being one JSON result object.
//
//   gradebench --workload NAME --seed N --seconds S --trace 0|1
//              [--spans FILE] [--corrupt-reference]
//
// --trace 0 measures the end-to-end metrics (service_run.cpp); --trace 1
// the per-layer ones (traced_run.cpp). Every run byte-compares the
// service's report lines against a serial run_toolchain reference and
// exits 1 when any line is missing, a grader_error or different.
// --corrupt-reference damages one reference line so a test can prove
// that check fails.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>
#include <utility>

#include "bench.hpp"

namespace gradebench {

namespace {

// Batch sizes keep one repetition (fresh service, whole batch, wait
// idle) at tens of milliseconds, so a run holds many repetitions and
// reports their median. poison's two spin shapes are graded once per
// fresh service, so its batch stays small enough for them to be a large
// share of a repetition. duplicate_storm (loadgen makes count/32
// distinct bodies) runs but is not in BENCHMARK.json: its wall-clock
// figures are thread wake-ups on this VM and spread ~35% between runs
// (README.md).
constexpr Workload kWorkloads[] = {
    {"steady", 300},
    {"duplicate_storm", 1600},
    {"script_review", 300},
    {"poison", 320},
};

/// nullptr for an unknown name.
const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// Set-up takes a fraction of a millisecond, mostly thread creation; its
// median over this many repetitions is what gets reported.
constexpr int kSetupReps = 101;

void usage() {
  std::fprintf(stderr,
               "usage: gradebench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans FILE] [--corrupt-reference]\n  workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
}

bool parse_args(int argc, char** argv, Config& config) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      config.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = find_workload(value);
      if (config.workload == nullptr) return false;
    } else if (flag == "--seed") {
      const unsigned long seed = std::strtoul(value.c_str(), &end, 10);
      if (*end != '\0' || seed > 0x7fffffffUL) return false;
      config.seed = static_cast<std::uint32_t>(seed);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0.0) || config.seconds > 600.0) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      config.trace = value == "1";
    } else if (flag == "--spans") {
      config.spans_path = value;
    } else {
      return false;
    }
  }
  return config.workload != nullptr;
}

/// The batch: two halves from loadgen seeds 2n and 2n+1. loadgen derives
/// per-body variants as index + seed * 7919, so the seed's parity decides
/// which Life slots get 4 threads and which drop the barrier; one seed
/// alone makes even and odd seeds ~15% apart in cost. Both parities in
/// every batch keep a run's numbers about the service, not the seed.
cs31::grader::LoadPlan make_plan(const Config& config) {
  const std::size_t half = config.workload->batch / 2;
  cs31::grader::LoadPlan plan =
      cs31::grader::make_scenario(config.workload->name, half, 2 * config.seed);
  cs31::grader::LoadPlan odd =
      cs31::grader::make_scenario(config.workload->name, half, 2 * config.seed + 1);
  for (auto& s : odd.submissions) plan.submissions.push_back(std::move(s));
  return plan;
}

/// Scenario generation + service construction, the work a grading
/// deployment does before its first submission; median of kSetupReps.
double measure_setup_s(const Config& config, cs31::grader::LoadPlan& plan) {
  std::vector<double> samples;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto begin = Clock::now();
    plan = make_plan(config);
    cs31::grader::GraderService service(service_options());
    samples.push_back(us_between(begin, Clock::now()) / 1e6);
  }
  return median(std::move(samples));
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  return buf;
}

}  // namespace

cs31::grader::GraderService::Options service_options() {
  cs31::grader::GraderService::Options options;
  options.workers = 2;
  options.queue_capacity = 64;
  options.limits = toolchain_limits();
  return options;
}

std::string report_line(const cs31::grader::Submission& submission,
                        const cs31::grader::Verdict& verdict) {
  using cs31::grader::json_quote;
  std::string line = "{\"id\":" + json_quote(submission.id);
  line += ",\"kind\":" + json_quote(cs31::grader::to_string(submission.kind));
  line += ",\"hash\":" +
          json_quote(cs31::grader::hash_hex(cs31::grader::content_hash(submission)));
  line += ",";
  line += verdict.to_json().substr(1);
  return line;
}

std::vector<std::string> reference_lines(
    const std::vector<cs31::grader::Submission>& submissions) {
  std::map<std::pair<cs31::grader::SubmissionKind, std::string>, cs31::grader::Verdict> graded;
  std::vector<std::string> lines;
  lines.reserve(submissions.size());
  for (const cs31::grader::Submission& s : submissions) {
    auto [it, fresh] = graded.try_emplace({s.kind, s.body});
    if (fresh) it->second = cs31::grader::run_toolchain(s, toolchain_limits());
    lines.push_back(report_line(s, it->second));
  }
  return lines;
}

void Check::compare(const std::vector<std::string>& got, const std::vector<std::string>& want,
                    std::size_t count) {
  attempted += count;
  for (std::size_t i = 0; i < count; ++i) {
    const bool ok = i < got.size() && got[i] == want[i % want.size()] &&
                    got[i].find("\"status\":\"grader_error\"") == std::string::npos;
    if (!ok) ++failed;
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = lo + 1 < values.size() ? lo + 1 : lo;
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double process_cpu_us() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

}  // namespace gradebench

int main(int argc, char** argv) {
  using namespace gradebench;
  Config config;
  if (!parse_args(argc, argv, config)) {
    usage();
    return 2;
  }

  std::printf("meta {\"workload\":\"%s\",\"seed\":%u,\"seconds\":%g,\"trace\":%d,"
              "\"batch\":%zu,\"nproc\":%u,\"compiler\":\"%s\",\"build_type\":\"%s\"}\n",
              config.workload->name, config.seed, config.seconds, config.trace ? 1 : 0,
              config.workload->batch, std::thread::hardware_concurrency(),
              GRADEBENCH_COMPILER, GRADEBENCH_BUILD_TYPE);

  cs31::grader::LoadPlan plan;
  const double setup_s = measure_setup_s(config, plan);
  std::vector<std::string> reference = reference_lines(plan.submissions);
  if (config.corrupt_reference) reference.front() += " ";

  Metrics metrics;
  Check check;
  if (config.trace) {
    run_traced(config, plan, reference, metrics, check);
  } else {
    run_end_to_end(config, plan, reference, metrics, check);
    metrics.add("setup_s", setup_s, "s");
  }

  const bool correct = check.attempted > 0 && check.failed == 0;
  std::printf("checked %llu report lines, %llu failed (error_rate %.6f)\n",
              static_cast<unsigned long long>(check.attempted),
              static_cast<unsigned long long>(check.failed),
              check.attempted > 0
                  ? static_cast<double>(check.failed) / static_cast<double>(check.attempted)
                  : 1.0);
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(check.attempted);
  json += ", \"failed\": " + std::to_string(check.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.entries.size(); ++i) {
    const Metrics::Entry& m = metrics.entries[i];
    std::printf("%-36s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
