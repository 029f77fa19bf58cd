// The traced run (--trace 1): per-layer numbers for the grader and for
// each module the toolchain calls.
//
//   service     fresh GraderService per repetition over the batch:
//               time blocked in submit, queue waits, cache outcomes,
//               toolchain runs, worker balance (medians over repetitions);
//               then closed-loop cache-hit round trips on a warm service,
//               and content_hash cost per submission.
//   stages      rounds over the batch's distinct submissions (what one
//               fresh service runs the toolchain on): each is graded once
//               by a plain, timed run_toolchain call and once by its
//               span-traced copy (toolchain_trace.hpp), and the two
//               verdicts must be equal. Kinds the workload never submits
//               are timed on a small seeded calibration set, so every
//               per-layer metric is measured in every run; the self-time
//               table covers workload submissions only.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>

#include "bench.hpp"
#include "toolchain_trace.hpp"

namespace gradebench {

namespace {

using cs31::grader::Submission;
using cs31::grader::SubmissionKind;
using cs31::grader::Verdict;

constexpr SubmissionKind kKinds[] = {SubmissionKind::MiniC, SubmissionKind::Assembly,
                                     SubmissionKind::LifeTrace, SubmissionKind::Script};
constexpr const char* kKindNames[] = {"mini_c", "assembly", "life_trace", "script"};
constexpr std::size_t kKindCount = 4;

std::size_t kind_index(SubmissionKind kind) {
  for (std::size_t k = 0; k < kKindCount; ++k) {
    if (kKinds[k] == kind) return k;
  }
  throw std::logic_error("unknown submission kind");
}

// --- the service phase -----------------------------------------------------

// Shares of --seconds: service repetitions, then hit round trips, then
// the stage rounds.
constexpr double kServiceShare = 0.25;
constexpr double kRoundTripShare = 0.1;
constexpr double kStagesShare = 0.6;

constexpr int kMinServiceReps = 3;
constexpr std::size_t kMinRoundTrips = 200;
constexpr int kHashReps = 20;
constexpr int kMinRounds = 2;

void measure_service(const Config& config, const cs31::grader::LoadPlan& plan,
                     const std::vector<std::string>& reference, Metrics& metrics, Check& check) {
  using cs31::grader::GraderService;
  const auto& submissions = plan.submissions;
  const double batch = static_cast<double>(submissions.size());
  const auto start = Clock::now();

  std::vector<double> blocked_us, waits, hit_ratio, collapsed, runs, imbalance;
  const auto reps_end = after(start, config.seconds * kServiceShare);
  while (blocked_us.size() < kMinServiceReps || Clock::now() < reps_end) {
    GraderService service(service_options());
    double blocked = 0.0;
    for (const auto& submission : submissions) {
      const auto begin = Clock::now();
      service.submit(submission);
      blocked += us_between(begin, Clock::now());
    }
    service.wait_idle();
    const auto stats = service.stats();
    check.compare(service.report_lines(), reference, submissions.size());
    const auto& cache = stats.cache;
    const double lookups = static_cast<double>(cache.hits + cache.misses + cache.collapsed);
    double most = 0.0, total = 0.0;
    for (const auto graded : stats.graded_per_worker) {
      most = std::max(most, static_cast<double>(graded));
      total += static_cast<double>(graded);
    }
    blocked_us.push_back(blocked / batch);
    waits.push_back(static_cast<double>(stats.publish_waits));
    hit_ratio.push_back(lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0);
    collapsed.push_back(static_cast<double>(cache.collapsed));
    runs.push_back(static_cast<double>(stats.toolchain_runs));
    imbalance.push_back(
        most / (total / static_cast<double>(stats.graded_per_worker.size())));
  }

  // Cache-hit round trips: every body is already graded on this service.
  std::vector<double> round_trips;
  {
    GraderService service(service_options());
    for (const auto& submission : submissions) service.submit(submission);
    service.wait_idle();
    const auto trips_end = after(Clock::now(), config.seconds * kRoundTripShare);
    std::size_t i = 0;
    while (round_trips.size() < kMinRoundTrips || Clock::now() < trips_end) {
      const auto begin = Clock::now();
      service.submit(submissions[i++ % submissions.size()]);
      service.wait_idle();
      round_trips.push_back(us_between(begin, Clock::now()));
    }
    check.compare(service.report_lines(), reference, submissions.size() + i);
  }

  std::vector<double> hash_us;
  volatile std::uint64_t sink = 0;  // keeps the hashing from being optimized away
  for (int rep = 0; rep < kHashReps; ++rep) {
    const auto begin = Clock::now();
    for (const auto& submission : submissions) {
      sink = sink ^ cs31::grader::content_hash(submission);
    }
    hash_us.push_back(us_between(begin, Clock::now()) / batch);
  }

  std::printf("service: %zu repetitions of %zu submissions, %zu cache-hit round trips\n",
              blocked_us.size(), submissions.size(), round_trips.size());
  metrics.add("grader.submit_block_us", median(blocked_us), "us");
  metrics.add("grader.publish_waits", median(waits), "count");
  metrics.add("grader.cache_hit_ratio", median(hit_ratio), "ratio");
  metrics.add("grader.cache_collapsed", median(collapsed), "count");
  metrics.add("grader.toolchain_runs", median(runs), "count");
  metrics.add("grader.worker_imbalance", median(imbalance), "ratio");
  metrics.add("grader.content_hash_us", median(hash_us), "us");
  metrics.add("grader.hit_roundtrip_us", median(round_trips), "us");
}

// --- the stage phase -------------------------------------------------------

/// Geometric mean of the medians of a ratio measured in both pair orders.
double order_free(const std::vector<double> (&by_order)[2]) {
  return std::sqrt(median(by_order[0]) * median(by_order[1]));
}

struct Item {
  const Submission* submission;
  std::size_t reference;  ///< index into the plan, or kCalibration
};
constexpr std::size_t kCalibration = static_cast<std::size_t>(-1);

/// Distinct workload submissions (first occurrence of each kind+body),
/// then calibration submissions for the kinds the workload lacks.
std::vector<Item> stage_items(const std::vector<Submission>& submissions,
                              const std::vector<Submission>& calibration) {
  std::vector<Item> items;
  std::set<std::pair<SubmissionKind, std::string>> seen;
  bool present[kKindCount] = {};
  for (std::size_t i = 0; i < submissions.size(); ++i) {
    const Submission& s = submissions[i];
    present[kind_index(s.kind)] = true;
    if (seen.insert({s.kind, s.body}).second) items.push_back({&s, i});
  }
  for (const Submission& s : calibration) {
    if (!present[kind_index(s.kind)]) items.push_back({&s, kCalibration});
  }
  return items;
}

void write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<Item>& items, Clock::time_point origin) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "gradebench: cannot write spans to %s\n", path.c_str());
    return;
  }
  char buf[320];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const Item& item = items[s.item];
    std::snprintf(buf, sizeof buf,
                  "{\"span\":%zu,\"parent\":%d,\"round\":%u,\"submission\":%u,"
                  "\"kind\":\"%s\",\"calibration\":%s,\"name\":\"%s\","
                  "\"begin_us\":%.3f,\"end_us\":%.3f}\n",
                  i, s.parent, s.round, s.item,
                  cs31::grader::to_string(item.submission->kind).c_str(),
                  item.reference == kCalibration ? "true" : "false",
                  stage_name(s.stage), us_between(origin, s.begin),
                  us_between(origin, s.end));
    out << buf;
  }
  std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
}

void measure_stages(const Config& config, const cs31::grader::LoadPlan& plan,
                    const std::vector<std::string>& reference, Metrics& metrics, Check& check) {
  const auto start = Clock::now();
  const auto rounds_end = after(start, config.seconds * kStagesShare);

  std::vector<Submission> calibration =
      cs31::grader::make_scenario("steady", 96, config.seed).submissions;
  for (auto& s : cs31::grader::make_scenario("script_review", 64, config.seed).submissions) {
    calibration.push_back(std::move(s));
  }
  const std::vector<Item> items = stage_items(plan.submissions, calibration);

  Tracer tracer;
  // Whichever side of a pair runs first is ~20% slower on short kinds (it
  // finds the caches cold), so ratios are kept apart by order [0] plain
  // first, [1] traced first, and combined as the geometric mean of the
  // two medians, which cancels that penalty. Per kind: plain
  // run_toolchain times (plain first only: cold, as in the service, where
  // each distinct body is graded once) and coverage, the traced copy's
  // stage spans over the plain time. Over all pairs: overhead, traced
  // over plain time.
  std::vector<double> toolchain_us[kKindCount], coverage[kKindCount][2], overhead[2];
  // Work the rate metrics divide by stage time, from the traced verdicts.
  std::uint64_t instructions = 0, life_events = 0, explore_events = 0, schedules = 0;
  std::uint64_t scripts = 0;

  const auto plain_run = [&](const Item& item, std::uint32_t round, double& us) {
    const Submission& s = *item.submission;
    const auto begin = Clock::now();
    Verdict verdict = cs31::grader::run_toolchain(s, toolchain_limits());
    us = us_between(begin, Clock::now());
    if (round == 0 && item.reference != kCalibration) {
      check.attempted += 1;
      if (report_line(s, verdict) != reference[item.reference]) check.failed += 1;
    }
    return verdict;
  };
  const auto traced_run = [&](const Item& item, double& us, double& stages_us) {
    const std::size_t root = tracer.spans.size();
    const auto begin = Clock::now();
    Verdict verdict = traced_run_toolchain(tracer, *item.submission);
    us = us_between(begin, Clock::now());
    stages_us = 0.0;
    for (std::size_t s = root + 1; s < tracer.spans.size(); ++s) {
      stages_us += us_between(tracer.spans[s].begin, tracer.spans[s].end);
    }
    switch (item.submission->kind) {
      case SubmissionKind::MiniC:
      case SubmissionKind::Assembly: instructions += verdict.instructions; break;
      case SubmissionKind::LifeTrace: life_events += verdict.events; break;
      case SubmissionKind::Script:
        ++scripts;
        schedules += static_cast<std::uint64_t>(verdict.result);
        explore_events += verdict.events;
        break;
    }
    return verdict;
  };

  // Each submission runs plain and traced back to back, the order
  // alternating, so host noise and cache warmth hit both sides alike.
  std::uint32_t rounds = 0;
  while (rounds < kMinRounds || Clock::now() < rounds_end) {
    tracer.round = rounds;
    for (std::size_t i = 0; i < items.size(); ++i) {
      tracer.item = static_cast<std::uint32_t>(i);
      Verdict plain, copy;
      double plain_us = 0.0, copy_us = 0.0, stages_us = 0.0;
      if ((rounds + i) % 2 == 0) {
        plain = plain_run(items[i], rounds, plain_us);
        copy = traced_run(items[i], copy_us, stages_us);
      } else {
        copy = traced_run(items[i], copy_us, stages_us);
        plain = plain_run(items[i], rounds, plain_us);
      }
      check.attempted += 1;
      if (copy != plain) check.failed += 1;
      const std::size_t k = kind_index(items[i].submission->kind);
      const std::size_t order = (rounds + i) % 2;
      if (order == 0) toolchain_us[k].push_back(plain_us);
      coverage[k][order].push_back(stages_us / plain_us);
      overhead[order].push_back(copy_us / plain_us);
    }
    ++rounds;
  }

  // Stage totals (all items) and self time per module (workload items).
  double stage_us[kStageCount] = {};
  std::uint64_t stage_calls[kStageCount] = {};
  double module_self_us[kModuleCount] = {};
  double workload_root_us = 0.0;
  std::size_t workload_runs = 0;
  for (const Span& span : tracer.spans) {
    const double us = us_between(span.begin, span.end);
    const auto stage = static_cast<std::size_t>(span.stage);
    stage_us[stage] += us;
    ++stage_calls[stage];
    if (items[span.item].reference == kCalibration) continue;
    if (span.parent >= 0) {
      module_self_us[module_of(span.stage)] += us;
      module_self_us[0] -= us;  // the root's self time excludes its children
    } else {
      module_self_us[0] += us;
      workload_root_us += us;
      ++workload_runs;
    }
  }
  const auto mean_us = [&](Stage stage) {
    const auto s = static_cast<std::size_t>(stage);
    return stage_us[s] / static_cast<double>(stage_calls[s]);
  };
  const auto per_us = [&](std::uint64_t work, Stage stage) {
    return static_cast<double>(work) / stage_us[static_cast<std::size_t>(stage)];
  };

  std::printf("stages: %u rounds over %zu distinct submissions (%zu workload toolchain runs "
              "traced)\n",
              rounds, items.size(), workload_runs);
  std::printf("self time by module (%s, workload submissions only):\n", config.workload->name);
  std::printf("  %-12s %12s %8s\n", "module", "self_ms", "share");
  for (std::size_t m = 0; m < kModuleCount; ++m) {
    std::printf("  %-12s %12.3f %7.1f%%\n", kModules[m], module_self_us[m] / 1e3,
                100.0 * module_self_us[m] / workload_root_us);
  }

  for (std::size_t k = 0; k < kKindCount; ++k) {
    metrics.add(std::string("grader.toolchain_us.") + kKindNames[k], median(toolchain_us[k]),
                "us");
  }
  metrics.add("ccomp.compile_pipeline_us", mean_us(Stage::CompilePipeline), "us");
  metrics.add("ccomp.compile_with_entry_us", mean_us(Stage::CompileWithEntry), "us");
  metrics.add("analyze.lint_image_us", mean_us(Stage::LintImage), "us");
  metrics.add("analyze.analyze_scripts_us", mean_us(Stage::AnalyzeScripts), "us");
  metrics.add("analyze.seed_explore_options_us", mean_us(Stage::SeedExploreOptions), "us");
  metrics.add("isa.assemble_us", mean_us(Stage::Assemble), "us");
  metrics.add("isa.load_us", mean_us(Stage::Load), "us");
  metrics.add("isa.machine_new_us", mean_us(Stage::MachineNew), "us");
  metrics.add("isa.run_limited_us", mean_us(Stage::RunLimited), "us");
  metrics.add("isa.instructions_per_us", per_us(instructions, Stage::RunLimited), "1/us");
  metrics.add("life.traced_life_check_us", mean_us(Stage::TracedLife), "us");
  metrics.add("life.events_per_us", per_us(life_events, Stage::TracedLife), "1/us");
  metrics.add("race.explore_races_us", mean_us(Stage::ExploreRaces), "us");
  metrics.add("race.schedules_per_sub",
              static_cast<double>(schedules) / static_cast<double>(scripts), "count");
  metrics.add("race.events_per_us", per_us(explore_events, Stage::ExploreRaces), "1/us");
  metrics.add("grader.notes_us", mean_us(Stage::Notes), "us");
  for (std::size_t k = 0; k < kKindCount; ++k) {
    metrics.add(std::string("traced.coverage.") + kKindNames[k], order_free(coverage[k]),
                "ratio");
  }
  metrics.add("traced.overhead", order_free(overhead), "ratio");

  if (!config.spans_path.empty()) write_spans(config.spans_path, tracer.spans, items, start);
}

}  // namespace

void run_traced(const Config& config, const cs31::grader::LoadPlan& plan,
                const std::vector<std::string>& reference, Metrics& metrics, Check& check) {
  measure_service(config, plan, reference, metrics, check);
  measure_stages(config, plan, reference, metrics, check);
}

}  // namespace gradebench
