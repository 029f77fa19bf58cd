// Static-analysis throughput: how fast cs31::analyze turns programs
// into findings, at both levels it owns.
//
// (a) mini-C: a synthesized program of realistic functions (loops,
//     branches, short-circuit conditions) through the full
//     analyze_program pass stack — CFG build, forward init lattice,
//     backward liveness, reachability, constant folding, return-path
//     check — reported as functions/s.
// (b) teaching ISA: lint_image over a deep maze image and over the
//     compiled image of the same mini-C program — CFG + leaders,
//     callee-save summaries, register-state and stack-depth lattices,
//     coverage — reported as instructions/s.
//
// (c) concurrency: analyze_scripts over a seeded generate_script corpus
//     — per-thread lockset interpretation, barrier epochs, the wait-
//     order graph, every check — reported as scripts/s, plus the prune
//     ratio the static facts buy the DPOR explorer on a lock-
//     disciplined corpus (unpruned vs seeded blocking exploration).
//
// (d) one script grade, stage by stage: loadgen's valid script_review
//     bodies (seeds 2 and 3) through the stages grade_script runs —
//     body split, parse_script, analyze_scripts, seed_explore_options,
//     the Explorer, and the notes and verdict — each timed and its heap
//     allocations counted (this binary replaces operator new), next to
//     the whole run_toolchain over the same bodies. Reported only.
//
// Numbers answer the practical course question: is the analyzer cheap
// enough to run on every compile (it sits on by default in the ccomp
// pipeline), on every `lint` in the debugger, and on every script
// submission before exploration? --json emits BENCH_analyze.json and
// BENCH_analyze_concur.json for the harness.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "analyze/checks_c.hpp"
#include "analyze/checks_isa.hpp"
#include "analyze/checks_script.hpp"
#include "bench_json.hpp"
#include "ccomp/codegen.hpp"
#include "ccomp/parser.hpp"
#include "isa/assembler.hpp"
#include "grader/loadgen.hpp"
#include "grader/toolchain.hpp"
#include "isa/maze.hpp"
#include "race/explore.hpp"

// Section (d) counts heap allocations: every operator new of this
// binary goes through these.
namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace cs31;
using bench::Clock;
using bench::seconds_since;

/// A program of `count` distinct functions with the statement mix the
/// checks actually work on: nested control flow, short-circuit
/// conditions, a call, and enough locals to make the lattices earn
/// their keep. Every function is clean — we measure analysis, not
/// rendering.
std::string synthesize_mini_c(int count) {
  std::string src = "int leaf(int a, int b) { return a * 3 + b; }\n";
  for (int k = 0; k < count; ++k) {
    const std::string name = "worker_" + std::to_string(k);
    src +=
        "int " + name + "(int a, int b) {\n"
        "  int s = 0;\n"
        "  int i = 0;\n"
        "  while (i < a) {\n"
        "    if ((i & 1) && b > 0 || i > 100) { s = s + leaf(i, b); }\n"
        "    else { s = s - b; }\n"
        "    i = i + 1;\n"
        "  }\n"
        "  if (s < 0) { s = 0 - s; }\n"
        "  return s;\n"
        "}\n";
  }
  src += "int main(int a, int b) { return worker_0(a, b); }\n";
  return src;
}

/// The stages of one script grade, in grade_script's order.
enum Stage : std::size_t { kSplit, kParse, kAnalyze, kSeed, kExplore, kNotes, kStages };
constexpr std::array<const char*, kStages> kStageNames = {
    "split", "parse_script", "analyze_scripts", "seed_explore_options", "explorer",
    "notes_verdict"};

/// Seconds and allocations per stage over one pass of the bodies.
struct StageTotals {
  std::array<double, kStages> seconds{};
  std::array<std::uint64_t, kStages> allocations{};
};

/// grade_script's note and verdict tail (src/grader/toolchain.cpp),
/// repeated here so the bench can time it on its own.
grader::Verdict script_verdict(const analyze::ConcurSummary& summary,
                               const race::ExploreResult& explored) {
  grader::Verdict verdict;
  std::size_t findings = 0;
  for (const analyze::Diagnostic& d : summary.diagnostics) {
    if (d.severity != analyze::Severity::Note) ++findings;
    if (verdict.notes.size() < 4) verdict.notes.push_back(d.to_string());
  }
  if (summary.diagnostics.size() > 4) {
    verdict.notes.push_back(std::to_string(summary.diagnostics.size()) +
                            " static finding(s) in all");
  }
  verdict.result = static_cast<std::int32_t>(explored.schedules_replayed);
  verdict.events = explored.events_replayed;
  verdict.races = explored.races.size();
  for (std::size_t i = 0; i < std::min<std::size_t>(explored.deadlocks.size(), 4); ++i) {
    verdict.notes.push_back(explored.deadlocks[i].to_string());
  }
  for (std::size_t i = 0; i < std::min<std::size_t>(explored.races.size(), 4); ++i) {
    const race::RaceReport& race = explored.races[i];
    verdict.notes.push_back("race on " + race.variable + ": " + race.first.where + " vs " +
                            race.second.where);
  }
  verdict.status = !explored.deadlocks.empty() ? "deadlock_found"
                   : !explored.races.empty()   ? "race_found"
                   : !explored.complete        ? "timeout"
                                               : "race_free";
  verdict.score = static_cast<int>(findings);
  return verdict;
}

/// One pass of grade_script's stages over `bodies`.
StageTotals grade_by_stage(const std::vector<std::string>& bodies,
                           std::uint64_t& checksum) {
  StageTotals totals;
  const grader::ToolchainLimits limits;
  for (const std::string& body : bodies) {
    auto at = Clock::now();
    std::uint64_t allocs = g_allocations.load(std::memory_order_relaxed);
    const auto mark = [&](Stage stage) {
      const auto now = Clock::now();
      const std::uint64_t count = g_allocations.load(std::memory_order_relaxed);
      totals.seconds[stage] += std::chrono::duration<double>(now - at).count();
      totals.allocations[stage] += count - allocs;
      at = now;
      allocs = count;
    };
    const race::ScriptText text = grader::split_script_body(body);
    mark(kSplit);
    race::Script script = race::parse_script(text);
    mark(kParse);
    const analyze::ConcurSummary summary = analyze::analyze_scripts(script);
    mark(kAnalyze);
    race::ExploreOptions options = analyze::seed_explore_options(summary);
    options.max_schedules = 4096;
    options.max_events = limits.max_instructions;
    mark(kSeed);
    const race::ExploreResult explored =
        race::Explorer(std::move(script), std::move(options)).run();
    mark(kExplore);
    checksum += script_verdict(summary, explored).notes.size();
    mark(kNotes);
  }
  return totals;
}

}  // namespace

int main(int argc, char** argv) {
  // JsonReport strips --json/--timestamp from argv; keep a copy so the
  // second report (the concur section) sees the same flags.
  std::vector<char*> argv_concur(argv, argv + argc);
  int argc_concur = argc;
  cs31::bench::JsonReport json("analyze", argc, argv);
  json.workload("cs31::analyze throughput: mini-C functions/s and ISA instructions/s");

  const int kFunctions = 60;
  const int kCReps = 50;
  const int kIsaReps = 50;
  const unsigned kMazeFloors = 16;
  json.config("functions", kFunctions);
  json.config("c_reps", kCReps);
  json.config("isa_reps", kIsaReps);
  json.config("maze_floors", kMazeFloors);

  std::printf("=========================================================\n");
  std::printf("cs31::analyze throughput (on-by-default budget check)\n");
  std::printf("=========================================================\n\n");

  // (a) mini-C pass stack.
  const std::string source = synthesize_mini_c(kFunctions);
  const cc::ProgramAst program = cc::parse(source);
  std::size_t findings = 0;
  const auto c_start = Clock::now();
  for (int r = 0; r < kCReps; ++r) {
    findings += analyze::analyze_program(program).size();
  }
  const double c_secs = seconds_since(c_start);
  const double fn_total = static_cast<double>(program.functions.size()) * kCReps;
  const double fns_per_sec = fn_total / c_secs;
  std::printf("mini-C   : %4zu functions x %d reps  %8.3f s  %12.0f functions/s\n",
              program.functions.size(), kCReps, c_secs, fns_per_sec);
  if (findings != 0) {
    std::fprintf(stderr, "FAIL: the synthesized corpus should analyze clean\n");
    return 1;
  }
  json.metric("c_seconds", c_secs);
  json.metric("c_functions_per_sec", fns_per_sec);

  // (b) ISA lint, over a maze and over the compiled corpus.
  const isa::Maze maze(kMazeFloors);
  const isa::Image compiled = cc::compile(source);
  const std::size_t instr_total = maze.image().instruction_count() + compiled.instruction_count();
  std::size_t isa_findings = 0;
  const auto isa_start = Clock::now();
  for (int r = 0; r < kIsaReps; ++r) {
    isa_findings += analyze::lint_image(maze.image()).size();
    isa_findings += analyze::lint_image(compiled).size();
  }
  const double isa_secs = seconds_since(isa_start);
  const double instrs_per_sec = static_cast<double>(instr_total) * kIsaReps / isa_secs;
  std::printf("ISA lint : %4zu instrs    x %d reps  %8.3f s  %12.0f instructions/s\n",
              instr_total, kIsaReps, isa_secs, instrs_per_sec);
  if (isa_findings != 0) {
    std::fprintf(stderr, "FAIL: the maze and the compiled corpus should lint clean\n");
    return 1;
  }
  json.metric("isa_instructions", instr_total);
  json.metric("isa_seconds", isa_secs);
  json.metric("isa_instructions_per_sec", instrs_per_sec);

  if (!json.write()) return 1;

  // (c) concurrency checks + the pruning they buy.
  cs31::bench::JsonReport concur_json("analyze_concur", argc_concur, argv_concur.data());
  concur_json.workload(
      "analyze_scripts throughput (scripts/s) and DPOR prune ratio on a "
      "lock-disciplined corpus");

  std::printf("\n---------------------------------------------------------\n");
  std::printf("concurrency: static script analysis + exploration pruning\n");
  std::printf("---------------------------------------------------------\n\n");

  // Throughput over a mixed corpus: the same shapes the differential
  // tier uses (plain, barriers, lock cycles, channel misuse), repeated
  // until the clock can see it.
  const int kScriptSeeds = 200;
  const int kScriptReps = 10;
  concur_json.config("script_seeds", kScriptSeeds);
  concur_json.config("script_reps", kScriptReps);
  std::vector<std::vector<std::vector<std::string>>> corpus;
  corpus.reserve(kScriptSeeds);
  for (int s = 0; s < kScriptSeeds; ++s) {
    race::ScriptGenConfig config;
    config.threads = 2 + s % 2;
    config.ops_per_thread = 4;
    config.barriers = s % 4 == 1;
    config.lock_cycles = s % 4 == 2;
    config.channel_misuse = s % 4 == 3;
    if (config.lock_cycles) config.locks = 2;
    corpus.push_back(race::generate_script(static_cast<std::uint64_t>(s), config));
  }
  std::size_t concur_findings = 0;
  const auto concur_start = Clock::now();
  for (int r = 0; r < kScriptReps; ++r) {
    for (const auto& scripts : corpus) {
      concur_findings += analyze::analyze_scripts(scripts).diagnostics.size();
    }
  }
  const double concur_secs = seconds_since(concur_start);
  const double scripts_per_sec =
      static_cast<double>(kScriptSeeds) * kScriptReps / concur_secs;
  std::printf("scripts  : %4d scripts   x %d reps  %8.3f s  %12.0f scripts/s\n",
              kScriptSeeds, kScriptReps, concur_secs, scripts_per_sec);
  if (concur_findings == 0) {
    std::fprintf(stderr, "FAIL: the mixed script corpus should produce findings\n");
    return 1;
  }
  concur_json.metric("concur_seconds", concur_secs);
  concur_json.metric("scripts_per_sec", scripts_per_sec);

  // Prune ratio: blocking exploration with and without the summary's
  // independence facts, over the corpus the analyzer can prove
  // disciplined (one consistent guard per shared variable).
  const int kPruneSeeds = 100;
  concur_json.config("prune_seeds", kPruneSeeds);
  std::uint64_t unpruned_schedules = 0, pruned_schedules = 0;
  for (int s = 0; s < kPruneSeeds; ++s) {
    race::ScriptGenConfig config;
    config.threads = 2;
    config.ops_per_thread = 4;
    config.locks = 2;
    config.channels = 0;
    config.lock_discipline = true;
    const auto scripts = race::generate_script(static_cast<std::uint64_t>(s), config);
    race::ExploreOptions plain;
    plain.model_blocking = true;
    unpruned_schedules += race::explore_races(scripts, plain).schedules_replayed;
    const auto seeded = analyze::seed_explore_options(analyze::analyze_scripts(scripts));
    pruned_schedules += race::explore_races(scripts, seeded).schedules_replayed;
  }
  const double prune_ratio =
      static_cast<double>(unpruned_schedules) / static_cast<double>(pruned_schedules);
  std::printf("pruning  : %6llu schedules -> %llu with static facts  (%.2fx)\n",
              static_cast<unsigned long long>(unpruned_schedules),
              static_cast<unsigned long long>(pruned_schedules), prune_ratio);
  if (prune_ratio < 2.0) {
    std::fprintf(stderr, "FAIL: disciplined-corpus prune ratio below the 2x floor\n");
    return 1;
  }
  concur_json.metric("unpruned_schedules", unpruned_schedules);
  concur_json.metric("pruned_schedules", pruned_schedules);
  concur_json.metric("prune_ratio", prune_ratio);

  // (d) one script grade, stage by stage.
  std::printf("\n---------------------------------------------------------\n");
  std::printf("script grade: stages of grade_script vs the whole run_toolchain\n");
  std::printf("---------------------------------------------------------\n\n");
  std::vector<std::string> bodies;
  for (const std::uint32_t seed : {2u, 3u}) {
    grader::LoadPlan plan = grader::make_scenario("script_review", 150, seed);
    for (grader::Submission& s : plan.submissions) {
      if (s.body != grader::poison_bad_script()) bodies.push_back(std::move(s.body));
    }
  }
  const int kGradeRounds = 7;
  const int kGradeReps = 10;
  concur_json.config("grade_bodies", bodies.size());
  concur_json.config("grade_rounds", kGradeRounds);
  concur_json.config("grade_reps", kGradeReps);
  std::vector<StageTotals> staged;
  std::vector<double> whole_seconds;
  std::uint64_t whole_allocations = 0, checksum = 0;
  for (int round = 0; round < kGradeRounds; ++round) {
    StageTotals sum;
    for (int rep = 0; rep < kGradeReps; ++rep) {
      const StageTotals pass = grade_by_stage(bodies, checksum);
      for (std::size_t s = 0; s < kStages; ++s) {
        sum.seconds[s] += pass.seconds[s];
        sum.allocations[s] += pass.allocations[s];
      }
    }
    staged.push_back(sum);
    const std::uint64_t allocs = g_allocations.load(std::memory_order_relaxed);
    const auto start = Clock::now();
    for (int rep = 0; rep < kGradeReps; ++rep) {
      for (const std::string& body : bodies) {
        checksum += grader::run_toolchain({"s", grader::SubmissionKind::Script, body})
                        .notes.size();
      }
    }
    whole_seconds.push_back(seconds_since(start));
    whole_allocations = g_allocations.load(std::memory_order_relaxed) - allocs;
  }
  // Per stage, the median round; grades per round = bodies x reps.
  const double grades = static_cast<double>(bodies.size()) * kGradeReps;
  const auto median_us = [grades](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2] / grades * 1e6;
  };
  double stage_sum_us = 0;
  for (std::size_t s = 0; s < kStages; ++s) {
    std::vector<double> seconds;
    for (const StageTotals& round : staged) seconds.push_back(round.seconds[s]);
    const double us = median_us(seconds);
    const double allocs = static_cast<double>(staged.back().allocations[s]) / grades;
    stage_sum_us += us;
    std::printf("%-21s: %7.3f us/grade  %7.1f allocations/grade\n", kStageNames[s], us,
                allocs);
    concur_json.metric(std::string("grade_") + kStageNames[s] + "_us", us);
    concur_json.metric(std::string("grade_") + kStageNames[s] + "_allocations", allocs);
  }
  std::uint64_t stage_allocations = 0;
  for (const std::uint64_t a : staged.back().allocations) stage_allocations += a;
  const double whole_us = median_us(whole_seconds);
  std::printf("%-21s: %7.3f us/grade  %7.1f allocations/grade\n", "stage sum", stage_sum_us,
              static_cast<double>(stage_allocations) / grades);
  std::printf("%-21s: %7.3f us/grade  %7.1f allocations/grade  (stage sum / whole %.2f)\n",
              "run_toolchain", whole_us, static_cast<double>(whole_allocations) / grades,
              stage_sum_us / whole_us);
  concur_json.metric("grade_stage_sum_us", stage_sum_us);
  concur_json.metric("grade_stage_sum_allocations",
                     static_cast<double>(stage_allocations) / grades);
  concur_json.metric("grade_run_toolchain_us", whole_us);
  concur_json.metric("grade_run_toolchain_allocations",
                     static_cast<double>(whole_allocations) / grades);
  concur_json.metric("grade_checksum", checksum);

  std::printf("\nall levels clean; analysis cost is per-compile noise, not a tax\n");
  return concur_json.write() ? 0 : 1;
}
