#include "grader/toolchain.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <utility>

#include "analyze/checks_c.hpp"
#include "analyze/checks_isa.hpp"
#include "analyze/checks_script.hpp"
#include "ccomp/codegen.hpp"
#include "ccomp/parser.hpp"
#include "common/error.hpp"
#include "isa/machine.hpp"
#include "life/traced.hpp"
#include "race/explore.hpp"

namespace cs31::grader {

namespace {

/// Deterministic rubric: full marks for a clean run, a small deduction
/// per lint finding (floored — lint never fails a working program), and
/// fixed scores for the failure buckets so reports are comparable
/// across batches.
int clean_score(std::size_t findings) {
  const int deducted = 100 - static_cast<int>(findings) * 5;
  return deducted < 60 ? 60 : deducted;
}

/// `// args: 1 2 3` (first match wins) supplies main's cdecl arguments.
std::vector<std::int32_t> parse_args_directive(std::string_view body) {
  constexpr std::string_view kDirective = "// args:";
  const std::size_t at = body.find(kDirective);
  if (at == std::string_view::npos) return {};
  const std::size_t begin = at + kDirective.size();
  std::istringstream rest(std::string(body.substr(begin, body.find('\n', begin) - begin)));
  std::vector<std::int32_t> args;
  std::int32_t v = 0;
  while (rest >> v) args.push_back(v);
  return args;
}

/// Each grading thread keeps one Machine: reset() zeroes only the pages
/// the previous program wrote, and a reset Machine equals a new one, so
/// no verdict depends on what the thread graded before.
isa::Machine& grading_machine() {
  thread_local isa::Machine machine;
  return machine;
}

/// Run an image under the budget and fill the execution half of the
/// verdict; the notes already present are the lint findings. The
/// grading machine takes the image over: nothing else reads it.
void execute(isa::Image image, const ToolchainLimits& limits, Verdict& verdict) {
  const std::size_t findings = verdict.notes.size();
  isa::Machine& machine = grading_machine();
  machine.reset();
  machine.load(std::move(image));
  try {
    const auto outcome =
        machine.run_limited({limits.max_instructions, limits.max_seconds});
    verdict.instructions = outcome.instructions;
    if (outcome.reason == isa::Machine::StopReason::Halted) {
      verdict.result = static_cast<std::int32_t>(machine.reg(isa::Reg::Eax));
      verdict.status = findings == 0 ? "ok" : "ok_with_findings";
      verdict.score = clean_score(findings);
    } else {
      verdict.status = "timeout";
      verdict.score = 5;
      verdict.notes.push_back(outcome.reason == isa::Machine::StopReason::InstructionLimit
                                  ? "instruction budget exhausted (runaway loop?)"
                                  : "wall-clock budget exhausted");
    }
  } catch (const Error& e) {
    verdict.instructions = machine.instructions_executed();
    verdict.status = "runtime_error";
    verdict.score = 10;
    verdict.notes.push_back(e.what());
  }
}

Verdict grade_mini_c(const std::string& body, const ToolchainLimits& limits) {
  Verdict verdict;
  isa::Image image;
  try {
    // One parse, one lowering: lint reads the AST that is lowered, and
    // the image that runs is that listing plus the entry stub (push
    // args, call main), encoded directly, so the diagnostics describe
    // exactly what runs. Semantic errors from lowering come first and
    // drop the lint notes; a missing main or a stub whose `_start`
    // label collides with a function's keeps them.
    const cc::ProgramAst program = cc::parse(body);
    const std::vector<analyze::Diagnostic> diagnostics = analyze::analyze_program(program);
    isa::Listing listing = cc::lower(program);
    for (const analyze::Diagnostic& d : diagnostics) verdict.notes.push_back(d.to_string());
    cc::append_entry_stub(listing, program, parse_args_directive(body));
    image = isa::assemble(listing);
    // An image too large for the grading machine is the body's fault.
    grading_machine().require_fits(image);
  } catch (const Error& e) {
    verdict.status = "compile_error";
    verdict.score = 0;
    verdict.notes.push_back(e.what());
    return verdict;
  }
  execute(std::move(image), limits, verdict);
  return verdict;
}

Verdict grade_assembly(const std::string& body, const ToolchainLimits& limits) {
  Verdict verdict;
  isa::Image image;
  try {
    image = isa::assemble(body);
    grading_machine().require_fits(image);
    for (const analyze::Diagnostic& d : analyze::lint_image(image)) {
      verdict.notes.push_back(d.to_string());
    }
  } catch (const Error& e) {
    verdict.status = "compile_error";
    verdict.score = 0;
    verdict.notes.push_back(e.what());
    return verdict;
  }
  execute(std::move(image), limits, verdict);
  return verdict;
}

/// Scenario config: `key=value` header lines (threads, rounds, barrier,
/// rule), then the lab's grid file format (life::Grid::parse).
struct LifeScenario {
  std::size_t threads = 2;
  std::size_t rounds = 1;
  bool barrier = true;
  life::EdgeRule rule = life::EdgeRule::Torus;
  life::Grid grid{1, 1};
};

LifeScenario parse_life_scenario(const std::string& body) {
  LifeScenario scenario;
  std::istringstream lines(body);
  std::string line, grid_text;
  bool in_grid = false;
  while (std::getline(lines, line)) {
    if (!in_grid) {
      if (line.empty()) continue;
      const auto eq = line.find('=');
      if (eq != std::string::npos) {
        const std::string key = line.substr(0, eq);
        const std::string value = line.substr(eq + 1);
        if (key == "threads") {
          scenario.threads = static_cast<std::size_t>(std::stoul(value));
        } else if (key == "rounds") {
          scenario.rounds = static_cast<std::size_t>(std::stoul(value));
        } else if (key == "barrier") {
          require(value == "0" || value == "1", "life scenario: barrier must be 0 or 1");
          scenario.barrier = value == "1";
        } else if (key == "rule") {
          require(value == "torus" || value == "bounded",
                  "life scenario: rule must be torus or bounded");
          scenario.rule =
              value == "torus" ? life::EdgeRule::Torus : life::EdgeRule::Bounded;
        } else {
          throw Error("life scenario: unknown key '" + key + "'");
        }
        continue;
      }
      in_grid = true;  // first non-header line starts the grid block
    }
    grid_text += line;
    grid_text += '\n';
  }
  require(!grid_text.empty(), "life scenario: missing grid");
  if (scenario.threads > kMaxLifeThreads) {
    throw Error("life scenario: " + std::to_string(scenario.threads) +
                " threads exceeds the cap of " + std::to_string(kMaxLifeThreads));
  }
  // Size the grid before Grid::parse allocates it; a header it cannot
  // read is left to Grid::parse's own message.
  std::istringstream dims(grid_text);
  std::size_t rows = 0, cols = 0;
  if (dims >> rows >> cols && rows > 0 && cols > 0) {
    if (rows > kMaxLifeCells / cols) {
      throw Error("life scenario: a " + std::to_string(rows) + "x" + std::to_string(cols) +
                  " grid exceeds the cap of " + std::to_string(kMaxLifeCells) + " cells");
    }
    if (scenario.rounds > kMaxLifeCellRounds / (rows * cols)) {
      throw Error("life scenario: " + std::to_string(scenario.rounds) + " rounds of " +
                  std::to_string(rows * cols) + " cells exceeds the cap of " +
                  std::to_string(kMaxLifeCellRounds) + " cell-rounds");
    }
  }
  scenario.grid = life::Grid::parse(grid_text);
  return scenario;
}

Verdict grade_life_trace(const std::string& body) {
  Verdict verdict;
  try {
    const LifeScenario scenario = parse_life_scenario(body);
    const life::TracedLifeResult result = life::traced_life_check(
        scenario.grid, scenario.threads, scenario.rounds, scenario.barrier, scenario.rule);
    verdict.result = static_cast<std::int32_t>(result.grid.population());
    verdict.events = result.events;
    verdict.races = result.races.size();
    if (result.race_free) {
      verdict.status = "race_free";
      verdict.score = 100;
    } else {
      verdict.status = "race_found";
      verdict.score = 30;
      // One deterministic line per race (capped — a barrier-less run
      // names every band boundary; four localize the bug).
      const std::size_t cap = verdict.races < 4 ? verdict.races : 4;
      for (std::size_t i = 0; i < cap; ++i) {
        const race::RaceReport& race = result.races[i];
        verdict.notes.push_back("race on " + race.variable + ": " + race.first.where +
                                " vs " + race.second.where);
      }
    }
  } catch (const std::exception& e) {
    // std::exception, not just cs31::Error: std::stoul in the header
    // parser throws std:: exceptions on garbage numbers, and a
    // malformed config is an `invalid` verdict either way.
    verdict.status = "invalid";
    verdict.score = 0;
    verdict.notes.push_back(e.what());
  }
  return verdict;
}

/// The pieces of `text` between `separator`s, in order; an empty piece
/// where two separators meet or one ends the text.
template <typename F>
void for_each_piece(std::string_view text, char separator, F f) {
  for (std::size_t begin = 0;;) {
    const std::size_t end = std::min(text.find(separator, begin), text.size());
    f(text.substr(begin, end - begin));
    if (end == text.size()) return;
    begin = end + 1;
  }
}

}  // namespace

race::ScriptText split_script_body(std::string_view body) {
  constexpr std::string_view kBlank = " \t";
  race::ScriptText text;
  text.ops.reserve(static_cast<std::size_t>(
      1 + std::count_if(body.begin(), body.end(), [](char c) { return c == ';' || c == '\n'; })));
  for_each_piece(body, '\n', [&](std::string_view line) {
    const std::size_t before = text.ops.size();
    for_each_piece(line, ';', [&](std::string_view op) {
      const std::size_t begin = op.find_first_not_of(kBlank);
      if (begin == std::string_view::npos) return;
      text.ops.push_back(op.substr(begin, op.find_last_not_of(kBlank) - begin + 1));
    });
    if (text.ops.size() != before) text.ends.push_back(text.ops.size());
  });
  require(!text.ends.empty(), "script submission: no threads");
  return text;
}

namespace {

/// Most static diagnostics a script verdict quotes as notes; past it,
/// one more note gives the total.
constexpr std::size_t kStaticNoteCap = 4;

Verdict grade_script(const std::string& body, const ToolchainLimits& limits) {
  Verdict verdict;
  try {
    const race::ScriptText text = split_script_body(body);
    if (text.ops.size() > kMaxScriptOps) {
      throw Error("script submission: " + std::to_string(text.ops.size()) +
                  " ops exceeds the cap of " + std::to_string(kMaxScriptOps));
    }
    race::Script script = race::parse_script(text);

    // Static first: the first diagnostics become report notes, and the
    // summary seeds the exploration (priority hints, independence
    // pruning, blocking semantics).
    const analyze::ConcurSummary summary = analyze::analyze_scripts(script);
    std::size_t findings = 0;
    for (const analyze::Diagnostic& d : summary.diagnostics) {
      if (d.severity != analyze::Severity::Note) ++findings;
      if (verdict.notes.size() < kStaticNoteCap) verdict.notes.push_back(d.to_string());
    }
    if (summary.diagnostics.size() > kStaticNoteCap) {
      verdict.notes.push_back(std::to_string(summary.diagnostics.size()) +
                              " static finding(s) in all");
    }

    race::ExploreOptions options = analyze::seed_explore_options(summary);
    options.max_schedules = 4096;
    options.max_events = limits.max_instructions;
    const race::ExploreResult explored =
        race::Explorer(std::move(script), std::move(options)).run();
    verdict.result = static_cast<std::int32_t>(explored.schedules_replayed);
    verdict.events = explored.events_replayed;
    verdict.races = explored.races.size();

    const std::size_t deadlock_cap =
        explored.deadlocks.size() < 4 ? explored.deadlocks.size() : 4;
    for (std::size_t i = 0; i < deadlock_cap; ++i) {
      verdict.notes.push_back(explored.deadlocks[i].to_string());
    }
    const std::size_t race_cap = explored.races.size() < 4 ? explored.races.size() : 4;
    for (std::size_t i = 0; i < race_cap; ++i) {
      const race::RaceReport& race = explored.races[i];
      verdict.notes.push_back("race on " + race.variable + ": " + race.first.where +
                              " vs " + race.second.where);
    }

    if (!explored.deadlocks.empty()) {
      verdict.status = "deadlock_found";
      verdict.score = 20;
    } else if (!explored.races.empty()) {
      verdict.status = "race_found";
      verdict.score = 30;
    } else if (!explored.complete) {
      // No race surfaced, but the schedule/event budget stopped the
      // sweep short of certification — the same honesty rule as a
      // runaway program.
      verdict.status = "timeout";
      verdict.score = 5;
      verdict.notes.push_back("exploration budget exhausted before full coverage");
    } else {
      verdict.status = "race_free";
      verdict.score = clean_score(findings);
    }
  } catch (const std::exception& e) {
    // Oversized bodies, malformed ops (parse_script) and
    // unlock-without-lock (the Explorer's eager validation) are all
    // submission defects.
    verdict.status = "invalid";
    verdict.score = 0;
    verdict.notes.push_back(e.what());
  }
  return verdict;
}

}  // namespace

Verdict run_toolchain(const Submission& submission, const ToolchainLimits& limits) {
  switch (submission.kind) {
    case SubmissionKind::MiniC: return grade_mini_c(submission.body, limits);
    case SubmissionKind::Assembly: return grade_assembly(submission.body, limits);
    case SubmissionKind::LifeTrace: return grade_life_trace(submission.body);
    case SubmissionKind::Script: return grade_script(submission.body, limits);
  }
  throw Error("unknown submission kind");
}

std::string Verdict::to_json() const {
  std::string out = "{\"status\":";
  json_quote(out, status);
  out += ",\"score\":" + std::to_string(score);
  out += ",\"result\":" + std::to_string(result);
  out += ",\"instructions\":" + std::to_string(instructions);
  out += ",\"events\":" + std::to_string(events);
  out += ",\"races\":" + std::to_string(races);
  out += ",\"notes\":[";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    if (i > 0) out += ',';
    json_quote(out, notes[i]);
  }
  out += "]}";
  return out;
}

}  // namespace cs31::grader
