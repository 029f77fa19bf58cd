#include "toolchain_trace.hpp"

#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "analyze/checks_isa.hpp"
#include "analyze/checks_script.hpp"
#include "ccomp/codegen.hpp"
#include "ccomp/driver.hpp"
#include "common/error.hpp"
#include "isa/machine.hpp"
#include "life/traced.hpp"
#include "race/explore.hpp"

namespace gradebench {

namespace {

using cs31::grader::Verdict;

constexpr const char* kStageNames[kStageCount] = {
    "grader.run_toolchain",
    "grader.parse_args",
    "ccomp.compile_pipeline",
    "ccomp.compile_with_entry",
    "isa.assemble",
    "analyze.lint_image",
    "isa.machine_new",
    "isa.load",
    "isa.run_limited",
    "isa.machine_free",
    "grader.parse_scenario",
    "life.traced_life_check",
    "grader.parse_script",
    "analyze.analyze_scripts",
    "analyze.seed_explore_options",
    "race.explore_races",
    "grader.notes",
};

/// Closes its span on scope exit, also when the timed call throws.
class Scoped {
 public:
  Scoped(Tracer& tracer, Stage stage) : tracer_(tracer), index_(tracer.open(stage)) {}
  ~Scoped() { tracer_.close(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
  std::size_t index_;
};

// The rubric and the three small parsers are private to
// src/grader/toolchain.cpp; these are copies, so their cost is charged to
// the grader module as it is in the real call.

int clean_score(std::size_t findings) {
  const int deducted = 100 - static_cast<int>(findings) * 5;
  return deducted < 60 ? 60 : deducted;
}

std::vector<std::int32_t> parse_args_directive(const std::string& body) {
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    const auto at = line.find("// args:");
    if (at == std::string::npos) continue;
    std::istringstream rest(line.substr(at + 8));
    std::vector<std::int32_t> args;
    std::int32_t v = 0;
    while (rest >> v) args.push_back(v);
    return args;
  }
  return {};
}

struct LifeScenario {
  std::size_t threads = 2;
  std::size_t rounds = 1;
  bool barrier = true;
  cs31::life::EdgeRule rule = cs31::life::EdgeRule::Torus;
  cs31::life::Grid grid{1, 1};
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
          cs31::require(value == "0" || value == "1", "life scenario: barrier must be 0 or 1");
          scenario.barrier = value == "1";
        } else if (key == "rule") {
          cs31::require(value == "torus" || value == "bounded",
                        "life scenario: rule must be torus or bounded");
          scenario.rule =
              value == "torus" ? cs31::life::EdgeRule::Torus : cs31::life::EdgeRule::Bounded;
        } else {
          throw cs31::Error("life scenario: unknown key '" + key + "'");
        }
        continue;
      }
      in_grid = true;
    }
    grid_text += line;
    grid_text += '\n';
  }
  cs31::require(!grid_text.empty(), "life scenario: missing grid");
  scenario.grid = cs31::life::Grid::parse(grid_text);
  return scenario;
}

std::vector<std::vector<std::string>> parse_script_threads(const std::string& body) {
  std::vector<std::vector<std::string>> scripts;
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    std::vector<std::string> ops;
    std::istringstream parts(line);
    std::string op;
    while (std::getline(parts, op, ';')) {
      const auto begin = op.find_first_not_of(" \t");
      if (begin == std::string::npos) continue;
      ops.push_back(op.substr(begin, op.find_last_not_of(" \t") - begin + 1));
    }
    if (!ops.empty()) scripts.push_back(std::move(ops));
  }
  cs31::require(!scripts.empty(), "script submission: no threads");
  return scripts;
}

void execute(Tracer& t, const cs31::isa::Image& image, std::size_t findings, Verdict& verdict) {
  std::optional<cs31::isa::Machine> machine;
  {
    Scoped s(t, Stage::MachineNew);
    machine.emplace();
  }
  {
    Scoped s(t, Stage::Load);
    machine->load(image);
  }
  try {
    const auto limits = toolchain_limits();
    cs31::isa::Machine::RunOutcome outcome;
    {
      Scoped s(t, Stage::RunLimited);
      outcome = machine->run_limited({limits.max_instructions, limits.max_seconds});
    }
    verdict.instructions = outcome.instructions;
    if (outcome.reason == cs31::isa::Machine::StopReason::Halted) {
      verdict.result = static_cast<std::int32_t>(machine->reg(cs31::isa::Reg::Eax));
      verdict.status = findings == 0 ? "ok" : "ok_with_findings";
      verdict.score = clean_score(findings);
    } else {
      verdict.status = "timeout";
      verdict.score = 5;
      verdict.notes.push_back(outcome.reason ==
                                      cs31::isa::Machine::StopReason::InstructionLimit
                                  ? "instruction budget exhausted (runaway loop?)"
                                  : "wall-clock budget exhausted");
    }
  } catch (const cs31::Error& e) {
    verdict.instructions = machine->instructions_executed();
    verdict.status = "runtime_error";
    verdict.score = 10;
    verdict.notes.push_back(e.what());
  }
  Scoped s(t, Stage::MachineFree);
  machine.reset();
}

Verdict grade_mini_c(Tracer& t, const std::string& body) {
  Verdict verdict;
  std::vector<std::int32_t> args;
  {
    Scoped s(t, Stage::ParseArgs);
    args = parse_args_directive(body);
  }
  cs31::isa::Image image;
  try {
    cs31::cc::PipelineResult compiled;
    {
      Scoped s(t, Stage::CompilePipeline);
      compiled = cs31::cc::compile_pipeline(body);
    }
    {
      Scoped s(t, Stage::Notes);
      for (const auto& d : compiled.diagnostics) verdict.notes.push_back(d.to_string());
    }
    Scoped s(t, Stage::CompileWithEntry);
    image = cs31::cc::compile_with_entry(body, args);
  } catch (const cs31::Error& e) {
    verdict.status = "compile_error";
    verdict.score = 0;
    verdict.notes.push_back(e.what());
    return verdict;
  }
  execute(t, image, verdict.notes.size(), verdict);
  return verdict;
}

Verdict grade_assembly(Tracer& t, const std::string& body) {
  Verdict verdict;
  cs31::isa::Image image;
  try {
    {
      Scoped s(t, Stage::Assemble);
      image = cs31::isa::assemble(body);
    }
    std::vector<cs31::analyze::Diagnostic> findings;
    {
      Scoped s(t, Stage::LintImage);
      findings = cs31::analyze::lint_image(image);
    }
    Scoped s(t, Stage::Notes);
    for (const auto& d : findings) verdict.notes.push_back(d.to_string());
  } catch (const cs31::Error& e) {
    verdict.status = "compile_error";
    verdict.score = 0;
    verdict.notes.push_back(e.what());
    return verdict;
  }
  execute(t, image, verdict.notes.size(), verdict);
  return verdict;
}

Verdict grade_life_trace(Tracer& t, const std::string& body) {
  Verdict verdict;
  try {
    std::optional<LifeScenario> scenario;
    {
      Scoped s(t, Stage::ParseScenario);
      scenario = parse_life_scenario(body);
    }
    std::optional<cs31::life::TracedLifeResult> result;
    {
      Scoped s(t, Stage::TracedLife);
      result = cs31::life::traced_life_check(scenario->grid, scenario->threads,
                                             scenario->rounds, scenario->barrier,
                                             scenario->rule);
    }
    Scoped s(t, Stage::Notes);
    verdict.result = static_cast<std::int32_t>(result->grid.population());
    verdict.events = result->events;
    verdict.races = result->races.size();
    if (result->race_free) {
      verdict.status = "race_free";
      verdict.score = 100;
    } else {
      verdict.status = "race_found";
      verdict.score = 30;
      const std::size_t cap = verdict.races < 4 ? verdict.races : 4;
      for (std::size_t i = 0; i < cap; ++i) {
        const cs31::race::RaceReport& race = result->races[i];
        verdict.notes.push_back("race on " + race.variable + ": " + race.first.where + " vs " +
                                race.second.where);
      }
    }
  } catch (const std::exception& e) {
    verdict.status = "invalid";
    verdict.score = 0;
    verdict.notes.push_back(e.what());
  }
  return verdict;
}

Verdict grade_script(Tracer& t, const std::string& body) {
  Verdict verdict;
  try {
    std::vector<std::vector<std::string>> scripts;
    {
      Scoped s(t, Stage::ParseScript);
      scripts = parse_script_threads(body);
    }
    std::optional<cs31::analyze::ConcurSummary> summary;
    {
      Scoped s(t, Stage::AnalyzeScripts);
      summary = cs31::analyze::analyze_scripts(scripts);
    }
    std::size_t findings = 0;
    {
      Scoped s(t, Stage::Notes);
      for (const auto& d : summary->diagnostics) {
        if (d.severity != cs31::analyze::Severity::Note) ++findings;
        verdict.notes.push_back(d.to_string());
      }
    }
    cs31::race::ExploreOptions options;
    {
      Scoped s(t, Stage::SeedExploreOptions);
      options = cs31::analyze::seed_explore_options(*summary);
    }
    options.max_schedules = 4096;
    options.max_events = toolchain_limits().max_instructions;
    std::optional<cs31::race::ExploreResult> explored;
    {
      Scoped s(t, Stage::ExploreRaces);
      explored = cs31::race::explore_races(scripts, options);
    }
    Scoped s(t, Stage::Notes);
    verdict.result = static_cast<std::int32_t>(explored->schedules_replayed);
    verdict.events = explored->events_replayed;
    verdict.races = explored->races.size();
    const std::size_t deadlock_cap =
        explored->deadlocks.size() < 4 ? explored->deadlocks.size() : 4;
    for (std::size_t i = 0; i < deadlock_cap; ++i) {
      verdict.notes.push_back(explored->deadlocks[i].to_string());
    }
    const std::size_t race_cap = explored->races.size() < 4 ? explored->races.size() : 4;
    for (std::size_t i = 0; i < race_cap; ++i) {
      const cs31::race::RaceReport& race = explored->races[i];
      verdict.notes.push_back("race on " + race.variable + ": " + race.first.where + " vs " +
                              race.second.where);
    }
    if (!explored->deadlocks.empty()) {
      verdict.status = "deadlock_found";
      verdict.score = 20;
    } else if (!explored->races.empty()) {
      verdict.status = "race_found";
      verdict.score = 30;
    } else if (!explored->complete) {
      verdict.status = "timeout";
      verdict.score = 5;
      verdict.notes.push_back("exploration budget exhausted before full coverage");
    } else {
      verdict.status = "race_free";
      verdict.score = clean_score(findings);
    }
  } catch (const std::exception& e) {
    verdict.status = "invalid";
    verdict.score = 0;
    verdict.notes.push_back(e.what());
  }
  return verdict;
}

}  // namespace

const char* stage_name(Stage stage) { return kStageNames[static_cast<std::size_t>(stage)]; }

std::size_t module_of(Stage stage) {
  const std::string name = stage_name(stage);
  const std::string prefix = name.substr(0, name.find('.'));
  for (std::size_t m = 0; m < kModuleCount; ++m) {
    if (std::string(kModules[m]).rfind(prefix, 0) == 0) return m;
  }
  throw std::logic_error("stage without a module: " + name);
}

std::size_t Tracer::open(Stage stage) {
  const bool root = stage == Stage::Toolchain;
  spans.push_back({stage, round, item, root ? -1 : root_, Clock::now(), {}});
  if (root) root_ = static_cast<std::int32_t>(spans.size() - 1);
  return spans.size() - 1;
}

void Tracer::close(std::size_t index) {
  spans[index].end = Clock::now();
  if (spans[index].stage == Stage::Toolchain) root_ = -1;
}

Verdict traced_run_toolchain(Tracer& tracer, const cs31::grader::Submission& submission) {
  using cs31::grader::SubmissionKind;
  Scoped root(tracer, Stage::Toolchain);
  switch (submission.kind) {
    case SubmissionKind::MiniC: return grade_mini_c(tracer, submission.body);
    case SubmissionKind::Assembly: return grade_assembly(tracer, submission.body);
    case SubmissionKind::LifeTrace: return grade_life_trace(tracer, submission.body);
    case SubmissionKind::Script: return grade_script(tracer, submission.body);
  }
  throw std::logic_error("unknown submission kind");
}

}  // namespace gradebench
