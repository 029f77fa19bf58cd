// A span-traced copy of cs31::grader::run_toolchain: the same module
// calls in the same order as src/grader/toolchain.cpp, each inside a
// span named <module>.<call>, building the same Verdict. Equality with
// run_toolchain's verdict is what shows the spans timed the real work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bench.hpp"

namespace gradebench {

enum class Stage : std::size_t {
  Toolchain,  ///< root span: one submission through the toolchain
  ParseArgs,
  CompilePipeline,
  CompileWithEntry,
  Assemble,
  LintImage,
  MachineNew,
  Load,
  RunLimited,
  MachineFree,
  ParseScenario,
  TracedLife,
  ParseScript,
  AnalyzeScripts,
  SeedExploreOptions,
  ExploreRaces,
  Notes,  ///< rendering findings, faults and races into verdict notes
  Count,
};
inline constexpr std::size_t kStageCount = static_cast<std::size_t>(Stage::Count);

/// "<module>.<call>", e.g. "isa.run_limited".
const char* stage_name(Stage stage);

/// Self-time table rows, in the order of the toolchain's layers.
inline constexpr const char* kModules[] = {"grader", "ccomp",      "analyze",
                                           "isa",    "life/trace", "race"};
inline constexpr std::size_t kModuleCount = sizeof kModules / sizeof kModules[0];

/// Index into kModules.
std::size_t module_of(Stage stage);

struct Span {
  Stage stage;
  std::uint32_t round;
  std::uint32_t item;
  std::int32_t parent;  ///< index of the root span, -1 for a root
  Clock::time_point begin;
  Clock::time_point end;
};

/// In-memory span recorder; the caller writes the spans out at the end.
class Tracer {
 public:
  std::vector<Span> spans;
  std::uint32_t round = 0;  ///< stamped on every span opened
  std::uint32_t item = 0;   ///< likewise: which submission

  std::size_t open(Stage stage);
  void close(std::size_t index);

 private:
  std::int32_t root_ = -1;
};

/// run_toolchain(submission, toolchain_limits()), traced.
cs31::grader::Verdict traced_run_toolchain(Tracer& tracer,
                                           const cs31::grader::Submission& submission);

}  // namespace gradebench
