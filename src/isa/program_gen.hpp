// Seeded synthetic-program generator for differential testing of the
// two execution cores. A GeneratedProgram is structurally valid
// assembly for the kit's IA-32 subset — straight ALU runs, scratch-
// region memory traffic, counted loops, branch diamonds, cdecl calls
// through an acyclic helper-function ladder, balanced push/pop play —
// produced deterministically from a 64-bit seed (the kit's
// common::SplitMix64, the same one race::trace_gen uses; no std distributions, whose
// output is implementation-defined). "Structurally valid" means the
// program always terminates at _start's final hlt and never faults:
// every memory operand lands in the scratch region, every jump target
// is a label, every call ladder is acyclic, every frame is balanced.
//
// The same program run on the switch interpreter and the predecoded
// core must leave byte-identical architectural state at every step.
// Every divergence the fuzz harness finds is a one-line repro: re-run
// with the printed seed (and config) to regenerate the exact source;
// GeneratedProgram::to_string() prints it with a "# seed=" header.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace cs31::isa {

/// Knobs for the generator. The defaults make small programs (a few
/// hundred instructions executed) dense in core-divergence hazards:
/// flag-dependent branches, loops whose counters cross block budgets,
/// calls that split blocks at every boundary.
struct ProgramGenConfig {
  std::size_t segments = 10;      ///< top-level segments in _start
  std::size_t functions = 3;      ///< helper functions f0..f{n-1} (0 = no calls)
  std::size_t ops_per_block = 5;  ///< straight-line ops per segment body
  std::uint32_t max_trip = 9;     ///< loop trip counts drawn from [1, max_trip]
  std::uint32_t mem_words = 64;   ///< scratch region size in 4-byte words
  std::uint32_t data_base = 0x8000;  ///< scratch region base (clear of image + stack)
};

struct GeneratedProgram {
  std::uint64_t seed = 0;
  ProgramGenConfig config;
  std::string source;  ///< assembles with isa::assemble at the default base

  /// The source preceded by a "# seed=<n>" header — paste into a bug
  /// report, or regenerate from the seed alone.
  [[nodiscard]] std::string to_string() const;
};

/// Deterministically generate a structurally valid program from `seed`.
[[nodiscard]] GeneratedProgram generate_program(std::uint64_t seed, ProgramGenConfig config = {});

}  // namespace cs31::isa
