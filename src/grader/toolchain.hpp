// One submission through the course toolchain, to a verdict:
//
//   mini_c      parse → analyze (lint) → lower to an instruction listing →
//               encode the listing directly (no assembly text) → execute
//               on an isa::Machine under resource limits
//   assembly    assemble → analyze::lint_image → execute under limits
//   life_trace  parse scenario config → life::traced_life_check →
//               FastTrack race verdict
//   script      per-thread op scripts (one thread per line, ops
//               separated by ';') → analyze::analyze_scripts static
//               findings → blocking-aware DPOR exploration seeded from
//               the summary, under a schedule/event budget
//
// The verdict is a PURE, DETERMINISTIC function of (kind, body): no
// timestamps, no hostnames, no wall-clock measurements leak into it.
// That property is what makes the content-hash cache sound (a cached
// verdict is indistinguishable from a fresh one) and what lets the
// service promise byte-identical report streams for any worker count.
// The one caveat is the wall-clock execution limit: a poison submission
// that loops forever is stopped by whichever budget runs out first, so
// the service keeps the (deterministic) instruction budget far below
// the wall-clock budget and the wall clock only fires on a machine so
// loaded the instruction budget could not be consumed in time.
//
// Every failure mode of the *submission* — syntax errors, lint
// findings, segfaults, runaway loops, malformed scenario configs — is
// an ordinary verdict, not an exception; run_toolchain only lets a
// defect of the grader itself escape (and the worker pool catches even
// those, reporting status "grader_error" rather than dying).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "grader/submission.hpp"
#include "race/script.hpp"

namespace cs31::grader {

/// Execution budget per graded program (both kinds of limit; see the
/// file comment for why the instruction budget should stay the binding
/// one).
struct ToolchainLimits {
  std::size_t max_instructions = 2'000'000;
  double max_seconds = 5.0;
};

/// Most ops, over all threads, a script submission may hold; a larger
/// body is `invalid`. The explorer's state per run grows with the ops,
/// and its work per node with the threads, so the cap bounds what a
/// hostile body costs. At 512, under the default limits (-O2, 4-vCPU
/// Xeon), two threads of dependent writes grade in ~0.1 s, and 512
/// one-op threads of dependent writes, the widest body admitted, in
/// ~1.8 s.
inline constexpr std::size_t kMaxScriptOps = 512;

/// Life scenario caps; a body past any of them is `invalid`. The traced
/// replay costs roughly one detector check per neighbour read per cell
/// per round, and its vector clocks grow with the thread count, so the
/// grid, the rounds x cells product and the threads are all bounded.
/// The worst body admitted (64 threads, no barrier, a 64x1024 grid for
/// 2 rounds) grades in ~0.8 s (-O2, 4-vCPU Xeon).
inline constexpr std::size_t kMaxLifeCells = 65536;
inline constexpr std::size_t kMaxLifeCellRounds = 131072;
inline constexpr std::size_t kMaxLifeThreads = 64;

/// What grading one submission produced. `status` is one of:
///   ok               compiled/assembled clean and ran to completion
///   ok_with_findings ran to completion, but lint found something
///   compile_error    the toolchain rejected the body
///   runtime_error    the program faulted (segmentation violation, ...)
///   timeout          a resource limit stopped it (poison submission)
///   race_free        life_trace/script: certified free of data races
///                    (script: every feasible schedule explored)
///   race_found       life_trace/script: the detector reported races
///   deadlock_found   script: exploration reached a real stuck state
///   invalid          life_trace/script: malformed config or op
struct Verdict {
  std::string status = "invalid";
  int score = 0;                  ///< 0..100, deterministic rubric
  std::int32_t result = 0;        ///< program return value (%eax) / final population
  std::uint64_t instructions = 0; ///< executed (mini_c / assembly)
  std::uint64_t events = 0;       ///< trace events analyzed (life_trace)
  std::uint64_t races = 0;        ///< distinct races reported (life_trace)
  std::vector<std::string> notes; ///< lint findings, fault text, race sites

  /// One deterministic JSON object (fixed key order, sorted content).
  [[nodiscard]] std::string to_json() const;

  friend bool operator==(const Verdict&, const Verdict&) = default;
};

/// Grade one submission. Deterministic; never throws for submission
/// defects (see file comment).
[[nodiscard]] Verdict run_toolchain(const Submission& submission,
                                    const ToolchainLimits& limits = {});

/// A script body's threads and ops as views into `body`: one thread per
/// line with an op, ops separated by ';', each trimmed of spaces and
/// tabs, empty ones skipped. Throws cs31::Error when no line has an op.
[[nodiscard]] race::ScriptText split_script_body(std::string_view body);

/// The report paths quote with the kit's one JSON escape.
using common::json_quote;

}  // namespace cs31::grader
