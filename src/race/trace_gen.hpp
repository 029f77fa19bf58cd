// Seeded synthetic-trace generator for differential testing of race
// detectors. A Trace is a structurally valid linearized event stream —
// fork/join trees, nested lock sections, barrier cycles over live
// subsets, channel sends/recvs, and reads/writes over a small variable
// pool — generated deterministically from a 64-bit seed (the kit's
// common::SplitMix64; no std::uniform_int_distribution, whose output is
// implementation-defined). "Structurally valid" means a trace never
// trips the detectors' own error checks: releases name held locks,
// joins name live non-root threads, barriers wait on live threads.
//
// The same Trace replayed into any two EventSinks feeds them an
// identical event sequence, so their verdicts — race count, racy
// (variable, site pair) set, full report text — must agree if the
// implementations are equivalent. Every divergence is a one-line repro:
// re-run with the printed seed (and config) to regenerate the exact
// trace; Trace::to_string() prints it op by op.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "race/detector.hpp"

namespace cs31::race {

/// Knobs for the generator. The defaults make small, sync-dense traces
/// that mix racy and race-free verdicts roughly evenly.
struct TraceGenConfig {
  std::size_t ops = 64;          ///< target op count (trace may run a little over)
  std::size_t max_threads = 6;   ///< total threads ever forked (incl. root)
  std::size_t vars = 4;          ///< shared variable pool "v0".."v{n-1}"
  std::size_t locks = 2;         ///< lock pool "m0".."m{n-1}"
  std::size_t channels = 2;      ///< channel pool "q0".."q{n-1}"
  std::size_t max_locks_held = 3;  ///< nesting bound per thread
};

struct TraceOp {
  enum class Kind : std::uint8_t {
    Fork,     ///< actor forks thread `object`
    Join,     ///< actor joins thread `object` (which then goes dead)
    Acquire,  ///< actor locks "m<object>"
    Release,  ///< actor unlocks "m<object>"
    Read,     ///< actor reads "v<object>"
    Write,    ///< actor writes "v<object>"
    Send,     ///< actor sends on "q<object>"
    Recv,     ///< actor receives on "q<object>"
    Barrier,  ///< `waiters` complete a barrier cycle together
  };
  Kind kind = Kind::Read;
  std::uint32_t actor = 0;   ///< dense generator thread index; 0 = root
  std::uint32_t object = 0;  ///< var/lock/channel index, or the child thread
  std::vector<std::uint32_t> waiters;  ///< Barrier only

  [[nodiscard]] std::string to_string() const;  ///< e.g. "t1 write v3"
};

struct Trace {
  std::uint64_t seed = 0;
  TraceGenConfig config;
  std::size_t threads = 1;  ///< total threads the ops mention (incl. root)
  std::vector<TraceOp> ops;

  /// One op per line, preceded by a "# seed=<n>" header — paste into a
  /// bug report, or regenerate from the seed alone.
  [[nodiscard]] std::string to_string() const;
};

/// Deterministically generate a structurally valid trace from `seed`.
[[nodiscard]] Trace generate_trace(std::uint64_t seed, TraceGenConfig config = {});

/// Replay the trace into a detector. Thread indices map to sink ids via
/// the sink's own fork() returns; every read/write is labelled with its
/// op index ("#<k>"), so reports from two sinks fed the same trace are
/// comparable site-for-site.
void run_trace(const Trace& trace, EventSink& sink);

}  // namespace cs31::race
