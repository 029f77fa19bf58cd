// Race-checked Game of Life: replays the access pattern of the Lab 10
// parallel engine — each thread reads its band of the current grid plus
// a one-row halo, writes its band of the next grid, then the serial
// thread swaps the grids — through the cs31::race detector. With the
// barrier edges in place the step is certifiably race-free; with the
// barriers removed, the serial thread's swap races against the other
// threads' band reads and writes, which is exactly the bug students
// write when they forget the per-round barrier.
//
// The replay is sequential and deterministic: happens-before analysis
// only needs the events and their program/synchronization order, not a
// real scheduler, so the verdict never depends on timing. The grid is
// really stepped while tracing, so the result can be checked against
// SerialLife.
//
// The replay runs ParallelLife's own round: the compute phase of each
// band and the serial swap phase that ParallelLife::run's threads run,
// written once in life.cpp, each emitting its accesses through a capture
// callable. The real-thread run passes the bound TraceContext::accesses;
// the replay passes accesses_as on behalf of each scripted worker, so
// both paths name, emit and feed the sinks the same grid accesses. What
// differs is the structural order: the replay forks every worker before
// the first band, flushes after every band and after the swap, and
// records a barrier cycle only when asked to.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "life/life.hpp"
#include "race/detector.hpp"
#include "trace/context.hpp"

namespace cs31::life {

struct TracedLifeResult {
  Grid grid;            ///< grid after `rounds` generations (really computed)
  bool race_free = false;
  /// Distinct races; a report (names, explanation) is built only when
  /// indexed, so a grader that reads four pays for four.
  race::RaceList races;
  std::uint64_t events = 0;   ///< accesses + sync events replayed
  std::uint64_t sampled_out = 0;  ///< accesses dropped by sampling capture mode
  std::uint64_t race_count = 0;   ///< racy accesses (race::EventSink::race_count)
  std::size_t threads = 0;        ///< detector threads, main included

  /// The detector summary (race::summarize_races), formatted on call —
  /// what Detector::summary() and AnalysisPipeline::summary() print. A
  /// sink with a format of its own (LocksetDetector) prints it through
  /// its own summary().
  [[nodiscard]] std::string report() const {
    return race::summarize_races(races, race_count, events, threads);
  }
};

/// How to run the replay. The defaults reproduce the classic
/// traced_life_check(…, use_barrier = true) behaviour exactly.
struct TracedLifeOptions {
  bool use_barrier = true;
  EdgeRule rule = EdgeRule::Torus;
  /// Access-event sample rate (TraceContext::Options::sample_access_events).
  double sample_rate = 1.0;
  /// Analyze off the replay thread through this pipeline instead of the
  /// context-owned inline detector (the verdict fields then come from
  /// the pipeline's deterministic merge — byte-identical to inline).
  /// The pipeline must be fresh and outlive the call.
  trace::AnalysisPipeline* pipeline = nullptr;
};

/// Replay `rounds` generations of the parallel engine's access pattern
/// over `threads` horizontal bands. `use_barrier` reproduces the
/// correct Lab 10 structure (compute, barrier, serial swap, barrier);
/// false drops both barrier edges — the buggy variant the detector
/// flags. Throws cs31::Error when threads == 0 or exceeds the rows.
///
/// The cells of both grids are reserved as one block of ids up front
/// (reserve_cell_names: a name is formatted only if a report reads it),
/// each run of consecutive rows is appended with one buffer lookup
/// (TraceContext::accesses_as), and the drain hands each run of
/// accesses to the FastTrack detector in one call, so the per-access
/// cost is a buffer append plus an epoch check, not a string lookup —
/// which is what lets this scale past toy grids
/// (bench_race_overhead has the numbers).
[[nodiscard]] TracedLifeResult traced_life_check(const Grid& initial, std::size_t threads,
                                                 std::size_t rounds, bool use_barrier,
                                                 EdgeRule rule = EdgeRule::Torus);

/// Same replay with the full option set (sampling capture, pipelined
/// off-thread analysis).
[[nodiscard]] TracedLifeResult traced_life_check(const Grid& initial, std::size_t threads,
                                                 std::size_t rounds,
                                                 const TracedLifeOptions& options);

/// Same access pattern, driven through any detector implementation as an
/// attached sink (each name interned into it on first sight). This is
/// how bench_race_overhead replays the identical event stream through
/// the full-vector-clock ReferenceDetector to quantify the compression,
/// and how a differential check can compare verdicts on the real Lab 10
/// workload. The sink must be fresh.
[[nodiscard]] TracedLifeResult traced_life_check_with(race::EventSink& sink,
                                                      const Grid& initial,
                                                      std::size_t threads, std::size_t rounds,
                                                      bool use_barrier,
                                                      EdgeRule rule = EdgeRule::Torus);

}  // namespace cs31::life
