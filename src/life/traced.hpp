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
// callable. The real-thread run passes the bound TraceContext::accesses.
// The replay runs on one OS thread and emits in dispatch order, so it
// needs none of the capture layer's buffers, drains or merges: it passes
// a SinkFeed's accesses_as on behalf of each scripted worker, and the
// feed hands every fork, access run, barrier cycle and join to the sink
// the moment it is emitted (the data has one owner, so nothing is handed
// off). Only pipelined analysis and sampling capture, which the capture
// layer alone offers, replay the same round through a TraceContext's
// accesses_as instead. Both paths name, emit and feed the sinks the same
// events in the same order.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
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
  /// inline detector (the verdict fields then come from the pipeline's
  /// deterministic merge — byte-identical to inline).
  /// The pipeline must be fresh and outlive the call.
  trace::AnalysisPipeline* pipeline = nullptr;
};

/// The replay's direct feed: the scripted half of TraceContext's API
/// (fork_thread, accesses_as, barrier_cycle, join_threads, flush) over
/// one sink, fed from the calling thread as each event is emitted. The
/// feed owns the name tables it interns into and binds the sink through
/// trace::SinkBinding: a race::Detector sharing those tables takes each
/// run of accesses in one check_accesses call, and every other event
/// as it is; any other sink gets one event at a time, each name
/// interned into it on first sight. Main is thread 0 and forks count up
/// from 1, as a fresh sink numbers them.
class SinkFeed {
 public:
  /// Feed `sink`, which must be fresh, interning into `names`.
  SinkFeed(race::EventSink& sink, std::shared_ptr<race::NameTables> names);

  [[nodiscard]] trace::NameId reserve_vars(std::size_t count, race::NameFormat format);
  [[nodiscard]] trace::NameId intern_site(std::string_view label);

  [[nodiscard]] trace::ThreadId fork_thread(trace::ThreadId parent);
  /// `count` accesses of one kind by thread `t` to the variables
  /// `first`, `first + stride`, … at one site.
  void accesses_as(trace::ThreadId t, race::AccessKind kind, trace::NameId first,
                   std::size_t count, std::size_t stride, trace::NameId site);
  /// A completed barrier cycle over `waiters`, given in ascending order.
  void barrier_cycle(const std::vector<trace::ThreadId>& waiters);
  void join_threads(trace::ThreadId parent, const std::vector<trace::ThreadId>& children);
  /// Every event reached the sink when it was emitted: nothing to do.
  void flush() {}

 private:
  void dispatch(const trace::Event& event) { binding_.dispatch(event, *names_, waiter_sets_); }

  std::shared_ptr<race::NameTables> names_;
  trace::SinkBinding binding_;
  /// BarrierCycle payloads; rounds of one team repeat one set.
  std::vector<std::vector<trace::ThreadId>> waiter_sets_;
  trace::ThreadId threads_ = 1;  ///< feed threads so far, main included
};

/// Replay `rounds` generations of the parallel engine's access pattern
/// over `threads` horizontal bands. `use_barrier` reproduces the
/// correct Lab 10 structure (compute, barrier, serial swap, barrier);
/// false drops both barrier edges — the buggy variant the detector
/// flags. Throws cs31::Error when threads == 0 or exceeds the rows.
///
/// The cells of both grids are reserved as one block of ids up front
/// (reserve_cell_names: a name is formatted only if a report reads it),
/// and each run of consecutive cells goes from the round to the
/// FastTrack detector in one call (SinkFeed::accesses_as, then
/// Detector::check_accesses), so the per-access cost is an epoch check,
/// not a buffer append or a string lookup — which is what lets this
/// scale past toy grids (bench_race_overhead has the numbers).
[[nodiscard]] TracedLifeResult traced_life_check(const Grid& initial, std::size_t threads,
                                                 std::size_t rounds, bool use_barrier,
                                                 EdgeRule rule = EdgeRule::Torus);

/// Same replay with the full option set. With a pipeline or a sample
/// rate other than 1 the round runs through a TraceContext, which alone
/// offers those; otherwise through a SinkFeed, as above.
[[nodiscard]] TracedLifeResult traced_life_check(const Grid& initial, std::size_t threads,
                                                 std::size_t rounds,
                                                 const TracedLifeOptions& options);

/// Same access pattern, driven through any detector implementation by a
/// SinkFeed (each name interned into it on first sight). This is
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
