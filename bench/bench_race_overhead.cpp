// Race-detection overhead: traced vs untraced Game of Life generations
// per second, raw detector event throughput, and — since the FastTrack
// shadow-state compression — a before/after comparison against the
// PR 1 full-vector-clock algorithm (kept as ReferenceDetector), fed
// the identical event stream.
//
// (a) a deterministic comparison run that times both detectors on the
//     same multi-round traced Life workload, snapshots shadow-state
//     bytes (end of run, and mid-run with the read state inflated),
//     and *asserts* the
//     acceptance criterion: >= 2x reduction in tracing overhead vs the
//     PR 1 baseline (exit 1 on failure, so the tier-1 smoke run guards
//     the claim);
// (b) real-thread mode (the TraceContext capture layer): a traced
//     4-thread 64x64 ParallelLife::run vs the untraced run, with the
//     drained stream fed to the FastTrack Detector AND the Eraser-style
//     LocksetDetector simultaneously; *asserts* <= 3x wall-clock
//     overhead and the known verdicts (HB: race-free; lockset: flags
//     its documented barrier false positive or agrees), and prints the
//     per-thread buffer high-water marks;
// (c) pipelined real-thread mode (PR 4): the same 4-thread 64x64 run
//     with analysis moved off the critical path into a one-shard
//     trace::AnalysisPipeline; *asserts* <= 1.25x wall-clock overhead
//     vs untraced AND that the pipeline's certificate is byte-identical
//     to the inline detector's (this is the tier-1 --perf-smoke run);
// (c2) capture-only overhead (the lock-free capture refactor's
//     acceptance number): traced ParallelLife::run with NO sinks in
//     both capture designs; *asserts* lock-free capture <= 1.1x the
//     untraced wall time;
// (c3) sync storm: 4 real threads hammering private TracedMutexes —
//     every event a sync event; *asserts* lock-free capture >= 1.5x
//     the mutex-ordered stream's throughput;
// (d) shard scaling: analysis capacity — events divided by the busiest
//     shard's busy time — for 1/2/4 shards on a cell-granularity
//     replay; *asserts* capacity grows from 1 to 4 shards (on a 1-core
//     host wall-clock cannot show the win, busy-time can);
// (e) sampling capture: the detection-probability vs overhead curve of
//     TraceContext's access-event sampling on a barrier-less Life;
// (f) google-benchmark timings: untraced / FastTrack-traced /
//     reference-traced Life steps (grids up to 64x64 — past the
//     practical limit of the string-keyed PR 1 detector), and
//     per-event throughput of both detectors on both API paths.
//
// Every wall-time row times its sides through bench_json.hpp's
// `measure`; (d) times busy CPU and keeps its own best-of-3.
// --perf-smoke runs only (c), (c2), and (c3), in seconds, for ctest.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "life/life.hpp"
#include "life/traced.hpp"
#include "parallel/threads.hpp"
#include "race/detector.hpp"
#include "race/lockset.hpp"
#include "race/reference.hpp"
#include "trace/context.hpp"
#include "trace/instrumented.hpp"
#include "trace/metrics.hpp"
#include "trace/pipeline.hpp"

namespace {

using cs31::bench::measure;
using cs31::life::Grid;

/// Shadow bytes while the read state is inflated: `threads` workers all
/// read every variable (the Life compute phase freeze-framed before any
/// write deflates it) — the state FastTrack compresses hardest.
template <typename Sink>
std::size_t read_shared_snapshot_bytes(std::size_t threads, std::size_t vars) {
  Sink sink;
  std::vector<cs31::race::ThreadId> workers;
  for (std::size_t t = 0; t < threads; ++t) workers.push_back(sink.fork(0));
  for (std::size_t v = 0; v < vars; ++v) {
    const std::string var = "cell" + std::to_string(v);
    for (const auto w : workers) sink.read(w, var, "compute phase");
  }
  return sink.shadow_bytes();
}

/// The deterministic before/after run. Returns false when the >= 2x
/// overhead-reduction criterion does not hold.
bool report_compression(cs31::bench::JsonReport& json) {
  constexpr std::size_t kSide = 64;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 10;
  const Grid initial = Grid::random(kSide, kSide, 0.3, 7);

  std::printf("==============================================================\n");
  std::printf("race-overhead: FastTrack (Detector) vs PR 1 (ReferenceDetector)\n");
  std::printf("==============================================================\n\n");
  std::printf("workload: %zux%zu Life, %zu bands, %zu barrier-synchronized rounds\n\n",
              kSide, kSide, kThreads, kRounds);

  // Untraced baseline (the simulation alone); after: the FastTrack
  // detector on its interned-id fast path; before: the full-vector-clock
  // ReferenceDetector on the identical event stream.
  std::uint64_t fast_events = 0, ref_events = 0;
  bool fast_race_free = false, ref_race_free = false;
  const auto [untraced, fast, ref] = measure(
      [&] {
        cs31::life::SerialLife untraced_life(initial);
        untraced_life.run(kRounds);
      },
      [&] {
        const auto run = cs31::life::traced_life_check(initial, kThreads, kRounds, true);
        fast_events = run.events;
        fast_race_free = run.race_free;
      },
      [&] {
        cs31::race::ReferenceDetector reference;
        const auto run =
            cs31::life::traced_life_check_with(reference, initial, kThreads, kRounds, true);
        ref_events = run.events;
        ref_race_free = run.race_free;
      });
  const double untraced_s = untraced.min(), fast_s = fast.min(), ref_s = ref.min();

  // End-of-run shadow bytes, from probe detectors fed the same stream.
  cs31::race::Detector fast_probe;
  cs31::race::ReferenceDetector ref_probe;
  (void)cs31::life::traced_life_check_with(fast_probe, initial, kThreads, kRounds, true);
  (void)cs31::life::traced_life_check_with(ref_probe, initial, kThreads, kRounds, true);
  const std::size_t fast_bytes = fast_probe.shadow_bytes();
  const std::size_t ref_bytes = ref_probe.shadow_bytes();

  // Mid-run snapshot: read state inflated across all bands.
  const std::size_t inflated_fast =
      read_shared_snapshot_bytes<cs31::race::Detector>(kThreads, kSide * kSide);
  const std::size_t inflated_ref =
      read_shared_snapshot_bytes<cs31::race::ReferenceDetector>(kThreads, kSide * kSide);

  const double events = static_cast<double>(fast_events);
  const double fast_eps = events / fast_s;
  const double ref_eps = events / ref_s;
  // Tracing overhead = time added on top of the untraced simulation;
  // the reduction is what the compression buys on identical events.
  const double fast_overhead = fast_s - untraced_s;
  const double ref_overhead = ref_s - untraced_s;
  const double reduction = fast_overhead > 0 ? ref_overhead / fast_overhead : 0.0;

  std::printf("%-34s %12s %14s\n", "", "fast (PR 2)", "reference (PR 1)");
  std::printf("%-34s %12.2f %14.2f\n", "wall time (ms)", fast_s * 1e3, ref_s * 1e3);
  std::printf("%-34s %12.2f %14s\n", "untraced simulation (ms)", untraced_s * 1e3, "-");
  std::printf("%-34s %12.1f %14.1f\n", "overhead vs untraced (x)", fast_s / untraced_s,
              ref_s / untraced_s);
  std::printf("%-34s %12.2f %14.2f\n", "events/sec (millions)", fast_eps / 1e6,
              ref_eps / 1e6);
  std::printf("%-34s %12zu %14zu\n", "shadow bytes (end of run)", fast_bytes, ref_bytes);
  std::printf("%-34s %12zu %14zu\n", "shadow bytes (read-shared)", inflated_fast,
              inflated_ref);
  std::printf("\ntracing overhead reduced %.1fx (acceptance floor: 2x)\n\n", reduction);

  json.metric("compression_overhead_reduction_x", reduction);
  json.metric("compression_events", fast_events);
  json.metric("fast_events_per_sec", fast_eps);
  json.metric("ref_events_per_sec", ref_eps);
  json.metric("fast_shadow_bytes", fast_bytes);
  json.metric("ref_shadow_bytes", ref_bytes);
  json.metric("read_shared_fast_bytes", inflated_fast);
  json.metric("read_shared_ref_bytes", inflated_ref);

  bool ok = true;
  if (!fast_race_free || !ref_race_free) {
    std::fprintf(stderr, "FAIL: barrier-synchronized Life must be race-free\n");
    ok = false;
  }
  if (fast_events != ref_events) {
    std::fprintf(stderr, "FAIL: detectors saw different event counts\n");
    ok = false;
  }
  return json.gate(reduction >= 2.0, "tracing overhead reduction", reduction, 2.0,
                   {{"compression_untraced", &untraced},
                    {"compression_fast", &fast},
                    {"compression_ref", &ref}}) &&
         ok;
}

/// The real-thread mode: trace an actual 4-thread barrier-synchronized
/// ParallelLife::run through the capture layer, with the HB detector
/// and the lockset detector consuming the identical drained stream.
/// Returns false when the <= 3x overhead ceiling or a known verdict
/// fails.
bool report_realthread(cs31::bench::JsonReport& json) {
  constexpr std::size_t kSide = 64;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 10;
  const Grid initial = Grid::random(kSide, kSide, 0.3, 7);

  std::printf("==============================================================\n");
  std::printf("real-thread capture: traced vs untraced ParallelLife::run\n");
  std::printf("==============================================================\n\n");
  std::printf("workload: %zux%zu Life, %zu real threads, %zu rounds, row granularity\n\n",
              kSide, kSide, kThreads, kRounds);

  bool hb_race_free = false;
  std::size_t lockset_reports = 0;
  std::uint64_t captured = 0, drains = 0;
  std::vector<cs31::trace::BufferStats> buffers;
  const auto [untraced, traced] = measure(
      [&] {
        cs31::life::ParallelLife life(initial, kThreads);
        life.run(kRounds);
      },
      [&] {
        cs31::trace::TraceContext ctx;
        cs31::race::LocksetDetector lockset;
        cs31::trace::MetricsSink metrics;
        ctx.attach_sink(lockset);
        ctx.attach_sink(metrics);
        cs31::life::ParallelLife life(initial, kThreads);
        life.run(kRounds, {.ctx = &ctx, .report_barrier = true,
                           .granularity = cs31::life::TraceGranularity::Row});
        ctx.flush();
        hb_race_free = ctx.detector().race_free();
        lockset_reports = lockset.races().size();
        captured = ctx.events_captured();
        drains = ctx.drains();
        buffers = ctx.buffer_stats();
      });

  const double untraced_s = untraced.min(), traced_s = traced.min();
  const double overhead = traced_s / untraced_s;
  std::printf("%-34s %12.2f\n", "untraced wall time (ms)", untraced_s * 1e3);
  std::printf("%-34s %12.2f\n", "traced wall time (ms)", traced_s * 1e3);
  std::printf("%-34s %12.2f\n", "overhead (x, ceiling 3.0)", overhead);
  std::printf("%-34s %12llu\n", "events captured",
              static_cast<unsigned long long>(captured));
  std::printf("%-34s %12llu\n", "drains", static_cast<unsigned long long>(drains));
  std::printf("%-34s %12s\n", "HB verdict", hb_race_free ? "race-free" : "RACES");
  std::printf("%-34s %12zu  (barrier false positives — Eraser cannot see barriers)\n",
              "lockset reports", lockset_reports);
  std::printf("per-thread buffer high-water marks:\n");
  for (const auto& b : buffers) {
    std::printf("  T%u: captured %llu, high water %llu\n", b.thread,
                static_cast<unsigned long long>(b.captured),
                static_cast<unsigned long long>(b.high_water));
  }

  std::printf("\n");

  json.metric("inline_3sink_overhead_x", overhead);
  json.metric("inline_3sink_events_captured", captured);
  json.metric("inline_3sink_drains", drains);
  json.metric("inline_3sink_lockset_reports", lockset_reports);

  bool ok = true;
  if (!hb_race_free) {
    std::fprintf(stderr, "FAIL: barrier-synchronized real-thread Life must be race-free "
                         "under happens-before\n");
    ok = false;
  }
  return json.gate(overhead <= 3.0, "real-thread tracing overhead", overhead, 3.0,
                   {{"inline_3sink_untraced", &untraced},
                    {"inline_3sink_traced", &traced}}) &&
         ok;
}

/// The PR 4 acceptance run: a traced 4-thread 64x64 ParallelLife::run
/// with analysis off the critical path in a one-shard AnalysisPipeline.
/// One shard is deliberate: on a single-core host extra shards add
/// routing work with no parallel gain (report_shard_scaling shows the
/// capacity win instead), and one shard is already the full pipeline —
/// queue, router, off-thread FastTrack, deterministic merge.
/// Asserts <= 1.25x overhead vs untraced and a certificate
/// byte-identical to the inline detector's.
bool report_pipeline(cs31::bench::JsonReport& json) {
  constexpr std::size_t kSide = 64;
  constexpr std::size_t kThreads = 4;
  // More rounds than the inline section: the timed region includes the
  // pipeline's thread spawn/join lifecycle (the honest deployment
  // cost), and on a millisecond workload that fixed cost is the noise
  // floor — 40 rounds amortize it so the ratio measures the steady
  // state.
  constexpr std::size_t kRounds = 40;
  constexpr double kCeiling = 1.25;
  const Grid initial = Grid::random(kSide, kSide, 0.3, 7);

  std::printf("==============================================================\n");
  std::printf("pipelined capture: analysis off the critical path (1 shard)\n");
  std::printf("==============================================================\n\n");
  std::printf("workload: %zux%zu Life, %zu real threads, %zu rounds, row granularity\n\n",
              kSide, kSide, kThreads, kRounds);

  // The inline certificate the pipeline must reproduce byte for byte.
  std::string inline_summary;
  {
    cs31::trace::TraceContext ctx;
    cs31::life::ParallelLife life(initial, kThreads);
    life.run(kRounds, {.ctx = &ctx});
    ctx.flush();
    inline_summary = ctx.detector().summary();
  }

  std::string piped_summary;
  std::uint64_t piped_events = 0, publish_waits = 0;
  // Summed over every traced call: the shard's analysis time and the
  // calls' wall time up to flush, whose quotient is the analysis share.
  double shard_busy_s = 0, traced_wall_s = 0;
  const auto [untraced, traced] = measure(
      [&] {
        cs31::life::ParallelLife life(initial, kThreads);
        life.run(kRounds);
      },
      [&] {
        const auto start = cs31::bench::Clock::now();
        cs31::trace::AnalysisPipeline pipeline(
            cs31::trace::AnalysisPipeline::Options{.shards = 1, .queue_capacity = 8});
        cs31::trace::TraceContext ctx(
            cs31::trace::TraceContext::Options{.own_detector = false});
        ctx.attach_pipeline(pipeline);
        cs31::life::ParallelLife life(initial, kThreads);
        life.run(kRounds, {.ctx = &ctx});
        ctx.flush();
        traced_wall_s += cs31::bench::seconds_since(start);
        for (const auto& shard : pipeline.shard_stats()) shard_busy_s += shard.busy_seconds;
        piped_summary = pipeline.summary();
        piped_events = pipeline.events();
        publish_waits = pipeline.publish_waits();
      });

  const double untraced_s = untraced.min(), traced_s = traced.min();
  const double overhead = traced_s / untraced_s;
  const double analysis_share = shard_busy_s / traced_wall_s;
  const bool identical = piped_summary == inline_summary;
  std::printf("%-34s %12.2f\n", "untraced wall time (ms)", untraced_s * 1e3);
  std::printf("%-34s %12.2f\n", "pipelined wall time (ms)", traced_s * 1e3);
  std::printf("%-34s %12.2f\n", "overhead (x, ceiling 1.25)", overhead);
  std::printf("%-34s %12llu\n", "events analyzed off-thread",
              static_cast<unsigned long long>(piped_events));
  std::printf("%-34s %12llu\n", "publish backpressure waits",
              static_cast<unsigned long long>(publish_waits));
  std::printf("%-34s %12.2f\n", "shard analysis share of wall time", analysis_share);
  std::printf("%-34s %12s\n", "certificate vs inline",
              identical ? "byte-identical" : "DIFFERS");
  std::printf("  inline: %s\n\n", inline_summary.c_str());

  json.config("pipeline_grid", static_cast<std::uint64_t>(kSide));
  json.config("pipeline_threads", static_cast<std::uint64_t>(kThreads));
  json.config("pipeline_rounds", static_cast<std::uint64_t>(kRounds));
  json.metric("pipelined_overhead_x", overhead);
  json.metric("pipelined_events_analyzed", piped_events);
  json.metric("pipelined_publish_waits", publish_waits);
  json.metric("pipelined_analysis_share", analysis_share);
  json.metric("pipelined_certificate_identical", identical);

  bool ok = true;
  if (!identical) {
    std::fprintf(stderr, "FAIL: pipeline certificate differs from inline mode\n");
    ok = false;
  }
  return json.gate(overhead <= kCeiling, "pipelined overhead", overhead, kCeiling,
                   {{"pipelined_untraced", &untraced}, {"pipelined_traced", &traced}}) &&
         ok;
}

/// Capture-only overhead: the cost of the capture layer itself — per-
/// thread buffer appends for accesses, and since the lock-free refactor
/// a (global stamp, per-object seq) pair for syncs — with no analysis
/// attached at all (no detector, no pipeline: drains merge and discard).
/// This is the number the lock-free redesign moves, so it is asserted:
/// lock-free capture must hold traced ParallelLife::run to <= 1.1x the
/// untraced wall time. The mutex_stream row is the same measurement on
/// the old design, reported for the contrast (and the JSON carries a
/// "capture" dimension for both).
bool report_capture_overhead(cs31::bench::JsonReport& json) {
  constexpr std::size_t kSide = 64;
  constexpr std::size_t kThreads = 4;
  // More rounds than (c): the asserted margin is tighter (1.1x vs
  // 1.25x), so each call carries more traced work over the same fixed
  // thread spawn/join cost.
  constexpr std::size_t kRounds = 60;
  constexpr double kCeiling = 1.1;
  const Grid initial = Grid::random(kSide, kSide, 0.3, 7);

  std::printf("==============================================================\n");
  std::printf("capture-only overhead: lock-free vs mutex-stream sync capture\n");
  std::printf("==============================================================\n\n");
  std::printf("workload: %zux%zu Life, %zu real threads, %zu rounds, row granularity,\n"
              "          no sinks attached (drain merges and discards)\n\n",
              kSide, kSide, kThreads, kRounds);

  std::uint64_t captured = 0;
  const auto traced_in = [&](cs31::trace::CaptureMode mode) {
    return [&, mode] {
      cs31::trace::TraceContext ctx(
          cs31::trace::TraceContext::Options{.own_detector = false, .capture = mode});
      cs31::life::ParallelLife life(initial, kThreads);
      life.run(kRounds, {.ctx = &ctx});
      ctx.flush();
      captured = ctx.events_captured();
    };
  };
  const auto [untraced, lockfree, mutex] = measure(
      [&] {
        cs31::life::ParallelLife life(initial, kThreads);
        life.run(kRounds);
      },
      traced_in(cs31::trace::CaptureMode::lockfree),
      traced_in(cs31::trace::CaptureMode::mutex_stream));

  const auto report = [&](const char* name, const cs31::bench::Timing& traced) {
    const double overhead = traced.min() / untraced.min();
    std::printf("%-12s traced %8.2f ms   untraced %8.2f ms   overhead %.3fx\n", name,
                traced.min() * 1e3, untraced.min() * 1e3, overhead);
    json.metric(std::string("capture_overhead_x_") + name, overhead);
    return overhead;
  };
  const double lockfree_overhead = report("lockfree", lockfree);
  report("mutex", mutex);
  std::printf("\nlock-free capture overhead %.3fx (ceiling %.2fx), %llu events\n\n",
              lockfree_overhead, kCeiling, static_cast<unsigned long long>(captured));

  return json.gate(lockfree_overhead <= kCeiling, "lock-free capture overhead",
                   lockfree_overhead, kCeiling,
                   {{"capture_untraced", &untraced},
                    {"capture_lockfree", &lockfree},
                    {"capture_mutex", &mutex}});
}

/// Sync storm: the workload the mutex-ordered stream was worst at —
/// real threads doing nothing but lock/unlock on their own (uncontended)
/// TracedMutexes, so every recorded event is a sync event and the old
/// design funnels all of them through one global mutex. Lock-free
/// capture records each into the owning thread's buffer with two relaxed
/// fetch_adds; asserted >= 1.5x the mutex-stream throughput.
bool report_sync_storm(cs31::bench::JsonReport& json) {
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kIters = 25000;  // x2 events (acquire+release)
  constexpr double kFloor = 1.5;

  std::printf("==============================================================\n");
  std::printf("sync storm: per-thread mutexes, every event a sync event\n");
  std::printf("==============================================================\n\n");
  std::printf("workload: %zu real threads x %llu lock/unlock on private TracedMutexes\n\n",
              kThreads, static_cast<unsigned long long>(kIters));

  std::uint64_t captured[2] = {0, 0};
  const auto storm_in = [&](cs31::trace::CaptureMode mode, std::size_t slot) {
    return [&, mode, slot] {
      cs31::trace::TraceContext ctx(
          cs31::trace::TraceContext::Options{.own_detector = false, .capture = mode});
      std::vector<std::unique_ptr<cs31::trace::TracedMutex>> mutexes;
      for (std::size_t t = 0; t < kThreads; ++t) {
        mutexes.push_back(std::make_unique<cs31::trace::TracedMutex>(
            "storm_m" + std::to_string(t), ctx));
      }
      cs31::parallel::ThreadTeam team(kThreads, ctx, [&](std::size_t who) {
        cs31::trace::TracedMutex& mutex = *mutexes[who];
        for (std::uint64_t i = 0; i < kIters; ++i) {
          mutex.lock();
          mutex.unlock();
        }
      });
      team.join();
      ctx.flush();
      captured[slot] = ctx.events_captured();
    };
  };
  const auto [lockfree, mutex] =
      measure(storm_in(cs31::trace::CaptureMode::lockfree, 0),
              storm_in(cs31::trace::CaptureMode::mutex_stream, 1));

  const auto report = [&](const char* name, const cs31::bench::Timing& timing,
                          std::uint64_t events) {
    const double tput = static_cast<double>(events) / timing.min();
    std::printf("%-12s %8.2f ms   %10.2f Kev/s   (%llu sync events)\n", name,
                timing.min() * 1e3, tput / 1e3, static_cast<unsigned long long>(events));
    json.metric(std::string("sync_storm_events_per_sec_") + name, tput);
    return tput;
  };
  const double lockfree_tput = report("lockfree", lockfree, captured[0]);
  const double speedup = lockfree_tput / report("mutex", mutex, captured[1]);
  std::printf("\nlock-free sync capture throughput %.2fx mutex-stream (floor %.1fx)\n\n",
              speedup, kFloor);
  json.metric("sync_storm_speedup_x", speedup);

  return json.gate(speedup >= kFloor, "sync-storm speedup", speedup, kFloor,
                   {{"sync_storm_lockfree", &lockfree}, {"sync_storm_mutex", &mutex}});
}

/// Shard scaling, measured honestly on any core count: wall-clock on a
/// 1-core host cannot improve with more analysis workers, but the
/// analysis *capacity* — events retired per second of the busiest
/// shard's CPU time — can and must. That is the number that predicts
/// multi-core behaviour: with real cores, throughput saturates at
/// capacity, so capacity(4) > capacity(1) is the scaling claim.
bool report_shard_scaling(cs31::bench::JsonReport& json) {
  constexpr std::size_t kSide = 48;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 6;
  const Grid initial = Grid::random(kSide, kSide, 0.3, 7);

  std::printf("==============================================================\n");
  std::printf("shard scaling: analysis capacity vs worker count\n");
  std::printf("==============================================================\n\n");
  std::printf("workload: %zux%zu cell-granularity replay, %zu bands, %zu rounds\n\n",
              kSide, kSide, kThreads, kRounds);
  std::printf("%8s %10s %16s %18s %14s\n", "shards", "events", "max shard busy",
              "capacity (Mev/s)", "balance");

  double capacity1 = 0, capacity4 = 0;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    // Best of 3: busy time is CPU time, but still jitters with the
    // scheduler; the minimum is the clean measurement.
    double best_busy = 0;
    std::uint64_t events = 0;
    std::uint64_t min_access = 0, max_access = 0;
    for (int run = 0; run < 3; ++run) {
      cs31::trace::AnalysisPipeline pipeline(
          cs31::trace::AnalysisPipeline::Options{.shards = shards, .queue_capacity = 8});
      cs31::life::TracedLifeOptions options;
      options.pipeline = &pipeline;
      const auto result =
          cs31::life::traced_life_check(initial, kThreads, kRounds, options);
      events = result.events;
      double busy = 0;
      min_access = UINT64_MAX;
      max_access = 0;
      for (const auto& s : pipeline.shard_stats()) {
        busy = std::max(busy, s.busy_seconds);
        min_access = std::min(min_access, s.access_events);
        max_access = std::max(max_access, s.access_events);
      }
      if (run == 0 || busy < best_busy) best_busy = busy;
    }
    const double capacity = static_cast<double>(events) / best_busy;
    if (shards == 1) capacity1 = capacity;
    if (shards == 4) capacity4 = capacity;
    std::printf("%8zu %10llu %13.2f ms %18.1f %6llu..%llu\n", shards,
                static_cast<unsigned long long>(events), best_busy * 1e3, capacity / 1e6,
                static_cast<unsigned long long>(min_access),
                static_cast<unsigned long long>(max_access));
    json.metric("analysis_capacity_mev_s_" + std::to_string(shards) + "_shards",
                capacity / 1e6);
  }
  std::printf("  (balance = min..max access events routed per shard — var-id\n"
              "   sharding spreads the grid cells evenly)\n\n");

  json.metric("capacity_scaling_1_to_4", capacity4 / capacity1);
  if (capacity4 <= capacity1) {
    std::fprintf(stderr,
                 "FAIL: 4-shard analysis capacity (%.1f Mev/s) does not exceed "
                 "1-shard (%.1f Mev/s)\n",
                 capacity4 / 1e6, capacity1 / 1e6);
    return false;
  }
  std::printf("capacity scales %.2fx from 1 to 4 shards\n\n", capacity4 / capacity1);
  return true;
}

/// Sampling capture: keep each access event with probability p (sync
/// events always kept — they carry the happens-before edges), and
/// measure what that buys (time) and costs (races missed) on the
/// barrier-less Life, whose 240-odd distinct races give the detection
/// probability a real denominator. The curve lands in EXPERIMENTS.md.
void report_sampling(cs31::bench::JsonReport& json) {
  constexpr std::size_t kSide = 32;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 6;
  const Grid initial = Grid::random(kSide, kSide, 0.3, 7);

  std::printf("==============================================================\n");
  std::printf("sampling capture: detection probability vs overhead\n");
  std::printf("==============================================================\n\n");
  std::printf("workload: %zux%zu barrier-less Life replay, %zu bands, %zu rounds\n\n",
              kSide, kSide, kThreads, kRounds);
  std::printf("%8s %10s %12s %12s %12s %10s\n", "rate", "races", "detection",
              "events", "sampled out", "time (ms)");

  std::size_t full_races = 0;
  for (const double rate : {1.0, 0.5, 0.25, 0.125, 0.0625}) {
    std::size_t races = 0;
    std::uint64_t events = 0, sampled_out = 0;
    const double s = measure([&] {
      cs31::life::TracedLifeOptions options;
      options.use_barrier = false;
      options.sample_rate = rate;
      const auto result =
          cs31::life::traced_life_check(initial, kThreads, kRounds, options);
      races = result.races.size();
      events = result.events;
      sampled_out = result.sampled_out;
    })[0].min();
    if (rate == 1.0) full_races = races;
    const double detection =
        full_races == 0 ? 0.0
                        : static_cast<double>(races) / static_cast<double>(full_races);
    std::printf("%8.4f %10zu %11.1f%% %12llu %12llu %10.2f\n", rate, races,
                100 * detection, static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(sampled_out), s * 1e3);
    char key[32];
    std::snprintf(key, sizeof key, "%g", rate);
    json.metric("sampling_detection_rate_" + std::string(key), detection);
    json.metric("sampling_ms_rate_" + std::string(key), s * 1e3);
  }
  std::printf("  (sampling is per-thread deterministic — the same rate always\n"
              "   yields the same verdict; sync events are never dropped, so the\n"
              "   happens-before structure stays exact and a kept access is\n"
              "   never a false positive)\n\n");
}

void BM_LifeStepUntraced(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  cs31::life::SerialLife life(Grid::random(side, side, 0.3, 7));
  for (auto _ : state) {
    life.step();
    benchmark::DoNotOptimize(life.grid());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(side * side));
}
BENCHMARK(BM_LifeStepUntraced)->Arg(16)->Arg(32)->Arg(64);

void BM_LifeStepTraced(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const Grid initial = Grid::random(side, side, 0.3, 7);
  for (auto _ : state) {
    // One barrier-synchronized generation through the FastTrack
    // detector (the race-free path: full check cost, no report
    // construction). Includes interning the cell names — the one-time
    // setup a longer run amortizes.
    const auto result = cs31::life::traced_life_check(initial, 4, 1, /*use_barrier=*/true);
    benchmark::DoNotOptimize(result.race_free);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(side * side));
}
BENCHMARK(BM_LifeStepTraced)->Arg(16)->Arg(32)->Arg(64);

void BM_LifeStepTracedReference(benchmark::State& state) {
  // The PR 1 algorithm on the same generation — the "before" number.
  const auto side = static_cast<std::size_t>(state.range(0));
  const Grid initial = Grid::random(side, side, 0.3, 7);
  for (auto _ : state) {
    cs31::race::ReferenceDetector reference;
    const auto result =
        cs31::life::traced_life_check_with(reference, initial, 4, 1, /*use_barrier=*/true);
    benchmark::DoNotOptimize(result.race_free);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(side * side));
}
BENCHMARK(BM_LifeStepTracedReference)->Arg(16)->Arg(32)->Arg(64);

void BM_DetectorEventThroughput(benchmark::State& state) {
  // Raw cost of one read/write check+record pair on a warm variable,
  // through the name forms (one interner hash lookup per event).
  cs31::race::Detector detector;
  const auto t1 = detector.fork(0);
  (void)t1;
  std::uint64_t i = 0;
  for (auto _ : state) {
    detector.read(0, "x", "bench");
    detector.write(0, "x", "bench");
    ++i;
  }
  benchmark::DoNotOptimize(i);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_DetectorEventThroughput);

void BM_DetectorEventThroughputInterned(benchmark::State& state) {
  // The id fast path: intern once, then epoch checks only.
  cs31::race::Detector detector;
  const auto t1 = detector.fork(0);
  (void)t1;
  const auto var = detector.intern_var("x");
  const auto site = detector.intern_site("bench");
  std::uint64_t i = 0;
  for (auto _ : state) {
    detector.read(0, var, site);
    detector.write(0, var, site);
    ++i;
  }
  benchmark::DoNotOptimize(i);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_DetectorEventThroughputInterned);

void BM_ReferenceEventThroughput(benchmark::State& state) {
  // PR 1's per-event cost: string-keyed map walks all the way down.
  cs31::race::ReferenceDetector detector;
  const auto t1 = detector.fork(0);
  (void)t1;
  std::uint64_t i = 0;
  for (auto _ : state) {
    detector.read(0, "x", "bench");
    detector.write(0, "x", "bench");
    ++i;
  }
  benchmark::DoNotOptimize(i);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_ReferenceEventThroughput);

}  // namespace

int main(int argc, char** argv) {
  cs31::bench::JsonReport json("race_overhead", argc, argv);
  json.workload("race-detection overhead: inline, pipelined, sharded, sampled");

  if (json.perf_smoke()) {
    // The tier-1 guard (seconds, not minutes): the PR 4 acceptance run
    // plus the two lock-free capture assertions — traced Life within
    // the 1.1x capture-only ceiling, sync-storm throughput >= 1.5x the
    // mutex-stream design.
    bool ok = report_pipeline(json);
    ok = report_capture_overhead(json) && ok;
    ok = report_sync_storm(json) && ok;
    return ok ? 0 : 1;
  }

  // Every section runs and writes its rows before any gate is judged,
  // so one failed gate does not cost the JSON the sections after it.
  bool ok = report_compression(json);
  ok = report_realthread(json) && ok;
  ok = report_pipeline(json) && ok;
  ok = report_capture_overhead(json) && ok;
  ok = report_sync_storm(json) && ok;
  ok = report_shard_scaling(json) && ok;
  report_sampling(json);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return ok ? 0 : 1;
}
