#include "life/traced.hpp"

#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "parallel/threads.hpp"
#include "trace/context.hpp"
#include "trace/pipeline.hpp"

namespace cs31::life {
namespace {

// The Lab 10 access pattern, replayed through the same trace::
// TraceContext machinery the real-thread engine uses — one OS thread
// plays every role via the scripted (*_as) API, so the verdict never
// depends on timing. Flushing after every band and after the swap keeps
// the dispatch order equal to the emission order, which keeps this
// replay's reports bit-identical run to run (and lets the real-thread
// path be checked against it).
//
// Site labels deliberately carry no round number: the race between the
// serial thread's grid swap and band t's halo access is the same bug in
// every round, and the per-(variable, site pair) report dedup then
// keeps it to one report per run instead of one per round (the
// regression test for that is TracedLife.BarrierlessRaceSetStableAcrossRounds).
struct ReplayOps {
  trace::TraceContext& ctx;
  race::EventSink* verdict;             ///< the sink whose result is harvested, or
  trace::AnalysisPipeline* pipeline;    ///< the pipeline it comes from instead
  std::vector<trace::ThreadId> workers;
  trace::NameId cells = 0;  ///< cur[r,c] is cells + 2(r·cols + c); next[r,c] one more
  std::vector<trace::NameId> band_sites;
  trace::NameId swap_site = 0;
  std::size_t cols = 0;

  ReplayOps(trace::TraceContext& ctx_in, race::EventSink* verdict_in,
            trace::AnalysisPipeline* pipeline_in, std::size_t rows, std::size_t cols_in)
      : ctx(ctx_in), verdict(verdict_in), pipeline(pipeline_in), cols(cols_in) {
    cells = reserve_cell_names(ctx, rows, cols);
    swap_site = ctx.intern_site("swap grids (serial thread)");
  }

  void fork_workers(std::size_t threads) {
    workers.reserve(threads);
    band_sites.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      workers.push_back(ctx.fork_thread(0));
      band_sites.push_back(ctx.intern_site("step_region band " + std::to_string(t)));
    }
  }
  /// The id of row r's first cell in grid cur (+1: in grid next).
  [[nodiscard]] trace::NameId row_base(std::size_t r) const {
    return static_cast<trace::NameId>(cells + 2 * r * cols);
  }
  void read_cur_row(std::size_t t, std::size_t r) {
    ctx.accesses_as(workers[t], race::AccessKind::Read, row_base(r), cols, 2, band_sites[t]);
  }
  void write_next_row(std::size_t t, std::size_t r) {
    ctx.accesses_as(workers[t], race::AccessKind::Write, row_base(r) + 1, cols, 2,
                    band_sites[t]);
  }
  void band_done() { ctx.flush(); }
  /// The swap writes cur[r,c] then next[r,c] along the row: with the
  /// interleaved ids that is one run of 2·cols consecutive ids.
  void swap_row(std::size_t r) {
    ctx.accesses_as(workers[0], race::AccessKind::Write, row_base(r), 2 * cols, 1, swap_site);
  }
  void swap_done() { ctx.flush(); }
  void barrier() { ctx.barrier_cycle(workers); }
  void join_workers() { ctx.join_threads(0, workers); }
  TracedLifeResult finish(Grid grid) {
    ctx.flush();  // with a pipeline attached this also waits for idle
    if (pipeline != nullptr) {
      return TracedLifeResult{std::move(grid),         pipeline->race_free(),
                              pipeline->races(),       pipeline->events(),
                              ctx.events_sampled_out(), pipeline->race_count(),
                              pipeline->threads()};
    }
    // No report is built here: the built-in detector hands over its
    // compact records, a foreign sink its finished reports.
    const auto* detector = dynamic_cast<const race::Detector*>(verdict);
    return TracedLifeResult{
        std::move(grid),
        verdict->race_free(),
        detector != nullptr ? detector->race_list() : race::RaceList(verdict->races()),
        verdict->events(),
        ctx.events_sampled_out(),
        verdict->race_count(),
        verdict->threads()};
  }
};

TracedLifeResult traced_life_run(ReplayOps& ops, const Grid& initial, std::size_t threads,
                                 std::size_t rounds, bool use_barrier, EdgeRule rule) {
  require(threads >= 1, "need at least one thread");
  require(threads <= initial.rows(), "more threads than grid bands");

  Grid cur = initial;
  Grid next(initial.rows(), initial.cols());
  const std::vector<parallel::GridRegion> regions = parallel::grid_partition(
      initial.rows(), initial.cols(), threads, parallel::GridSplit::Horizontal);

  // Main (trace thread 0) forks one worker per band, like the
  // ThreadTeam in ParallelLife::run.
  ops.fork_workers(threads);

  const std::size_t rows = cur.rows();
  for (std::size_t round = 0; round < rounds; ++round) {
    // Compute phase: thread t reads its band plus a one-row halo from
    // the current grid and writes its band of the next grid.
    for (std::size_t t = 0; t < threads; ++t) {
      const parallel::GridRegion& region = regions[t];
      const std::int64_t lo = static_cast<std::int64_t>(region.rows.begin) - 1;
      const std::int64_t hi = static_cast<std::int64_t>(region.rows.end);  // inclusive halo
      for (std::int64_t rr = lo; rr <= hi; ++rr) {
        std::int64_t row = rr;
        if (rule == EdgeRule::Torus) {
          row = (rr + static_cast<std::int64_t>(rows)) % static_cast<std::int64_t>(rows);
        } else if (rr < 0 || rr >= static_cast<std::int64_t>(rows)) {
          continue;
        }
        ops.read_cur_row(t, static_cast<std::size_t>(row));
      }
      for (std::size_t r = region.rows.begin; r < region.rows.end; ++r) {
        ops.write_next_row(t, r);
      }
      step_region(cur, next, region, rule);
      ops.band_done();
    }

    if (use_barrier) ops.barrier();

    // Serial thread publishes the new generation: the swap rebinds every
    // cell of both grids, so it is a write to all of them.
    for (std::size_t r = 0; r < rows; ++r) ops.swap_row(r);
    ops.swap_done();
    std::swap(cur, next);

    if (use_barrier) ops.barrier();
  }

  ops.join_workers();
  return ops.finish(std::move(cur));
}

}  // namespace

TracedLifeResult traced_life_check(const Grid& initial, std::size_t threads,
                                   std::size_t rounds, bool use_barrier, EdgeRule rule) {
  return traced_life_check(initial, threads, rounds,
                           TracedLifeOptions{.use_barrier = use_barrier, .rule = rule});
}

TracedLifeResult traced_life_check(const Grid& initial, std::size_t threads,
                                   std::size_t rounds, const TracedLifeOptions& options) {
  trace::TraceContext::Options ctx_options;
  ctx_options.sample_access_events = options.sample_rate;
  ctx_options.own_detector = options.pipeline == nullptr;
  trace::TraceContext ctx(ctx_options);
  if (options.pipeline != nullptr) ctx.attach_pipeline(*options.pipeline);
  ReplayOps ops(ctx, options.pipeline == nullptr ? &ctx.detector() : nullptr,
                options.pipeline, initial.rows(), initial.cols());
  return traced_life_run(ops, initial, threads, rounds, options.use_barrier, options.rule);
}

TracedLifeResult traced_life_check_with(race::EventSink& sink, const Grid& initial,
                                        std::size_t threads, std::size_t rounds,
                                        bool use_barrier, EdgeRule rule) {
  trace::TraceContext ctx(trace::TraceContext::Options{.own_detector = false});
  ctx.attach_sink(sink);
  ReplayOps ops(ctx, &sink, nullptr, initial.rows(), initial.cols());
  return traced_life_run(ops, initial, threads, rounds, use_barrier, rule);
}

}  // namespace cs31::life
