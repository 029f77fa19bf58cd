// The replay's context set-up and verdict harvest. The round itself is
// ParallelLife's (life.cpp): ParallelLife::replay drives the same compute
// and swap phases run() does, from this one OS thread.
#include "life/traced.hpp"

#include <utility>

#include "parallel/threads.hpp"
#include "trace/context.hpp"
#include "trace/pipeline.hpp"

namespace cs31::life {

/// ParallelLife's friend: replays `rounds` generations over `threads`
/// horizontal bands through `ctx`, then reads the verdict from
/// `verdict`, or from options.pipeline when `verdict` is null.
struct LifeReplay {
  static TracedLifeResult run(trace::TraceContext& ctx, const race::EventSink* verdict,
                              const Grid& initial, std::size_t threads, std::size_t rounds,
                              const TracedLifeOptions& options) {
    ParallelLife life(initial, threads, parallel::GridSplit::Horizontal, options.rule);
    Grid grid = std::move(life).replay(ctx, rounds, options.use_barrier);
    ctx.flush();  // with a pipeline attached this also waits for idle
    if (verdict == nullptr) {
      const trace::AnalysisPipeline& pipeline = *options.pipeline;
      return TracedLifeResult{std::move(grid),         pipeline.race_free(),
                              pipeline.races(),        pipeline.events(),
                              ctx.events_sampled_out(), pipeline.race_count(),
                              pipeline.threads()};
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
  return LifeReplay::run(ctx, options.pipeline == nullptr ? &ctx.detector() : nullptr,
                         initial, threads, rounds, options);
}

TracedLifeResult traced_life_check_with(race::EventSink& sink, const Grid& initial,
                                        std::size_t threads, std::size_t rounds,
                                        bool use_barrier, EdgeRule rule) {
  trace::TraceContext ctx(trace::TraceContext::Options{.own_detector = false});
  ctx.attach_sink(sink);
  return LifeReplay::run(ctx, &sink, initial, threads, rounds,
                         TracedLifeOptions{.use_barrier = use_barrier, .rule = rule});
}

}  // namespace cs31::life
