// The replay's two feeds and its verdict harvest. The round itself is
// ParallelLife's (life.cpp): ParallelLife::replay drives the same compute
// and swap phases run() does, from this one OS thread.
#include "life/traced.hpp"

#include <ranges>
#include <utility>

#include "common/error.hpp"
#include "parallel/threads.hpp"
#include "trace/context.hpp"
#include "trace/pipeline.hpp"

namespace cs31::life {

// --- SinkFeed -------------------------------------------------------------

SinkFeed::SinkFeed(race::EventSink& sink, std::shared_ptr<race::NameTables> names)
    : names_(std::move(names)), binding_(sink, names_) {}

trace::NameId SinkFeed::reserve_vars(std::size_t count, race::NameFormat format) {
  return names_->reserve(race::NameKind::Var, count, std::move(format));
}

trace::NameId SinkFeed::intern_site(std::string_view label) {
  return names_->intern(race::NameKind::Site, label);
}

// A detector that shares the feed's tables takes every event as the
// round emits it: it is fresh, so its thread ids are the feed's, and
// forks, barrier cycles and joins need no translation either. Any other
// sink gets each event through the binding.

trace::ThreadId SinkFeed::fork_thread(trace::ThreadId parent) {
  if (binding_.shared != nullptr) return binding_.shared->fork(parent);
  const trace::ThreadId child = threads_++;
  dispatch(trace::Event{trace::EventKind::Fork, parent, child});
  return child;
}

void SinkFeed::accesses_as(trace::ThreadId t, race::AccessKind kind, trace::NameId first,
                           std::size_t count, std::size_t stride, trace::NameId site) {
  const auto id = [first, stride](std::size_t k) {
    return static_cast<trace::NameId>(first + k * stride);
  };
  if (binding_.shared != nullptr) {
    const auto steps = std::views::iota(std::size_t{0}, count);
    binding_.shared->check_accesses(steps.begin(), steps.end(), [&](std::size_t k) {
      return race::Detector::Access{t, kind, id(k), site};
    });
    return;
  }
  const trace::EventKind event =
      kind == race::AccessKind::Read ? trace::EventKind::Read : trace::EventKind::Write;
  for (std::size_t k = 0; k < count; ++k) dispatch(trace::Event{event, t, id(k), site});
}

void SinkFeed::barrier_cycle(const std::vector<trace::ThreadId>& waiters) {
  if (binding_.shared != nullptr) {
    binding_.shared->barrier(waiters);
    return;
  }
  require(!waiters.empty(), "barrier cycle needs at least one waiter");
  if (waiter_sets_.empty() || waiter_sets_.back() != waiters) waiter_sets_.push_back(waiters);
  dispatch(trace::Event{trace::EventKind::BarrierCycle, waiters.front(),
                        static_cast<trace::NameId>(waiter_sets_.size() - 1)});
}

void SinkFeed::join_threads(trace::ThreadId parent,
                            const std::vector<trace::ThreadId>& children) {
  for (const trace::ThreadId child : children) {
    if (binding_.shared != nullptr) {
      binding_.shared->join(parent, child);
    } else {
      dispatch(trace::Event{trace::EventKind::Join, parent, child});
    }
  }
}

// --- the replay -----------------------------------------------------------

/// ParallelLife's friend: replays `rounds` generations over `threads`
/// horizontal bands through `feed`, and reads the verdict.
struct LifeReplay {
  template <class Feed>
  static Grid replay(Feed& feed, const Grid& initial, std::size_t threads, std::size_t rounds,
                     const TracedLifeOptions& options) {
    ParallelLife life(initial, threads, parallel::GridSplit::Horizontal, options.rule);
    Grid grid = std::move(life).replay(feed, rounds, options.use_barrier);
    feed.flush();  // with a pipeline attached this also waits for idle
    return grid;
  }

  /// The verdict of `sink`, fed the whole replay. No report is built
  /// here: the built-in detector hands over its compact records, a
  /// foreign sink its finished reports.
  static TracedLifeResult verdict(Grid grid, const race::EventSink& sink,
                                  std::uint64_t sampled_out) {
    const auto* detector = dynamic_cast<const race::Detector*>(&sink);
    return TracedLifeResult{
        std::move(grid),
        sink.race_free(),
        detector != nullptr ? detector->race_list() : race::RaceList(sink.races()),
        sink.events(),
        sampled_out,
        sink.race_count(),
        sink.threads()};
  }

  /// The replay through a SinkFeed over `sink`.
  static TracedLifeResult direct(race::EventSink& sink,
                                 const std::shared_ptr<race::NameTables>& names,
                                 const Grid& initial, std::size_t threads, std::size_t rounds,
                                 const TracedLifeOptions& options) {
    SinkFeed feed(sink, names);
    Grid grid = replay(feed, initial, threads, rounds, options);
    return verdict(std::move(grid), sink, 0);
  }

  /// The replay through a TraceContext: sampling capture, and the
  /// pipeline when options.pipeline is set (else the context's own
  /// detector).
  static TracedLifeResult captured(const Grid& initial, std::size_t threads,
                                   std::size_t rounds, const TracedLifeOptions& options) {
    trace::TraceContext::Options ctx_options;
    ctx_options.sample_access_events = options.sample_rate;
    ctx_options.own_detector = options.pipeline == nullptr;
    trace::TraceContext ctx(ctx_options);
    if (options.pipeline != nullptr) ctx.attach_pipeline(*options.pipeline);
    Grid grid = replay(ctx, initial, threads, rounds, options);
    if (options.pipeline == nullptr) {
      return verdict(std::move(grid), ctx.detector(), ctx.events_sampled_out());
    }
    const trace::AnalysisPipeline& pipeline = *options.pipeline;
    return TracedLifeResult{std::move(grid),          pipeline.race_free(),
                            pipeline.races(),         pipeline.events(),
                            ctx.events_sampled_out(), pipeline.race_count(),
                            pipeline.threads()};
  }
};

TracedLifeResult traced_life_check(const Grid& initial, std::size_t threads,
                                   std::size_t rounds, bool use_barrier, EdgeRule rule) {
  return traced_life_check(initial, threads, rounds,
                           TracedLifeOptions{.use_barrier = use_barrier, .rule = rule});
}

TracedLifeResult traced_life_check(const Grid& initial, std::size_t threads,
                                   std::size_t rounds, const TracedLifeOptions& options) {
  // Any rate but exactly 1 (an invalid one too, which the context
  // rejects) needs the context's sampling capture.
  if (options.pipeline != nullptr || options.sample_rate != 1.0) {
    return LifeReplay::captured(initial, threads, rounds, options);
  }
  auto names = std::make_shared<race::NameTables>();
  race::Detector detector(names);
  return LifeReplay::direct(detector, names, initial, threads, rounds, options);
}

TracedLifeResult traced_life_check_with(race::EventSink& sink, const Grid& initial,
                                        std::size_t threads, std::size_t rounds,
                                        bool use_barrier, EdgeRule rule) {
  return LifeReplay::direct(sink, std::make_shared<race::NameTables>(), initial, threads,
                            rounds, TracedLifeOptions{.use_barrier = use_barrier, .rule = rule});
}

}  // namespace cs31::life
