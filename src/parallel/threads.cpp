#include "parallel/threads.hpp"

#include "common/error.hpp"

namespace cs31::parallel {

std::vector<Range> block_partition(std::size_t n, std::size_t parts) {
  require(parts >= 1, "partition needs at least one part");
  std::vector<Range> ranges;
  ranges.reserve(parts);
  const std::size_t base = n / parts;
  const std::size_t extra = n % parts;
  std::size_t begin = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    const std::size_t len = base + (p < extra ? 1 : 0);
    ranges.push_back(Range{begin, begin + len});
    begin += len;
  }
  return ranges;
}

std::vector<GridRegion> grid_partition(std::size_t rows, std::size_t cols,
                                       std::size_t parts, GridSplit split) {
  std::vector<GridRegion> regions;
  regions.reserve(parts);
  if (split == GridSplit::Horizontal) {
    for (const Range& r : block_partition(rows, parts)) {
      regions.push_back(GridRegion{r, Range{0, cols}});
    }
  } else {
    for (const Range& c : block_partition(cols, parts)) {
      regions.push_back(GridRegion{Range{0, rows}, c});
    }
  }
  return regions;
}

ThreadTeam::ThreadTeam(std::size_t count, const std::function<void(std::size_t)>& body) {
  require(count >= 1, "thread team needs at least one thread");
  workers_.reserve(count);
  for (std::size_t t = 0; t < count; ++t) {
    workers_.emplace_back(body, t);
  }
}

ThreadTeam::ThreadTeam(std::size_t count, trace::TraceContext& ctx,
                       const std::function<void(std::size_t)>& body)
    : tracer_(&ctx) {
  require(count >= 1, "thread team needs at least one thread");
  // Fork edges first (parent's clock flows to each child), then spawn;
  // each worker binds its OS thread to its trace id before the body.
  traced_ids_.reserve(count);
  for (std::size_t t = 0; t < count; ++t) traced_ids_.push_back(ctx.on_thread_create());
  // The parent typically blocks in join() from here; parking it lets
  // the workers' barrier drains dispatch each cycle instead of pooling
  // behind the idle parent's watermark. It parks before any worker
  // starts, so no worker's first drain can race the park: which drains
  // dispatch, and so drains(), does not depend on thread start-up
  // timing. A parent that does capture again (e.g. as a consumer of a
  // traced BoundedBuffer) un-parks on its first access.
  ctx.park_self();
  workers_.reserve(count);
  for (std::size_t t = 0; t < count; ++t) {
    workers_.emplace_back([&ctx, body, t, tid = traced_ids_[t]] {
      ctx.bind_self(tid);
      body(t);
    });
  }
}

ThreadTeam::~ThreadTeam() { join(); }

void ThreadTeam::join() {
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  if (tracer_ != nullptr && !trace_joined_) {
    trace_joined_ = true;  // join edges once, matching the real joins
    // Joins are recorded in worker order by this (single) thread, so
    // the drained stream is schedule-independent; one team join drains
    // every worker's buffer at once.
    tracer_->on_team_join(traced_ids_);
  }
}

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(Range, std::size_t)>& body,
                  trace::TraceContext* ctx) {
  require(threads >= 1, "parallel_for needs at least one thread");
  const std::vector<Range> ranges = block_partition(n, threads);
  if (ctx == nullptr) {
    ThreadTeam team(threads, [&](std::size_t t) { body(ranges[t], t); });
    team.join();
    return;
  }
  ThreadTeam team(threads, *ctx, [&](std::size_t t) { body(ranges[t], t); });
  team.join();
}

}  // namespace cs31::parallel
