#include "trace/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include <pthread.h>
#include <sched.h>

#include "common/error.hpp"

namespace cs31::trace {

namespace {

/// Put a pipeline thread in the idle scheduling class (`background`)
/// or back in the normal one, where the platform has an idle class
/// (Linux SCHED_IDLE). Best effort: a refused call leaves the thread's
/// class as it was, which only costs the traced program some overlap.
void set_background(std::thread& thread, bool background) {
#if defined(__linux__) && defined(SCHED_IDLE)
  sched_param param{};
  param.sched_priority = 0;
  (void)pthread_setschedparam(thread.native_handle(), background ? SCHED_IDLE : SCHED_OTHER,
                              &param);
#else
  (void)thread;
  (void)background;
#endif
}

}  // namespace

// The topology: one bounded batch queue into the router, one bounded
// chunk queue per shard (common/bounded_queue.hpp).

AnalysisPipeline::AnalysisPipeline(Options options)
    : options_(options), names_(std::make_shared<race::NameTables>()) {
  require(options_.shards >= 1, "analysis pipeline needs at least one shard");
  require(options_.queue_capacity >= 1, "analysis pipeline queue capacity must be >= 1");
  batches_.capacity = options_.queue_capacity;
  shards_.reserve(options_.shards);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(options_.queue_capacity, names_));
    shards_.back()->stats.shard = s;
  }
  // One shard needs no fan-out, so the router analyzes its chunks
  // itself: a thread and a queue hop fewer per batch.
  if (shards_.size() > 1) {
    for (auto& shard : shards_) {
      Shard* s = shard.get();
      shard->worker = std::thread([this, s] { shard_main(*s); });
    }
  }
  router_ = std::thread([this] { router_main(); });
  set_threads_background(true);
}

void AnalysisPipeline::set_threads_background(bool background) {
  // While nobody waits for results, analysis is background work: the
  // traced program's threads preempt it whenever they wake, so it runs
  // on CPU time the program leaves idle instead of stretching its
  // barrier rounds (the idle class still gets a small share of a busy
  // CPU, and a full queue blocks the publisher, so it never stalls for
  // good). A caller waiting in wait_idle() or the destructor is blocked
  // on the pipeline, so the threads run at normal priority until then.
  set_background(router_, background);
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) set_background(shard->worker, background);
  }
}

AnalysisPipeline::~AnalysisPipeline() {
  // Graceful drain: closed queues still deliver what they hold, so
  // everything published before destruction is analyzed.
  {
    std::scoped_lock lock(priority_mutex_);
    set_threads_background(false);
  }
  batches_.close();
  if (router_.joinable()) router_.join();
  for (auto& shard : shards_) {
    shard->queue.close();
    if (shard->worker.joinable()) shard->worker.join();
  }
}

void AnalysisPipeline::publish(EventBatch batch) { batches_.push(std::move(batch)); }

void AnalysisPipeline::router_main() {
  EventBatch batch;
  while (batches_.pop(batch)) {
    // Every shard shares the events; the last one done with them hands
    // the vector back for reuse. Each shard gets the positions of its
    // slice: sync events are broadcast — every shard advances the same
    // happens-before state an inline detector would hold — and each
    // access goes to the one shard that owns its variable's shadow
    // state.
    require(batch.events.size() <= ~std::uint32_t{0}, "analysis pipeline: batch too large");
    const auto events = std::shared_ptr<std::vector<Event>>(
        new std::vector<Event>(std::move(batch.events)), [this](std::vector<Event>* spent) {
          recycle(std::move(*spent));
          delete spent;
        });
    const std::size_t shards = shards_.size();
    std::vector<std::vector<std::uint32_t>> positions(shards);
    for (std::uint32_t i = 0; i < events->size(); ++i) {
      const Event& event = (*events)[i];
      if (is_sync(event.kind)) {
        for (auto& slice : positions) slice.push_back(i);
      } else {
        positions[shards == 1 ? 0 : event.id % shards].push_back(i);
      }
    }
    for (std::size_t s = 0; s < shards; ++s) {
      ShardChunk chunk{events, std::move(positions[s]), next_index_ + 1,
                       batch.new_waiter_sets};
      if (shards == 1) {
        analyze(*shards_[s], chunk);
      } else {
        shards_[s]->queue.push(std::move(chunk));
      }
    }
    next_index_ += events->size();
    batch = EventBatch{};
    batches_.done();
  }
}

void AnalysisPipeline::recycle(std::vector<Event>&& events) {
  events.clear();
  std::scoped_lock lock(spare_mutex_);
  if (spare_.size() < options_.queue_capacity) spare_.push_back(std::move(events));
}

std::vector<Event> AnalysisPipeline::spare_events() {
  std::scoped_lock lock(spare_mutex_);
  if (spare_.empty()) return {};
  std::vector<Event> events = std::move(spare_.back());
  spare_.pop_back();
  return events;
}

void AnalysisPipeline::shard_main(Shard& shard) {
  ShardChunk chunk;
  while (shard.queue.pop(chunk)) {
    analyze(shard, chunk);
    chunk = ShardChunk{};
    shard.queue.done();
  }
}

void AnalysisPipeline::analyze(Shard& shard, const ShardChunk& chunk) {
  const auto begin = std::chrono::steady_clock::now();
  shard.waiter_sets.insert(shard.waiter_sets.end(), chunk.new_waiter_sets.begin(),
                           chunk.new_waiter_sets.end());
  const std::vector<Event>& events = *chunk.events;
  const std::uint32_t* position = chunk.positions.data();
  const std::uint32_t* const end = position + chunk.positions.size();
  while (position != end) {
    if (is_sync(events[*position].kind)) {
      // Pin the event clock to the event's place in the whole stream,
      // then apply it as the context's dispatch would.
      shard.detector.set_event_clock(chunk.first_index + *position - 1);
      shard.binding.dispatch(events[*position], *names_, shard.waiter_sets);
      ++shard.stats.sync_events;
      ++position;
      continue;
    }
    // This shard's accesses up to the next sync: one detector call for
    // all of them, each numbered by its place in the whole stream, so
    // this shard's AccessSite.event values — and therefore its reports
    // — match what an inline detector seeing the whole stream records.
    const std::uint32_t* run_end = position + 1;
    while (run_end != end && !is_sync(events[*run_end].kind)) ++run_end;
    shard.detector.check_accesses(position, run_end, [&](std::uint32_t p) {
      return shard.binding.access(events[p], chunk.first_index + p);
    });
    shard.stats.access_events += static_cast<std::uint64_t>(run_end - position);
    position = run_end;
  }
  ++shard.stats.chunks;
  shard.stats.busy_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
}

void AnalysisPipeline::wait_idle() {
  {
    std::scoped_lock lock(priority_mutex_);
    if (idle_waiters_++ == 0) set_threads_background(false);
  }
  // Stage order matters: once the batch queue is drained the router has
  // pushed every chunk, so draining each shard queue afterwards proves
  // every published event was analyzed.
  batches_.wait_drained();
  for (auto& shard : shards_) shard->queue.wait_drained();
  std::scoped_lock lock(priority_mutex_);
  if (--idle_waiters_ == 0) set_threads_background(true);
}

race::RaceList AnalysisPipeline::races() const {
  std::vector<race::RaceList> per_shard;
  per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) per_shard.push_back(shard->detector.race_list());
  return race::RaceList::merge_shards(per_shard);
}

bool AnalysisPipeline::race_free() const {
  for (const auto& shard : shards_) {
    if (!shard->detector.race_free()) return false;
  }
  return true;
}

std::uint64_t AnalysisPipeline::race_count() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->detector.race_count();
  return total;
}

std::uint64_t AnalysisPipeline::events() const { return next_index_; }

std::string AnalysisPipeline::summary() const {
  return race::summarize_races(races(), race_count(), events(), threads());
}

std::vector<ShardStats> AnalysisPipeline::shard_stats() const {
  std::vector<ShardStats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) stats.push_back(shard->stats);
  return stats;
}

std::uint64_t AnalysisPipeline::publish_waits() const {
  std::uint64_t total = 0;
  {
    std::scoped_lock lock(batches_.mutex);
    total += batches_.waits;
  }
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard->queue.mutex);
    total += shard->queue.waits;
  }
  return total;
}

std::uint64_t AnalysisPipeline::batch_high_water() const {
  std::scoped_lock lock(batches_.mutex);
  return batches_.high_water;
}

}  // namespace cs31::trace
