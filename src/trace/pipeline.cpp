#include "trace/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/error.hpp"

namespace cs31::trace {

// The backpressure primitive lives in common/bounded_queue.hpp now
// (grader's worker queues share it); the pipeline only wires
// the topology: one batch queue into the router, one chunk queue per
// shard.

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
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    shard->worker = std::thread([this, s] { shard_main(*s); });
  }
  router_ = std::thread([this] { router_main(); });
}

AnalysisPipeline::~AnalysisPipeline() {
  // Graceful drain: closed queues still deliver what they hold, so
  // everything published before destruction is analyzed.
  batches_.close();
  if (router_.joinable()) router_.join();
  for (auto& shard : shards_) {
    shard->queue.close();
    if (shard->worker.joinable()) shard->worker.join();
  }
}

void AnalysisPipeline::attach_metrics(MetricsSink& sink) {
  std::scoped_lock lock(merge_mutex_);
  require(metrics_sink_ == nullptr, "analysis pipeline already has a metrics sink");
  metrics_sink_ = &sink;
}

void AnalysisPipeline::publish(EventBatch batch) { batches_.push(std::move(batch)); }

void AnalysisPipeline::router_main() {
  EventBatch batch;
  std::vector<ShardChunk> staging(shards_.size());
  while (batches_.pop(batch)) {
    // Names go into the shared tables before any event that uses them
    // reaches a shard; waiter sets to every shard (each keeps a private
    // copy) and to the router's own metrics tables.
    const auto intern_all = [this](race::NameKind kind,
                                   const std::vector<std::string>& delta) {
      for (const std::string& name : delta) {
        const std::size_t expected = names_->size(kind);
        require(names_->intern(kind, name) == expected,
                "analysis pipeline: batch name delta out of id order");
      }
    };
    intern_all(race::NameKind::Var, batch.new_vars);
    intern_all(race::NameKind::Lock, batch.new_locks);
    intern_all(race::NameKind::Channel, batch.new_channels);
    intern_all(race::NameKind::Site, batch.new_sites);
    lock_names_.insert(lock_names_.end(), batch.new_locks.begin(), batch.new_locks.end());
    waiter_sets_.insert(waiter_sets_.end(), batch.new_waiter_sets.begin(),
                        batch.new_waiter_sets.end());
    for (ShardChunk& chunk : staging) chunk.new_waiter_sets = batch.new_waiter_sets;
    for (const Event& event : batch.events) {
      const std::uint64_t index = ++next_index_;
      if (!is_sync(event.kind)) {
        // Access event: exactly one shard owns this variable's shadow
        // state. (Shard metrics count it, so nothing is counted twice.)
        staging[event.id % shards_.size()].events.push_back(StampedEvent{event, index});
        continue;
      }
      // Sync event: broadcast — every shard advances the same
      // happens-before state an inline detector would hold.
      for (ShardChunk& chunk : staging) chunk.events.push_back(StampedEvent{event, index});
      ++router_metrics_.events;
      switch (event.kind) {
        case EventKind::Acquire:
          // count_acquire bumps events itself; undo the generic bump.
          --router_metrics_.events;
          router_metrics_.count_acquire(event.thread, event.id);
          break;
        case EventKind::Release:
          ++router_metrics_.of(event.thread).releases;
          break;
        case EventKind::ChannelSend:
          ++router_metrics_.of(event.thread).sends;
          break;
        case EventKind::ChannelRecv:
          ++router_metrics_.of(event.thread).recvs;
          break;
        case EventKind::Fork:
          (void)router_metrics_.of(event.id);  // the child gets a row
          break;
        case EventKind::Join:
          break;
        case EventKind::BarrierCycle:
          for (const ThreadId w : waiter_sets_[event.id]) ++router_metrics_.of(w).barriers;
          ++router_metrics_.barrier_cycles;
          break;
        default:
          break;
      }
    }
    for (std::size_t s = 0; s < staging.size(); ++s) {
      ShardChunk& chunk = staging[s];
      if (chunk.events.empty() && chunk.new_waiter_sets.empty()) continue;
      shards_[s]->queue.push(std::move(chunk));
      staging[s] = ShardChunk{};
    }
    batch = EventBatch{};
    batches_.done();
  }
}

void AnalysisPipeline::shard_main(Shard& shard) {
  ShardChunk chunk;
  while (shard.queue.pop(chunk)) {
    const auto begin = std::chrono::steady_clock::now();
    shard.waiter_sets.insert(shard.waiter_sets.end(), chunk.new_waiter_sets.begin(),
                             chunk.new_waiter_sets.end());
    for (const StampedEvent& stamped : chunk.events) apply(shard, stamped);
    ++shard.stats.chunks;
    shard.stats.busy_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
    chunk = ShardChunk{};
    shard.queue.done();
  }
}

void AnalysisPipeline::apply(Shard& shard, const StampedEvent& stamped) {
  const Event& event = stamped.event;
  race::Detector& detector = shard.detector;
  // Pin the detector's event clock to the router's global numbering, so
  // this shard's AccessSite.event values — and therefore its reports —
  // match what an inline detector seeing the whole stream would record.
  detector.set_event_clock(stamped.index - 1);
  const ThreadId t = shard.tid_map[event.thread];
  switch (event.kind) {
    case EventKind::Read:
    case EventKind::Write: {
      if (event.kind == EventKind::Read) {
        detector.read(t, event.id, event.site);
        ++shard.metrics.of(event.thread).reads;
      } else {
        detector.write(t, event.id, event.site);
        ++shard.metrics.of(event.thread).writes;
      }
      ++shard.metrics.events;
      ++shard.stats.access_events;
      return;
    }
    case EventKind::Acquire:
    case EventKind::Release:
      if (event.kind == EventKind::Acquire) {
        detector.acquire(t, event.id);
      } else {
        detector.release(t, event.id);
      }
      break;
    case EventKind::ChannelSend:
    case EventKind::ChannelRecv:
      if (event.kind == EventKind::ChannelSend) {
        detector.channel_send(t, event.id);
      } else {
        detector.channel_recv(t, event.id);
      }
      break;
    case EventKind::Fork: {
      const ThreadId child = detector.fork(t);
      if (event.id >= shard.tid_map.size()) shard.tid_map.resize(event.id + 1, 0);
      shard.tid_map[event.id] = child;
      break;
    }
    case EventKind::Join:
      detector.join(t, shard.tid_map[event.id]);
      break;
    case EventKind::BarrierCycle: {
      const std::vector<ThreadId>& waiters = shard.waiter_sets[event.id];
      std::vector<ThreadId> mapped;
      mapped.reserve(waiters.size());
      for (const ThreadId w : waiters) mapped.push_back(shard.tid_map[w]);
      detector.barrier(mapped);
      break;
    }
  }
  ++shard.stats.sync_events;
}

void AnalysisPipeline::wait_idle() {
  // Stage order matters: once the batch queue is drained the router has
  // pushed every chunk, so draining each shard queue afterwards proves
  // every published event was analyzed.
  batches_.wait_drained();
  for (auto& shard : shards_) shard->queue.wait_drained();
  std::scoped_lock lock(merge_mutex_);
  merge_metrics_locked();
}

void AnalysisPipeline::merge_metrics_locked() {
  if (metrics_sink_ == nullptr) return;
  // The workers are idle (wait_idle just proved it), so their deltas
  // are stable; merging clears them so the next idle point only adds
  // what is new.
  if (!router_metrics_.empty()) {
    metrics_sink_->merge(router_metrics_, lock_names_);
    router_metrics_ = MetricsDelta{};
  }
  static const std::vector<std::string> kNoLocks;
  for (auto& shard : shards_) {
    if (shard->metrics.empty()) continue;
    metrics_sink_->merge(shard->metrics, kNoLocks);
    shard->metrics = MetricsDelta{};
  }
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
