// Off-critical-path race analysis. Inline sinks run on the *draining*
// thread — every Life worker sits blocked in the barrier while one
// thread replays the whole drained stream through every detector, so
// analysis cost lands squarely on the parallel hot path. An
// AnalysisPipeline moves that work off the path: a drain publishes its
// dispatched prefix as one EventBatch to a bounded MPSC queue and
// returns, shrinking the barrier stall to queue-publish cost. Behind
// the queue:
//
//   route  — a router thread pops batches in order, numbers their events
//            globally (each event's position in the inline dispatch
//            sequence) and hands every shard the whole batch, read-only:
//            sync events are BROADCAST — every shard applies them — and
//            access events are ROUTED by interned variable id
//            (var % shards) — exactly one shard applies each.
//   shard  — N workers, each owning a private race::Detector — a
//            disjoint slice of FastTrack shadow state. The detectors
//            share the pipeline's name tables, which the attached
//            context adopts and interns into, so there is one copy of
//            every name and shard ids are the context's ids. Each shard
//            applies its events through the context's own dispatch
//            (SinkBinding), as an inline detector on those tables would
//            receive them. Per-variable VarState makes the split exact;
//            thread/lock/channel vector clocks evolve only on the
//            broadcast sync stream, so every shard holds the same
//            happens-before state an inline detector would. The shards
//            share no mutable state but the locked, append-only name
//            tables. A single shard has nothing to fan out to, so the
//            router analyzes it itself: no worker thread, no chunk
//            queue hop.
//   merge  — per-shard races carry the router's global event numbers
//            (Detector::set_event_clock), so race::RaceList::merge_shards
//            reconstructs inline detection order exactly: reports,
//            race_count, events, and summary() are byte-identical to
//            inline mode for ANY shard count and ANY queue capacity.
//
// Backpressure: both the batch queue and the per-shard chunk queues are
// bounded; a publisher that finds its queue full BLOCKS until the
// consumer catches up, so buffer memory stays capped no matter how far
// analysis falls behind (publish_waits() counts how often that bit).
//
// Determinism contract: batches arrive in drain order (the publisher
// holds the context's stream mutex), the router consumes them FIFO, and
// each shard consumes its chunks FIFO — so every shard sees its slice
// of the one globally ordered stream in order, and the merge is a pure
// function of that stream. Queue capacities and thread scheduling can
// change *when* analysis happens, never its result.
//
// Lifetime: construct the pipeline BEFORE the TraceContext that feeds
// it (destruction then stops the workers after the context's last
// drain). A batch carries the events and the barrier waiter sets
// recorded since the previous publish (the one table that does not lock
// itself); names are already in the shared tables. Pipeline threads
// never call back into the context, and the tables outlive it.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.hpp"
#include "race/detector.hpp"
#include "trace/context.hpp"
#include "trace/event.hpp"

namespace cs31::trace {

/// One drain's dispatched prefix, in drain order, plus the barrier
/// waiter sets recorded since the last publish (an append-only table;
/// the delta is its new tail). Every id an event carries is in the
/// pipeline's name tables already.
struct EventBatch {
  std::vector<Event> events;
  std::vector<std::vector<ThreadId>> new_waiter_sets;
};

/// Per-shard throughput accounting, for the shard-scaling measurement
/// in bench_race_overhead: `busy_seconds` is time spent analyzing (not
/// blocked on the queue), so total events / max busy_seconds is the
/// pipeline's analysis capacity with this shard count.
struct ShardStats {
  std::size_t shard = 0;
  std::uint64_t access_events = 0;  ///< routed here exclusively
  std::uint64_t sync_events = 0;    ///< broadcast to every shard
  std::uint64_t chunks = 0;
  double busy_seconds = 0.0;
};

class AnalysisPipeline {
 public:
  struct Options {
    std::size_t shards = 2;         ///< analysis workers (>= 1)
    std::size_t queue_capacity = 8; ///< max pending batches/chunks per queue (>= 1)
  };

  AnalysisPipeline() : AnalysisPipeline(Options{}) {}
  explicit AnalysisPipeline(Options options);
  ~AnalysisPipeline();

  AnalysisPipeline(const AnalysisPipeline&) = delete;
  AnalysisPipeline& operator=(const AnalysisPipeline&) = delete;

  /// The one name table the shard detectors read; the attached context
  /// interns into it (TraceContext::attach_pipeline adopts it).
  [[nodiscard]] const std::shared_ptr<race::NameTables>& names() const { return names_; }

  // --- producer side (called by TraceContext) --------------------------

  /// Enqueue one drained batch. Blocks while the queue is full — the
  /// backpressure that caps memory. Order across publishers is the
  /// caller's job (TraceContext publishes under its stream mutex).
  void publish(EventBatch batch);

  /// An emptied event vector from an analyzed batch, capacity intact,
  /// or an empty one when none is spare. A publisher that fills it as
  /// its next batch reuses memory that is already mapped instead of
  /// faulting in fresh pages on the traced program's critical path.
  [[nodiscard]] std::vector<Event> spare_events();

  /// Block until every published event has been routed and analyzed.
  /// TraceContext::flush calls this, so the read-the-verdict rule is
  /// unchanged: flush, then read.
  void wait_idle();

  // --- results (valid while idle) --------------------------------------

  /// Merged races in inline detection order (see file comment); each
  /// report is built when the list is indexed.
  [[nodiscard]] race::RaceList races() const;
  [[nodiscard]] bool race_free() const;
  [[nodiscard]] std::uint64_t race_count() const;
  /// Total events routed — equals the inline detector's events().
  [[nodiscard]] std::uint64_t events() const;
  /// Detector threads (every shard registers the same ones).
  [[nodiscard]] std::size_t threads() const { return shards_.front()->detector.threads(); }
  /// Byte-identical to the inline Detector::summary() for the same run.
  [[nodiscard]] std::string summary() const;
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::vector<ShardStats> shard_stats() const;
  /// How often a publisher blocked on a full queue (batch + chunk).
  [[nodiscard]] std::uint64_t publish_waits() const;
  [[nodiscard]] std::uint64_t batch_high_water() const;

 private:
  /// What the router hands a shard: one batch's events, shared read-
  /// only by every shard, the positions of this shard's slice in it
  /// (every sync event, and the accesses to the variables it owns), the
  /// global number of the first event, and the waiter-set delta (each
  /// shard keeps a private copy — duplication buys zero sharing between
  /// analysis threads).
  struct ShardChunk {
    std::shared_ptr<std::vector<Event>> events;  ///< shards only read it
    std::vector<std::uint32_t> positions;
    std::uint64_t first_index = 0;  ///< 1-based global number of events->front()
    std::vector<std::vector<ThreadId>> new_waiter_sets;
  };

  struct Shard {
    Shard(std::size_t cap, const std::shared_ptr<race::NameTables>& names)
        : detector(names), binding(detector, names) {
      queue.capacity = cap;
    }
    common::BoundedQueue<ShardChunk> queue;
    std::thread worker;
    race::Detector detector;
    SinkBinding binding;  ///< the detector as a context would bind it
    std::vector<std::vector<ThreadId>> waiter_sets;
    ShardStats stats;
  };

  void router_main();
  /// Keep an analyzed batch's event vector for spare_events().
  void recycle(std::vector<Event>&& events);
  /// Scheduling class of every pipeline thread (see the definition).
  /// Caller holds priority_mutex_, or is the constructor.
  void set_threads_background(bool background);
  void shard_main(Shard& shard);
  /// Analyze one chunk on `shard`'s detector (the shard's worker, or
  /// the router itself when there is a single shard).
  void analyze(Shard& shard, const ShardChunk& chunk);

  const Options options_;
  /// Shared by the context and every shard detector (the tables lock
  /// themselves).
  const std::shared_ptr<race::NameTables> names_;
  common::BoundedQueue<EventBatch> batches_;
  std::thread router_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Router-owned (no lock needed: only the router thread touches it
  // while running; readers wait for idle first).
  std::uint64_t next_index_ = 0;

  /// Analyzed batches' event vectors, at most queue_capacity of them —
  /// no more memory than a full queue already holds.
  std::mutex spare_mutex_;
  std::vector<std::vector<Event>> spare_;

  /// wait_idle() callers in progress; the threads run at normal
  /// priority while there is one.
  std::mutex priority_mutex_;
  std::size_t idle_waiters_ = 0;
};

}  // namespace cs31::trace
