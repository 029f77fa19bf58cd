// Synchronization primitives in the pthreads style CS 31 teaches: a
// counting Barrier and a bounded-buffer producer/consumer queue built
// from mutexes and condition variables (not std::barrier — the point is
// the construction students learn), plus the shared-counter apparatus
// used to demonstrate data races, critical sections, and atomic fixes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "race/detector.hpp"
#include "trace/context.hpp"

namespace cs31::parallel {

/// Cyclic barrier with pthread_barrier_wait semantics: every cycle,
/// exactly one waiter is told it was the "serial thread" (the last to
/// arrive), mirroring PTHREAD_BARRIER_SERIAL_THREAD.
class Barrier {
 public:
  /// Throws cs31::Error when count == 0.
  explicit Barrier(std::size_t count);

  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  /// Block until `count` threads have arrived. Returns true for the
  /// last arriver of this cycle.
  bool wait();

  /// Completed cycles so far (each round of a parallel simulation).
  [[nodiscard]] std::uint64_t cycles() const;

  /// Report each completed cycle to a trace context as a happens-before
  /// edge among that cycle's waiters, and drain their buffers (every
  /// waiter is blocked in the barrier while the last arriver drains, so
  /// a barrier is a natural bounded-memory drain point). Every thread
  /// that calls wait() must be bound to `ctx` (e.g. spawned by a traced
  /// ThreadTeam). Attach before the first wait().
  ///
  /// `report_edges = false` is the "forgotten barrier" teaching mode:
  /// the real barrier still runs (the execution stays well-defined) but
  /// the happens-before edge is withheld from the sinks, so the
  /// detector sees — deterministically — exactly the races the program
  /// would have without the barrier.
  ///
  /// If the tracer throws while the last arriver records a cycle (say,
  /// a waiter's trace id was already retired), that arriver's wait()
  /// rethrows, the other waiters still leave the cycle, and the barrier
  /// stays usable for the next one.
  void attach_tracer(trace::TraceContext& ctx, bool report_edges = true);

 private:
  const std::size_t count_;
  std::size_t arrived_ = 0;
  std::uint64_t generation_ = 0;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  trace::TraceContext* tracer_ = nullptr;
  bool report_edges_ = true;
  std::vector<trace::ThreadId> cycle_waiters_;
};

/// The lecture's shared-counter race demonstration: N threads each
/// increment a counter `per_thread` times, with a selectable protection
/// strategy. `run()` reports the final value so callers can observe the
/// lost updates of the unsynchronized version.
class SharedCounter {
 public:
  enum class Mode {
    Unsynchronized,  ///< read-modify-write race (torn updates likely)
    MutexPerIncrement,
    Atomic,
    LocalThenMerge,  ///< per-thread partial counts merged under one lock
  };

  /// Run the experiment with real threads. Returns the final counter.
  ///
  /// Guarantees (and the only safe assertions to make about them):
  /// a correct mode always returns exactly threads * per_thread; the
  /// Unsynchronized mode is only *bounded above* by that — lost updates
  /// can drive the result arbitrarily low (even below per_thread: a
  /// stale read can erase whole stretches of other threads' work), and
  /// on a fast or single-core machine it can coincidentally be exact.
  /// That statistical flakiness is why the race detector exists: use
  /// run_traced() to get a deterministic verdict instead of eyeballing
  /// the lost updates.
  static std::uint64_t run(Mode mode, unsigned threads, std::uint64_t per_thread);

  /// run() with `detect_races` semantics: execute the same experiment
  /// through the cs31::trace capture layer and return the detector's
  /// verdict alongside the count. Detection is deterministic — it
  /// depends on the happens-before structure of the mode, not on the
  /// scheduler — so Unsynchronized is *always* flagged (with both
  /// access sites) and the synchronized modes are always race-free.
  struct TracedRun {
    std::uint64_t value = 0;
    bool race_detected = false;
    std::vector<race::RaceReport> races;
    std::string report;  ///< human-readable detector summary
  };
  static TracedRun run_traced(Mode mode, unsigned threads, std::uint64_t per_thread);
};

/// Bounded buffer (the producer/consumer problem that closes the CS 31
/// parallelism module), built from one mutex and two condition
/// variables. Blocking counts are tracked so experiments can report
/// contention (E9).
class BoundedBuffer {
 public:
  /// Throws cs31::Error when capacity == 0.
  explicit BoundedBuffer(std::size_t capacity);

  BoundedBuffer(const BoundedBuffer&) = delete;
  BoundedBuffer& operator=(const BoundedBuffer&) = delete;

  /// Block while full, then enqueue.
  void put(std::int64_t item);

  /// Block while empty, then dequeue.
  [[nodiscard]] std::int64_t get();

  /// Nonblocking variants; nullopt/false when the buffer is empty/full.
  bool try_put(std::int64_t item);
  [[nodiscard]] std::optional<std::int64_t> try_get();

  /// Close the buffer: blocked and future get() calls drain remaining
  /// items, then return nullopt via get_until_closed().
  void close();

  /// Blocking get that returns nullopt once the buffer is closed and
  /// drained — the consumer-loop idiom.
  [[nodiscard]] std::optional<std::int64_t> get_until_closed();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t producer_blocks() const { return producer_blocks_.load(); }
  [[nodiscard]] std::uint64_t consumer_blocks() const { return consumer_blocks_.load(); }

  /// Report puts/gets to a trace context as channel send/recv events,
  /// mirroring the happens-before edge the buffer's internal mutex
  /// really provides (a producer's work before put() is visible to any
  /// consumer after the matching get()). Every thread using the buffer
  /// must be bound to `ctx`.
  ///
  /// Precision is per *slot*, not per buffer: ring slot `s` is the
  /// channel "name[s]", so a recv is ordered only after the sends that
  /// went through the same slot — the put that produced this item and
  /// earlier occupants of its slot, not every put ever. A misused
  /// buffer (consumer reads an item the producer never published
  /// through the buffer) is then localized to the exact item instead of
  /// being hidden behind one conservative whole-buffer clock. close()
  /// publishes on the dedicated "name[closed]" channel.
  void attach_tracer(trace::TraceContext& ctx, std::string channel_name);

 private:
  const std::size_t capacity_;
  std::vector<std::int64_t> ring_;
  std::size_t head_ = 0, tail_ = 0, count_ = 0;
  bool closed_ = false;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::atomic<std::uint64_t> producer_blocks_{0};
  std::atomic<std::uint64_t> consumer_blocks_{0};
  trace::TraceContext* tracer_ = nullptr;
  std::string channel_name_;
  std::vector<trace::NameId> slot_channels_;  ///< "name[s]" per ring slot
  trace::NameId close_channel_ = 0;
};

}  // namespace cs31::parallel
