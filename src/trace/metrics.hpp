// A perf/metrics EventSink: consumes the same drained stream as the
// race detectors but counts instead of checking — per-thread event
// mix (reads/writes/sync operations) and per-lock acquire counts as a
// contention proxy. Attach it next to a Detector on one TraceContext
// and a single traced run yields both a race certificate and a
// contention profile. Like every EventSink it takes events by id; it
// keeps only lock names, so interning any other name returns id 0.
//
// Counting is lock-free on the per-event path: each thread's metrics
// row is a cache-line-aligned block of relaxed atomics living in
// chunked stable storage (rows never move once published), and the
// event total is a common::ShardedCounter. The sink's one mutex guards
// only structure — registering/forking threads, the lock names and the
// per-lock counts an acquire bumps, barrier-cycle bookkeeping, and
// readers — so a read/write/release/send/recv costs two uncontended
// fetch_adds, not a mutex round-trip per event. (The sink used to take its mutex on
// every event; with an inline drain racing a metrics poll, that lock
// was pure serialization for what is statistically-mergeable counting
// — exactly the per-CPU-counter case from McKenney ch. 5.)
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/sharded_counter.hpp"
#include "race/detector.hpp"
#include "race/interner.hpp"

namespace cs31::trace {

/// Event mix of one traced thread.
struct ThreadMetrics {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t acquires = 0;
  std::uint64_t releases = 0;
  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
  std::uint64_t barriers = 0;  ///< barrier cycles this thread waited in

  [[nodiscard]] std::uint64_t total() const {
    return reads + writes + acquires + releases + sends + recvs + barriers;
  }
};

class MetricsSink final : public race::EventSink {
 public:
  MetricsSink();
  ~MetricsSink() override;

  MetricsSink(const MetricsSink&) = delete;
  MetricsSink& operator=(const MetricsSink&) = delete;

  [[nodiscard]] race::ThreadId register_thread() override;
  [[nodiscard]] race::ThreadId fork(race::ThreadId parent) override;
  void join(race::ThreadId parent, race::ThreadId child) override;
  void barrier(const std::vector<race::ThreadId>& waiters) override;

  // Only lock names are kept (lock_acquires prints them); every
  // variable, channel and site is id 0. A lock is named by its first
  // interning, which on a TraceContext is its first acquire.
  [[nodiscard]] race::NameId intern_var(std::string_view name) override;
  [[nodiscard]] race::NameId intern_lock(std::string_view name) override;
  [[nodiscard]] race::NameId intern_channel(std::string_view name) override;
  [[nodiscard]] race::NameId intern_site(std::string_view label) override;
  void acquire(race::ThreadId t, race::NameId lock) override;
  void release(race::ThreadId t, race::NameId lock) override;
  void channel_send(race::ThreadId t, race::NameId channel) override;
  void channel_recv(race::ThreadId t, race::NameId channel) override;
  void read(race::ThreadId t, race::NameId var, race::NameId site) override;
  void write(race::ThreadId t, race::NameId var, race::NameId site) override;
  using EventSink::acquire, EventSink::release, EventSink::channel_send,
      EventSink::channel_recv, EventSink::read, EventSink::write;

  /// A metrics sink never reports races.
  [[nodiscard]] const std::vector<race::RaceReport>& races() const override;
  [[nodiscard]] bool race_free() const override { return true; }
  [[nodiscard]] std::uint64_t race_count() const override { return 0; }
  [[nodiscard]] std::uint64_t events() const override;
  [[nodiscard]] std::size_t threads() const override;
  [[nodiscard]] std::size_t shadow_bytes() const override;
  [[nodiscard]] std::string summary() const override;

  // --- metrics ---
  // Readers sum the atomics: exact once writers are quiescent (after a
  // flush / wait_idle); a read racing live counting may miss in-flight
  // increments but never double-counts — the ShardedCounter contract.
  [[nodiscard]] std::vector<ThreadMetrics> per_thread() const;
  /// (lock name, acquire count), by first-acquire order — the hotter a
  /// lock, the more serialization it imposes.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> lock_acquires() const;
  [[nodiscard]] std::uint64_t barrier_cycles() const;

 private:
  /// One thread's counters. Same layout cost as ThreadMetrics, but each
  /// field is independently updatable with a relaxed fetch_add, and the
  /// row is line-aligned so two threads' rows never share a cache line.
  struct alignas(64) AtomicThreadMetrics {
    std::atomic<std::uint64_t> reads{0}, writes{0}, acquires{0}, releases{0},
        sends{0}, recvs{0}, barriers{0};
  };
  static constexpr std::size_t kRowsPerChunk = 64;
  static constexpr std::size_t kMaxChunks = 1024;  ///< 64Ki threads
  struct Chunk {
    std::array<AtomicThreadMetrics, kRowsPerChunk> rows{};
  };

  /// The row for `t`; throws cs31::Error on an unregistered id. Safe
  /// without the mutex: a row is published (release) before the thread
  /// count that makes it addressable, and published chunks never move.
  [[nodiscard]] AtomicThreadMetrics& row(race::ThreadId t) const;
  [[nodiscard]] ThreadMetrics snapshot_row(race::ThreadId t) const;
  /// Ensure rows [0, count) exist and publish the new count. Caller
  /// holds mutex_.
  void grow_locked(std::size_t count);

  /// Guards structure only: thread registration, the lock names and
  /// counts, barrier bookkeeping, and multi-value readers. Never taken
  /// by read/write/release/send/recv.
  mutable std::mutex mutex_;
  std::atomic<std::size_t> thread_count_{0};
  std::array<std::atomic<Chunk*>, kMaxChunks> chunks_{};
  common::ShardedCounter events_;
  race::Interner lock_names_;
  std::vector<std::uint64_t> lock_acquires_;  // by lock id; guarded by mutex_
  std::uint64_t barrier_cycles_ = 0;          // guarded by mutex_
};

}  // namespace cs31::trace
