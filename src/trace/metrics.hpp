// A perf/metrics EventSink: consumes the same drained stream as the
// race detectors but counts instead of checking — per-thread event
// mix (reads/writes/sync operations) and per-lock acquire counts as a
// contention proxy. Attach it next to a Detector on one TraceContext
// and a single traced run yields both a race certificate and a
// contention profile. Like every EventSink it takes events by id; it
// keeps only lock names, so interning any other name returns id 0.
//
// Like every sink it has one owner (see race::EventSink): the counters
// are plain integers, bumped by the one thread feeding the sink and
// read once that feed is quiescent (after a flush).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

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
  [[nodiscard]] std::uint64_t events() const override { return events_; }
  [[nodiscard]] std::size_t threads() const override { return rows_.size(); }
  [[nodiscard]] std::size_t shadow_bytes() const override;
  [[nodiscard]] std::string summary() const override;

  // --- metrics ---
  /// One row per registered thread, indexed by thread id.
  [[nodiscard]] const std::vector<ThreadMetrics>& per_thread() const { return rows_; }
  /// (lock name, acquire count), by first-acquire order — the hotter a
  /// lock, the more serialization it imposes.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> lock_acquires() const;
  [[nodiscard]] std::uint64_t barrier_cycles() const { return barrier_cycles_; }

 private:
  /// The row for `t`; throws cs31::Error on an unregistered id.
  [[nodiscard]] ThreadMetrics& row(race::ThreadId t);

  std::vector<ThreadMetrics> rows_;  // by thread id
  std::uint64_t events_ = 0;
  race::Interner lock_names_;
  std::vector<std::uint64_t> lock_acquires_;  // by lock id
  std::uint64_t barrier_cycles_ = 0;
};

}  // namespace cs31::trace
