// ReferenceDetector — PR 1's full-vector-clock happens-before detector,
// kept verbatim as the executable specification that the compressed
// FastTrack detector (detector.hpp) is differentially fuzzed against.
//
// It is deliberately naive where Detector is clever: variables, locks,
// and channels are keyed by std::string in std::maps, every variable
// carries the full clock of its last write plus a per-thread read
// vector clock and a per-thread map of read sites, and access sites
// store their strings eagerly. That makes it slow and fat — and easy to
// believe. tests/race_diff_test.cpp drives thousands of seeded random
// traces through both detectors and asserts bit-identical verdicts;
// bench_race_overhead quantifies what the compression buys.
//
// The only behavioural change from PR 1 is shared with Detector: race
// reports deduplicate per (variable, site pair) — race_pair_key in
// detector.hpp — instead of per (variable, thread pair), so the two
// detectors' report sets are comparable key-for-key.
//
// Events arrive by id, as EventSink delivers them. A thin entry resolves
// each id through the detector's own name tables and runs the
// string-keyed algorithm on the names; those tables are not counted in
// shadow_bytes, which already counts every name in the maps keyed by it.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "race/detector.hpp"
#include "race/interner.hpp"
#include "race/vector_clock.hpp"

namespace cs31::race {

class ReferenceDetector final : public EventSink {
 public:
  ReferenceDetector();

  ReferenceDetector(const ReferenceDetector&) = delete;
  ReferenceDetector& operator=(const ReferenceDetector&) = delete;

  [[nodiscard]] ThreadId register_thread() override;
  [[nodiscard]] ThreadId fork(ThreadId parent) override;
  void join(ThreadId parent, ThreadId child) override;
  void barrier(const std::vector<ThreadId>& waiters) override;

  // The id entry: ids index this detector's own name tables, and each
  // event resolves its names before the string-keyed algorithm runs.
  [[nodiscard]] NameId intern_var(std::string_view name) override;
  [[nodiscard]] NameId intern_lock(std::string_view name) override;
  [[nodiscard]] NameId intern_channel(std::string_view name) override;
  [[nodiscard]] NameId intern_site(std::string_view label) override;
  void acquire(ThreadId t, NameId lock) override;
  void release(ThreadId t, NameId lock) override;
  void channel_send(ThreadId t, NameId channel) override;
  void channel_recv(ThreadId t, NameId channel) override;
  void read(ThreadId t, NameId var, NameId site) override;
  void write(ThreadId t, NameId var, NameId site) override;
  using EventSink::acquire, EventSink::release, EventSink::channel_send,
      EventSink::channel_recv, EventSink::read, EventSink::write;

  [[nodiscard]] const std::vector<RaceReport>& races() const override;
  [[nodiscard]] bool race_free() const override;
  [[nodiscard]] std::uint64_t race_count() const override;
  [[nodiscard]] std::uint64_t events() const override;
  [[nodiscard]] std::size_t threads() const override;
  [[nodiscard]] std::size_t shadow_bytes() const override;
  [[nodiscard]] std::string summary() const override;

 private:
  struct ThreadState {
    VectorClock vc;
    std::vector<std::string> held;  // lock names, acquisition order
  };

  /// Shadow state of one traced variable: the last write as an epoch
  /// PLUS its full clock, and a full per-thread read clock with full
  /// access sites — the uncompressed representation.
  struct VarState {
    bool has_write = false;
    Epoch write_epoch;            // last write as c@t
    AccessSite write_site;
    VectorClock write_vc;         // full clock of the last write
    VectorClock read_vc;          // per-thread clock of the last read
    std::map<ThreadId, AccessSite> read_sites;  // last read per thread
  };

  ThreadState& state(ThreadId t);
  void check_and_record(ThreadId t, const std::string& var, AccessKind kind,
                        const std::string& where);
  void report(const std::string& var, const AccessSite& first, const AccessSite& second,
              const std::string& why);
  AccessSite make_site(ThreadId t, AccessKind kind, const std::string& where) const;

  NameTables names_;  ///< the id entry's; not shadow state
  std::vector<ThreadState> threads_;
  std::map<std::string, VectorClock> locks_;
  std::map<std::string, VectorClock> channels_;
  std::map<std::string, VarState> vars_;
  std::vector<RaceReport> races_;
  std::set<RacePairKey> reported_;  // race_pair_key dedup
  std::uint64_t race_count_ = 0;
  std::uint64_t events_ = 0;
};

}  // namespace cs31::race
