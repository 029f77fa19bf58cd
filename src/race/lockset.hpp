// Eraser-style lockset race detection (Savage et al., SOSP 1997) as a
// second EventSink implementation: instead of tracking happens-before
// order, it checks the *locking discipline* — every shared variable
// must be consistently protected by at least one common lock.
//
// Per variable the detector keeps a state machine
//   Virgin -> Exclusive(first thread) -> Shared (second thread reads)
//                                     -> Shared-Modified (second thread
//                                        writes, or a write in Shared)
// and, once out of Exclusive, a candidate lockset C(v) — initialized to
// the locks held at the first shared access and intersected with the
// locks held at every later one. An empty C(v) in Shared-Modified is
// reported as a race.
//
// The point of having both detectors on one TraceContext is the
// *disagreement*: lockset ignores fork/join/barrier/channel ordering
// entirely, so it flags barrier-synchronized code (the Life grid) that
// happens-before proves race-free — the classic Eraser false positive —
// while catching inconsistent locking on every schedule, including ones
// where HB got lucky. examples/race_detective.cpp walks the contrast.
//
// Per access the detector works on ids only, as every EventSink
// receives them (the name forms intern first). Every
// flagged access is deduplicated on ids — variable plus the unordered
// pair of (thread, site) — and only a new pair is turned into a
// RaceReport: on barrier-synchronized Life most accesses are flagged
// and all but a few repeat a pair already reported.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "race/detector.hpp"
#include "race/interner.hpp"

namespace cs31::race {

class LocksetDetector final : public EventSink {
 public:
  LocksetDetector();

  LocksetDetector(const LocksetDetector&) = delete;
  LocksetDetector& operator=(const LocksetDetector&) = delete;

  [[nodiscard]] ThreadId register_thread() override;
  /// fork/join/barrier/channel carry no lockset information — that
  /// blindness is the algorithm, not an omission. They only maintain
  /// thread ids and the event count.
  [[nodiscard]] ThreadId fork(ThreadId parent) override;
  void join(ThreadId parent, ThreadId child) override;
  void barrier(const std::vector<ThreadId>& waiters) override;

  // Channels carry nothing here, so every channel is id 0.
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

  /// The candidate lockset of `var` right now (lock names, sorted).
  /// Empty result + `lockset_defined(var)` distinguishes "refined to
  /// empty" from "still Exclusive/Virgin".
  [[nodiscard]] std::vector<std::string> candidate_lockset(const std::string& var) const;
  [[nodiscard]] bool lockset_defined(const std::string& var) const;

 private:
  enum class State : std::uint8_t { Virgin, Exclusive, Shared, SharedModified };

  /// One recorded access, for the two endpoints of a report.
  struct Access {
    bool valid = false;
    ThreadId thread = 0;
    AccessKind kind = AccessKind::Read;
    NameId where = 0;
    std::uint64_t event = 0;
    std::vector<NameId> locks;  ///< held at the access, acquisition order
  };

  struct VarState {
    State state = State::Virgin;
    ThreadId owner = 0;            ///< the Exclusive thread
    std::vector<NameId> lockset;   ///< candidate lockset, sorted; defined
                                   ///< once state > Exclusive
    Access last;                   ///< most recent access
    Access last_other;             ///< most recent access by a thread != last.thread
  };

  /// Dedup identity of a report: variable id plus the unordered pair of
  /// (thread, site id) endpoints — race_pair_key on ids, exact because
  /// this detector's ids map one-to-one onto names.
  struct ReportKey {
    NameId variable;
    std::uint64_t lo, hi;
    bool operator==(const ReportKey&) const = default;
  };
  struct ReportKeyHash {
    std::size_t operator()(const ReportKey& k) const;
  };

  /// read() and write(): the state machine step of one access.
  void on_access(ThreadId t, NameId var, AccessKind kind, NameId where);
  void check_thread(ThreadId t) const;
  [[nodiscard]] AccessSite materialize(const Access& access) const;
  void report(NameId var, const Access& first, const Access& second);

  std::vector<std::vector<NameId>> held_;  // by thread id, acquisition order
  std::vector<VarState> vars_;             // by variable id
  Interner var_names_;
  Interner lock_names_;
  Interner site_names_;
  std::vector<RaceReport> races_;
  std::unordered_set<ReportKey, ReportKeyHash> reported_;
  std::uint64_t race_count_ = 0;
  std::uint64_t events_ = 0;
};

}  // namespace cs31::race
