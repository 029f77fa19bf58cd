// Vector clocks — the logical-time backbone of happens-before data-race
// detection (FastTrack-style, after Flanagan & Freund). A vector clock
// maps each thread to the number of "epochs" of that thread's execution
// it has observed; event A happens-before event B exactly when A's clock
// is pointwise <= B's. The detector (detector.hpp) keeps one clock per
// thread, per lock, and per channel, and a compact read/write summary
// per traced variable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace cs31::race {

/// Small dense thread id assigned by the detector (0, 1, 2, ...).
using ThreadId = std::uint32_t;

/// A thread's logical clock value (starts at 1 so epochs are nonzero).
using Clock = std::uint32_t;

/// One component of a vector clock: "clock c of thread t" — FastTrack's
/// c@t. A variable's last write is summarized by a single epoch, and
/// (since PR 2) so is its read state while only one thread is reading.
/// `clock == 0` doubles as "no such access yet": real thread clocks
/// start at 1, so a zero clock can never name a real access.
struct Epoch {
  ThreadId tid = 0;
  Clock clock = 0;

  /// Does this epoch name a real access (clock >= 1)?
  [[nodiscard]] bool valid() const { return clock != 0; }

  friend bool operator==(const Epoch&, const Epoch&) = default;
};

/// Render as FastTrack's "c@t" notation.
[[nodiscard]] std::string to_string(Epoch e);

/// Growable vector clock. Components default to 0 ("nothing of that
/// thread observed yet"), so clocks over different thread counts
/// compare naturally.
class VectorClock {
 public:
  VectorClock() = default;

  /// Clock component for thread `t` (0 when never set).
  [[nodiscard]] Clock get(ThreadId t) const;

  /// Set thread `t`'s component.
  void set(ThreadId t, Clock c);

  /// Increment thread `t`'s component (advance its epoch).
  void tick(ThreadId t);

  /// Pointwise maximum: observe everything `other` has observed.
  void join(const VectorClock& other);

  /// True when every component of *this is <= the matching component of
  /// `other` — i.e. the event stamped *this happens-before (or equals)
  /// the event stamped `other`.
  [[nodiscard]] bool leq(const VectorClock& other) const;

  /// Has this clock observed epoch `e` (component for e.tid >= e.clock)?
  /// The FastTrack write-check: an access is ordered after a write iff
  /// the accessor's clock contains the write's epoch.
  [[nodiscard]] bool contains(Epoch e) const { return get(e.tid) >= e.clock; }

  /// The stored components, in thread order, and their replacement
  /// (the storage is kept): how a journal saves and restores a clock.
  [[nodiscard]] std::span<const Clock> components() const { return clocks_; }
  void assign(std::span<const Clock> components) {
    clocks_.assign(components.begin(), components.end());
  }

  /// Number of components stored (threads ever touched).
  [[nodiscard]] std::size_t size() const { return clocks_.size(); }

  /// Render as "<c0, c1, ...>" for reports and teaching output.
  [[nodiscard]] std::string to_string() const;

  /// Pointwise equality with implicit trailing zeros: <1, 0> and <1>
  /// are the same logical time. (A defaulted vector compare would call
  /// them different and make happens_before non-strict — caught by the
  /// VectorClockProperty tests.)
  friend bool operator==(const VectorClock& a, const VectorClock& b) {
    return a.leq(b) && b.leq(a);
  }

 private:
  std::vector<Clock> clocks_;
};

/// The epoch viewed as a full vector clock with one nonzero component.
/// `vc.contains(e)` is exactly `to_clock(e).leq(vc)` — the algebra the
/// property tests pin down, and the reason an epoch comparison can
/// stand in for a full-clock comparison in the detector's hot path.
[[nodiscard]] VectorClock to_clock(Epoch e);

/// Strict happens-before between two events' clocks: a <= b pointwise
/// and a != b. Concurrency (the race condition) is !hb(a,b) && !hb(b,a).
[[nodiscard]] bool happens_before(const VectorClock& a, const VectorClock& b);

/// Neither a happens-before b nor b happens-before a.
[[nodiscard]] bool concurrent(const VectorClock& a, const VectorClock& b);

}  // namespace cs31::race
