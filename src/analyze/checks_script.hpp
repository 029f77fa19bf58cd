// The static concurrency checks over the script model (concur.hpp) —
// the "predict before you run" tier of the race/deadlock story.
//
// Everything reports through the analyze::Diagnostic model the mini-C
// and ISA passes already use: the pass slug names the check, the
// `function` field carries the thread tag ("t0"), and `line` is the
// 1-based op index inside that thread's script. The checks:
//
//   static-race          cross-thread (write, access) pair on one
//                        variable with DISJOINT must-hold locksets and
//                        no barrier ordering between their epochs.
//                        Send/recv edges are deliberately ignored for
//                        ordering: a recv only orders after the send
//                        that fed it in the schedules where it does,
//                        and some schedule always reorders them — so
//                        channel segments never remove a candidate.
//   lock-order-cycle     cycle in the lock-order graph (lock b while
//                        holding a): the classic ABBA deadlock shape.
//   channel-wait-cycle   cycle in the generalized wait-order graph
//                        that involves a channel or the barrier — a
//                        communication deadlock (recv while holding
//                        the lock the sender needs, send behind a
//                        barrier nobody else reaches, ...).
//   self-deadlock        a thread re-locks a mutex it already holds:
//                        guaranteed to wedge under blocking semantics.
//   unlock-without-lock  an unlock with no program-order lock — the
//                        dynamic tier throws on these; statically it
//                        is a diagnostic (not a deadlock: nothing
//                        blocks, the op is simply invalid).
//   recv-no-send         a channel whose total recv count exceeds its
//                        total send count: in EVERY complete schedule
//                        some recv waits forever.
//   barrier-starvation   threads disagree on barrier arrival counts:
//                        the extra arrivals of the eager threads can
//                        never complete a cycle.
//
// The candidates are over-approximations with a precise relationship
// to the dynamic tier (asserted by the tier-1 differential smoke):
// under blocking-aware exploration (ExploreOptions::model_blocking),
// every race race::Explorer reports is a static-race candidate, and
// every deadlock state race::find_deadlocks reaches is explained by a
// wait-order cycle, a recv imbalance, or barrier starvation.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "analyze/concur.hpp"
#include "analyze/diagnostic.hpp"
#include "race/explore.hpp"

namespace cs31::analyze {

/// One static race candidate. Sites are the tagged op texts — the same
/// strings replay uses as AccessSite.where, so a dynamic RaceReport
/// maps onto a candidate by (variable, unordered site-text pair).
struct StaticRace {
  std::string variable;
  std::string first;   ///< tagged op text, e.g. "t0 write z0"
  std::string second;  ///< tagged op text of the other access
  std::size_t first_thread = 0;
  std::size_t second_thread = 0;
  bool first_is_write = false;
  bool second_is_write = false;
  std::string explanation;
};

/// One static deadlock candidate. `kind` is the pass slug of the check
/// that produced it; `resources` the cycle / starved resource names in
/// the shared spelling ("mutex a", "channel q0", "barrier").
struct StaticDeadlock {
  std::string kind;
  std::vector<std::string> resources;
  std::string witness;  ///< tagged op text that anchors the finding

  /// True when EVERY complete schedule wedges (self-deadlock,
  /// recv-no-send, barrier-starvation); false for cycle candidates,
  /// which only deadlock in the schedules that interleave into them.
  bool guaranteed = false;

  [[nodiscard]] std::string to_string() const;
};

/// Machine-readable result of analyze_scripts: the diagnostics plus the
/// structured candidates and the independence facts the dynamic tier
/// consumes (seed_explore_options).
struct ConcurSummary {
  std::size_t threads = 0;
  std::size_t ops = 0;

  std::vector<Diagnostic> diagnostics;  ///< normalized (sorted, deduped)
  std::vector<StaticRace> races;
  std::vector<StaticDeadlock> deadlocks;

  /// Variables accessed by exactly one thread (sorted).
  std::vector<std::string> thread_local_vars;

  /// Variables accessed by >= 2 threads where every access holds a
  /// common lock -> the (lexicographically first) guarding lock. Under
  /// blocking semantics these cannot race and their accesses are never
  /// co-enabled, so DPOR may treat them as independent.
  std::map<std::string, std::string> guarded_vars;

  /// PURE-GUARD mutexes (sorted): every critical section on them, in
  /// every thread, closes in program order and contains only read/write
  /// ops on variables the mutex itself consistently guards (or that are
  /// thread-local). Two such sections commute as atomic blocks — no
  /// detector verdict and no stuck state depends on which thread
  /// entered first — so DPOR may treat the mutex's own lock/unlock
  /// pairs as independent (ExploreOptions::independent_mutexes), which
  /// is where the big schedule reductions on lock-disciplined scripts
  /// come from.
  std::vector<std::string> independent_mutexes;

  [[nodiscard]] bool may_race() const { return !races.empty(); }
  [[nodiscard]] bool may_deadlock() const { return !deadlocks.empty(); }

  /// Does some candidate cover the dynamic race (variable, site pair)?
  /// Site strings are replay's AccessSite.where labels (tagged op
  /// texts); order of the pair does not matter.
  [[nodiscard]] bool covers_race(const std::string& variable, const std::string& site_a,
                                 const std::string& site_b) const;

  /// One JSON object with every field above (diagnostics as the same
  /// objects Diagnostic::to_json emits).
  [[nodiscard]] std::string to_json() const;
};

/// Run every check over untagged per-thread scripts (the Explorer /
/// replay_all_interleavings input shape). Throws cs31::Error only on a
/// malformed op; discipline violations come back as diagnostics.
[[nodiscard]] ConcurSummary analyze_scripts(
    const std::vector<std::vector<std::string>>& scripts);

/// Same, over an already-parsed script (never throws).
[[nodiscard]] ConcurSummary analyze_scripts(const race::Script& script);

/// Convert a summary into explorer guidance: static race candidates
/// become priority hints (the same mechanism PR 9 uses for prior
/// RaceReports), thread-local and consistently-guarded variables become
/// ExploreOptions::independent_vars, pure-guard mutexes become
/// ExploreOptions::independent_mutexes, and model_blocking is switched
/// on — the independence facts are only sound when lock/recv actually
/// block, and Explorer refuses the combination otherwise.
[[nodiscard]] race::ExploreOptions seed_explore_options(const ConcurSummary& summary,
                                                        race::ExploreOptions base = {});

}  // namespace cs31::analyze
