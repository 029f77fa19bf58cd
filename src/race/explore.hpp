// Detector-guided DPOR schedule exploration — the pruned, prioritized
// replacement for exhaustively replaying os::all_interleavings.
//
// The fused homework ("identify the possible outputs" × "find the data
// race") used to replay every interleaving of the per-thread op scripts
// through the happens-before detector, which walks into the multinomial
// wall fast: 2 threads × 10 ops each is already 184756 schedules. But
// most of those schedules are equivalent evidence: swapping two
// adjacent *independent* ops (different threads, no conflicting object)
// cannot change which races the detector reports. `Explorer` replays
// exactly one representative per such Mazurkiewicz equivalence class
// using dynamic partial-order reduction (Flanagan & Godefroid, POPL
// 2005: backtrack sets + sleep sets), so the `distinct_races` verdict
// is provably identical to the exhaustive sweep at a fraction of the
// schedules — the differential tier in tests/race_explore_test.cpp
// asserts exactly that on an exhaustively-enumerable corpus.
//
// Dependence relation (derived from the script grammar in script.hpp;
// two ops of different threads are dependent iff):
//   - read/write or write/write on the same variable (read/read
//     commutes: the detector keeps reader sites sorted by thread id);
//   - lock/unlock on the same mutex (release publishes the lock clock);
//   - send/recv on the same channel (send mutates the channel clock);
//   - either op is a barrier arrival: the *completing* arrival joins
//     EVERY waiter's clock, so a barrier op is conservatively dependent
//     with every other thread's ops, not just other arrivals.
// Conservative over-approximation is sound: extra dependence only costs
// schedules, never coverage.
//
// Detector guidance: prior RaceReports (or a previous ExploreResult)
// seed a priority over exploration order — backtrack choices whose next
// op labels a reported site pair, or lead toward one, are explored
// first, so a budgeted re-run confirms known races in a handful of
// schedules. New discoveries re-prioritize the remaining frontier
// mid-run (after a fixed settle window; see the determinism contract).
//
// One walk, one detector, deterministic output: the DPOR tree walk is
// sequential — a subtree's exploration can add backtrack points at ANY
// ancestor, so subtrees are not independent units of tree growth — and
// at each emission it feeds the events it executed since the last one
// to the run's one FastTrack detector through the journaled feed
// (detector.hpp), exactly the events replay would give a fresh detector
// at those depths, and undoes them when it backtracks past them. An
// emitted schedule copies the detector's records as they stand, so
// nothing is replayed. The run's names are the Script's own
// (each kind a borrowed block of one name table; a label's id is its
// site), so its compact race records compare across schedules as they
// are; a RaceReport is built only for a race seen for the first time.
// Results are queued in emission order. Guidance feedback folds in only
// once a result is merged, and the merge trails emission by a fixed
// settle window of 32 schedules, so the hint set at every decision point
// is a pure function of the emission order. That window is part of the
// output's definition.
//
// The walk's state is sized once per run and reused by depth: an
// explicit stack of frame slots whose backtrack, sleep and enabled sets
// are word bitsets, and per-object last-access tables (per variable the
// last write and last access of each thread, per mutex and channel the
// last op of each thread, and each thread's last barrier) that undo
// restores. A clock and a race candidate each cost O(threads), not
// O(depth), so the time per replayed event is flat in the depth. The
// per-run tables are runs of two blocks, so a run's set-up makes a
// handful of allocations, and a warm walk makes none per schedule
// except a first-seen race's report and a new stuck state's witness.
//
// Budgeted mode: `max_schedules` / `max_events` replace the exhaustive
// path's hard multinomial throw. When a budget binds, the result says
// so honestly (`complete == false`, and summary() reports schedules
// covered out of the — saturating — total) instead of pretending the
// space was covered.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "race/replay.hpp"

namespace cs31::race {

struct ExploreOptions {
  /// Budgets; 0 = unbounded. Replaces replay_all_interleavings' throw:
  /// the explorer stops emitting when a budget binds and reports
  /// partial coverage instead.
  std::uint64_t max_schedules = 0;
  std::uint64_t max_events = 0;

  /// Prior reports whose (first.where, second.where) site pairs seed
  /// the exploration priority — e.g. yesterday's ExploreResult.races.
  std::vector<RaceReport> hints;

  /// Fold newly discovered races into the priority mid-run (after the
  /// settle window). Off = only the seeded hints steer.
  bool reprioritize_on_discovery = true;

  /// Model real blocking semantics (ReplayOptions::model_blocking) in
  /// the walk: a lock on a held mutex, a recv on an empty channel, and
  /// a thread parked at an incomplete barrier are DISABLED, never
  /// scheduled. The walk then reaches exactly the feasible schedules —
  /// including maximal-but-stuck prefixes, which are emitted for race
  /// coverage and recorded as deadlocks (ExploreResult::deadlocks).
  /// Off (the default) keeps the PR 9 behaviour bit-identical.
  bool model_blocking = false;

  /// Variables whose cross-thread accesses are proven race-free —
  /// thread-local or consistently locked (analyze::seed_explore_options
  /// fills this from a ConcurSummary). Their accesses are treated as
  /// INDEPENDENT, shrinking backtrack sets and the explored tree. Only
  /// sound under blocking semantics (without blocking, two "guarded"
  /// accesses can still interleave inside one critical section), so the
  /// constructor rejects a non-empty list unless model_blocking is set.
  /// Unknown names are ignored.
  std::vector<std::string> independent_vars;

  /// Mutexes that are pure guards: every critical section on them
  /// contains only accesses to variables they consistently protect
  /// (analyze::seed_explore_options proves this per-script). Cross-
  /// thread lock/unlock pairs on such a mutex are treated as
  /// INDEPENDENT — two pure-guard critical sections commute as atomic
  /// blocks (a Lipton-style reduction), so one acquisition order per
  /// pair suffices and the explored tree collapses. Only sound under
  /// blocking semantics, same constructor rule as independent_vars.
  /// Unknown names are ignored.
  std::vector<std::string> independent_mutexes;
};

struct ExploreResult {
  static constexpr std::uint64_t kNoRace = ~std::uint64_t{0};

  /// Distinct races (one per race_pair_key), first-seen in emission
  /// order — set-identical to
  /// distinct_races(replay_all_interleavings(...)) when complete.
  std::vector<RaceReport> races;

  std::uint64_t schedules_replayed = 0;
  std::uint64_t events_replayed = 0;
  std::uint64_t racy_schedules = 0;
  std::uint64_t first_race_at = kNoRace;  ///< emission index of first racy schedule

  std::uint64_t interleavings_total = 0;  ///< multinomial count (saturating)
  bool total_saturated = false;           ///< count hit UINT64_MAX
  bool complete = false;  ///< full reduced tree explored (no budget bound)

  // Walk statistics (deterministic, for the bench/demo narrative).
  std::uint64_t nodes_visited = 0;
  std::uint64_t sleep_pruned = 0;       ///< sleep-blocked leaves (redundant suffixes cut)
  std::uint64_t backtrack_points = 0;   ///< race-analysis additions

  /// Blocking mode only (always empty / 0 otherwise): the distinct
  /// stuck states the walk reached (deduplicated by position vector, in
  /// walk order) and how many emitted schedules ended stuck rather than
  /// complete.
  std::vector<DeadlockState> deadlocks;
  std::uint64_t deadlocked_schedules = 0;

  /// One honest line: "explored 31 of 3432 interleavings (complete): 18
  /// racy, 2 distinct race(s), 434 events" — says "budget hit after N"
  /// and ">1.8e19 (saturated)" when that is the truth.
  [[nodiscard]] std::string summary() const;
};

/// The DPOR explorer over untagged per-thread scripts (same input shape
/// as replay_all_interleavings; tagging happens internally). The
/// constructor parses and validates every op once — malformed ops,
/// a release without a program-order acquire, or independent_vars
/// without model_blocking (the pruning is unsound when critical
/// sections can overlap) throw here, never mid-run. The walk feeds its
/// events to one journaled detector and emits each schedule's records
/// as they stand.
class Explorer {
 public:
  explicit Explorer(std::vector<std::vector<std::string>> scripts,
                    ExploreOptions options = {});

  /// Same, over an already-parsed script.
  explicit Explorer(Script script, ExploreOptions options = {});

  /// Run one exploration. Deterministic: same scripts + options give
  /// byte-identical results.
  [[nodiscard]] ExploreResult run();

  [[nodiscard]] const ExploreOptions& options() const { return options_; }

 private:
  Script script_;
  ExploreOptions options_;
};

/// One-shot convenience: Explorer(scripts, options).run().
[[nodiscard]] ExploreResult explore_races(
    const std::vector<std::vector<std::string>>& scripts, ExploreOptions options = {});

/// Seeded random-script generator for the differential tier and the
/// bench corpus (the trace_gen pattern, script-shaped): structurally
/// valid per-thread scripts — unlocks always follow a program-order
/// lock, equal barrier counts per thread — over small shared/private
/// variable, mutex, and channel pools.
struct ScriptGenConfig {
  std::size_t threads = 3;
  std::size_t ops_per_thread = 4;
  std::size_t shared_vars = 2;   ///< "z0".."z{n-1}", racy surface
  std::size_t private_vars = 1;  ///< "p<t>_0".., per-thread (independent ops)
  std::size_t locks = 1;         ///< "m0"..
  std::size_t channels = 1;      ///< "q0"..
  bool barriers = false;         ///< one barrier arrival per thread

  // Shape injectors for the static deadlock checks and the pruning
  // differential (all default off: the PR 9 corpus stays bit-identical).

  /// Roughly half the threads open with a two-lock nest in a
  /// thread-rotated order ("lock m<t%L>", "lock m<(t+1)%L>") — with
  /// >= 2 locks the classic ABBA lock-order-cycle shapes appear.
  bool lock_cycles = false;

  /// Roughly half the threads append an extra trailing recv, so
  /// send/recv totals go unbalanced and recv-no-send (plus reachable
  /// communication deadlocks) appear in the corpus.
  bool channel_misuse = false;

  /// Lock-disciplined mode: every shared-variable access is wrapped in
  /// "lock m<v%L>" .. "unlock m<v%L>" (one consistent guard per
  /// variable) and standalone lock/unlock ops are not generated — the
  /// corpus the static analyzer proves consistently-guarded, for the
  /// pruned-vs-unpruned exploration differential.
  bool lock_discipline = false;
};

[[nodiscard]] std::vector<std::vector<std::string>> generate_script(
    std::uint64_t seed, ScriptGenConfig config = {});

}  // namespace cs31::race
