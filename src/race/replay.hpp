// Deterministic replay: run a specific interleaving of per-thread
// operation scripts through the happens-before detector. This fuses two
// CS 31 exercises — "identify the possible outputs of these concurrent
// processes" (cs31::os::all_interleavings) and "find the data race" —
// into one tool: write each thread's ops as a sequence of strings, let
// the interleaving enumerator produce every schedule, and replay each
// through the detector to see which schedules expose which races.
//
// The grammar and the blocking semantics live in race/script.hpp; a
// tagged interleaving spells each op "t<k> <op>", and thread k is
// detector thread k in every report.
//
// Replay threads are registered as concurrent roots (no fork edges):
// exactly the model of the homework's already-running processes. Note
// that by default replay models happens-before edges, not blocking —
// schedules that real mutual exclusion would forbid (two threads
// "inside" one lock at once) are still replayed, which is itself a
// talking point: the enumerator over-approximates, the detector
// under-approximates. ReplayOptions::model_blocking switches the real
// semantics (race::BlockingState) on: a lock blocks while the mutex is
// held, a recv blocks on an empty channel, and a barrier arrival parks
// the thread until the cycle completes. Under blocking, a schedule
// that tries to run a blocked op is INFEASIBLE (result.feasible == false, the prefix
// before the blocked op is what got replayed), and find_deadlocks()
// searches the reachable state space — exactly, via memoized DFS over
// position vectors, no schedule enumeration — for states where some
// thread still has ops but nobody can move.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "race/detector.hpp"
#include "race/script.hpp"

namespace cs31::race {

/// Replay semantics knobs.
struct ReplayOptions {
  /// Model real blocking: lock waits for the holder, recv waits for a
  /// send, a barrier arrival parks its thread until the cycle
  /// completes. Off (the default) keeps the PR 9 behaviour — every
  /// schedule replays in full and only happens-before edges are
  /// modelled.
  bool model_blocking = false;
};

/// Outcome of replaying one interleaving.
struct ReplayResult {
  std::vector<RaceReport> races;
  std::uint64_t events = 0;
  std::vector<std::string> schedule;  ///< the interleaving that was replayed

  /// Blocking mode only: false when the schedule ran an op its thread
  /// was blocked on; `executed` counts the ops that did run (always
  /// schedule.size() when feasible / in non-blocking mode).
  bool feasible = true;
  std::size_t executed = 0;

  [[nodiscard]] bool race_free() const { return races.empty(); }
};

/// Prefix each op of script k with "t<k> " so the interleaving keeps its
/// origin once the enumerator shuffles the streams together.
[[nodiscard]] std::vector<std::vector<std::string>> tag_threads(
    const std::vector<std::vector<std::string>>& scripts);

/// Replay one tagged interleaving (e.g. one element of
/// os::all_interleavings(tag_threads(scripts))). Throws cs31::Error on a
/// malformed op.
[[nodiscard]] ReplayResult replay(const std::vector<std::string>& interleaving,
                                  ReplayOptions options = {});

/// Same, but through a caller-supplied detector implementation — the
/// differential harness replays one schedule into both the FastTrack
/// and the reference detector this way. The sink must be fresh (no
/// prior events); tag t<k> becomes thread k. The ops are grouped by tag
/// into a Script (a thread's ops in interleaving order are its script)
/// and replayed through the typed core below.
[[nodiscard]] ReplayResult replay(const std::vector<std::string>& interleaving,
                                  EventSink& sink, ReplayOptions options = {});

/// A schedule over a parsed Script: the thread that runs each step
/// (each step runs that thread's next op in program order).
using Schedule = std::vector<std::uint32_t>;

/// The typed entry: replay `schedule` over `script` into a fresh sink,
/// with no string parsing (the result's `schedule` strings stay empty).
/// Interns the script into the sink (intern_script), then runs the id
/// core below. Script thread k is detector thread k; a barrier's
/// waiters are the threads with non-empty scripts. Throws cs31::Error
/// when the schedule runs a thread past the end of its script.
[[nodiscard]] ReplayResult replay(const Script& script, const Schedule& schedule,
                                  EventSink& sink, ReplayOptions options = {});

/// A Script's names as the ids one name space gave them: what the id
/// core fires. `vars`, `locks` and `channels` are indexed by the
/// Script's own ids, `sites` by thread and op.
struct ScriptIds {
  std::vector<NameId> vars, locks, channels;
  std::vector<std::vector<NameId>> sites;  ///< each op's label
  std::vector<ThreadId> waiters;           ///< threads with a non-empty script
};

/// Intern every name of `script` into `sink`: operands in Script id
/// order, then every op label, thread by thread.
[[nodiscard]] ScriptIds intern_script(const Script& script, EventSink& sink);

/// The one replay loop, on ids: run `schedule` over `script` into a
/// fresh sink whose ids `ids` holds. `state` must stand at the start of
/// the script and is rewound there on return. Returns how many ops ran;
/// fewer than the schedule's length means that, under model_blocking,
/// the schedule ran an op its thread was blocked on.
[[nodiscard]] std::size_t replay_ids(const Script& script, const ScriptIds& ids,
                                     std::span<const std::uint32_t> schedule,
                                     EventSink& sink, BlockingState& state,
                                     ReplayOptions options = {});

/// Enumerate every interleaving of the scripts (program order preserved
/// per thread) and replay each, streaming schedules one at a time
/// through os::for_each_interleaving (nothing but the results is ever
/// materialized). `limit` bounds the multinomial blow-up with a throw,
/// as in os::all_interleavings — when the space is too big to sweep,
/// use race::Explorer (explore.hpp), which replays one representative
/// per equivalence class under an explicit budget instead.
[[nodiscard]] std::vector<ReplayResult> replay_all_interleavings(
    const std::vector<std::vector<std::string>>& scripts, std::size_t limit = 100000);

/// Counts over a batch of replays — the demo's punchline numbers
/// ("12 of 20 schedules expose the race, all of them the same race").
struct ReplayStats {
  std::size_t schedules = 0;
  std::size_t racy = 0;
  std::size_t distinct = 0;  ///< distinct (variable, site pair) races across the batch
  [[nodiscard]] std::size_t clean() const { return schedules - racy; }
};

[[nodiscard]] ReplayStats summarize(const std::vector<ReplayResult>& results);

/// The batch's distinct races: one representative report per
/// (variable, site pair) — race_pair_key in detector.hpp — across ALL
/// schedules, in first-seen order. 70 schedules all exposing the same
/// unlocked increment collapse to one report here, which is what a
/// student should read, not 70 copies.
[[nodiscard]] std::vector<RaceReport> distinct_races(
    const std::vector<ReplayResult>& results);

struct DeadlockSearchResult {
  /// Distinct stuck states (one per position vector), in deterministic
  /// lowest-thread-first DFS discovery order.
  std::vector<DeadlockState> deadlocks;
  std::uint64_t states_visited = 0;
  bool complete = true;  ///< false when max_states bound the search

  [[nodiscard]] bool deadlock_free() const { return deadlocks.empty(); }
};

/// Exact deadlock search under blocking semantics over untagged
/// per-thread scripts (the replay_all_interleavings input shape).
/// Because scripts are straight-line, the entire dynamic state —
/// mutex holders, channel fill, barrier arrivals — is a pure function
/// of the per-thread position vector, so a memoized DFS over position
/// vectors covers every reachable state without enumerating schedules:
/// the state space is at most prod(len_t + 1), not the multinomial.
/// Throws cs31::Error on malformed ops or an unlock with no
/// program-order lock (require_lock_discipline, as Explorer does).
[[nodiscard]] DeadlockSearchResult find_deadlocks(
    const std::vector<std::vector<std::string>>& scripts,
    std::size_t max_states = std::size_t{1} << 20);

}  // namespace cs31::race
