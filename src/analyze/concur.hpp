// Static model of the concurrent-script grammar (race/script.hpp):
// the representation every `analyze::concur` check works on.
//
// The per-thread scripts the replay engine and the DPOR explorer
// consume are straight-line programs, so "abstract interpretation" of
// one thread is exact: walking the ops in program order yields, at
// every op, the set of locks the thread MUST hold when that op
// executes, the number of barrier arrivals that precede it (its
// barrier epoch), and the channel send/recv totals. What stays
// abstract is the cross-thread part — which schedule runs — and that
// is exactly where the checks over-approximate: a pair of accesses is
// a race CANDIDATE unless every schedule orders it (a shared
// must-hold lock under blocking semantics, or a completed barrier
// cycle between their epochs), and a resource cycle is a deadlock
// CANDIDATE whether or not a schedule actually reaches it.
//
// The model also builds the two relations the checks read off:
//
//   lock-order graph   edge a -> b when some thread locks b while
//                      holding a (the McKenney lock-hierarchy
//                      discipline, violated = cycle);
//   wait-order graph   the lock-order graph generalized to every
//                      blocking resource: an edge r1 -> r2 means
//                      "progress on r1 can require prior progress on
//                      r2" — a lock held across a blocking op, a send
//                      that sits program-order behind a blocking op
//                      (the channel cannot fill until that op
//                      completes), a barrier arrival behind a blocking
//                      op. A cycle is a deadlock candidate; the pure-
//                      lock cycles are the classic lock-order bugs,
//                      the rest are communication deadlocks.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "race/script.hpp"

namespace cs31::analyze {

using race::Verb;

/// One parsed op of one thread's script, with the per-thread abstract
/// state attached: the must-hold lockset and the barrier epoch at the
/// point this op executes.
struct ScriptOp {
  Verb verb = Verb::Read;
  std::string object;  ///< variable / mutex / channel name ("" for barrier)
  std::string text;    ///< tagged text, e.g. "t0 write z" — report attribution
  std::size_t thread = 0;  ///< owning thread index
  std::size_t index = 0;   ///< 0-based position in the thread's script

  /// Locks the thread must hold when this op executes (sorted,
  /// program-order exact because scripts are straight-line).
  std::vector<std::string> must_locks;

  /// Barrier arrivals of this thread before this op (its epoch).
  std::size_t epoch = 0;

  /// True for ops that can block under real semantics: lock, recv,
  /// and any op whose thread is parked at an incomplete barrier.
  [[nodiscard]] bool blocks() const {
    return verb == Verb::Lock || verb == Verb::Recv;
  }

  /// The resource a blocking op waits on, in the shared naming scheme
  /// ("mutex m0", "channel q0", "barrier"); "" for non-blocking ops.
  [[nodiscard]] std::string waits_on() const;
};

/// One edge of the lock-order / wait-order graphs, with the op that
/// witnessed it (diagnostics point at real script positions).
struct OrderEdge {
  std::string from;  ///< resource name ("mutex a", "channel q0", "barrier")
  std::string to;
  const ScriptOp* witness = nullptr;  ///< op that created the edge

  friend bool operator==(const OrderEdge& a, const OrderEdge& b) {
    return a.from == b.from && a.to == b.to;
  }
};

/// Shared resource-name builders (the checks and the dynamic
/// confirmation paths must agree on these spellings).
[[nodiscard]] std::string mutex_resource(const std::string& name);
[[nodiscard]] std::string channel_resource(const std::string& name);
[[nodiscard]] std::string barrier_resource();

struct ThreadScript {
  std::string tag;  ///< "t0", "t1", ... (tag_threads order)
  std::vector<ScriptOp> ops;
  std::size_t barrier_arrivals = 0;

  /// Discipline violations: an unlock with no program-order lock
  /// (race::unmatched_unlocks — the dynamic tier throws on these) and a
  /// re-lock of a mutex already held (guaranteed self-deadlock under
  /// blocking semantics).
  std::vector<std::size_t> unmatched_unlocks;  ///< op indices
  std::vector<std::size_t> self_relocks;       ///< op indices
};

/// The whole-program static model.
struct ScriptModel {
  std::vector<ThreadScript> threads;

  /// min/max barrier arrivals over threads with any ops at all: cycle
  /// c completes in SOME schedule iff c <= min_arrivals, and a gap
  /// between the two is barrier starvation.
  std::size_t min_arrivals = 0;
  std::size_t max_arrivals = 0;

  /// Per-channel totals across all threads.
  std::map<std::string, std::size_t> sends;
  std::map<std::string, std::size_t> recvs;

  /// Variables and which threads access them (thread index set,
  /// sorted), for the thread-local / consistently-locked
  /// classification.
  std::map<std::string, std::vector<std::size_t>> var_threads;

  /// edge a -> b: some thread locks b while holding a. Deduplicated,
  /// deterministic order (by from, to).
  std::vector<OrderEdge> lock_order;

  /// The generalized wait-order graph (see file comment).
  /// Deduplicated, deterministic order.
  std::vector<OrderEdge> wait_order;

  /// Every var access (read/write) in (thread, index) order — the
  /// iteration the race-candidate check walks.
  [[nodiscard]] std::vector<const ScriptOp*> accesses() const;

  /// Is `a` ordered before `b` (or vice versa) in EVERY schedule by a
  /// completed barrier cycle between their epochs? Requires the cycle
  /// separating them to be completable (<= min_arrivals).
  [[nodiscard]] bool barrier_ordered(const ScriptOp& a, const ScriptOp& b) const;
};

/// Build the model from a parsed script. Discipline violations
/// (unlock-without-lock, re-lock) are recorded in the model for the
/// checks, not thrown.
[[nodiscard]] ScriptModel build_script_model(const race::Script& script);

/// Strongly-connected components of an edge list with >= 2 nodes, plus
/// single nodes with a self-edge — i.e. every node set that lies on a
/// cycle. Deterministic order (each component sorted by name,
/// components sorted by first name). Exposed for tests.
[[nodiscard]] std::vector<std::vector<std::string>> cycle_components(
    const std::vector<OrderEdge>& edges);

}  // namespace cs31::analyze
