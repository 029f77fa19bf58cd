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
//
// The model keys everything on the race::Script's ids: an op carries
// its Script op, locksets are runs of mutex ids in one pool, the
// per-channel and per-variable facts are vectors by id, and a resource
// is one number whose order is the order of its name ("barrier" <
// "channel q" < "mutex m", names by rank). A name is rendered only
// where a check writes a Diagnostic or a ConcurSummary field.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "race/script.hpp"

namespace cs31::analyze {

using race::Verb;

/// A blocking resource as one number, ordered as its name: 0 is the
/// barrier, then the channels, then the mutexes, each kind by name.
using Resource = std::uint32_t;

/// One op of one thread's script, with the per-thread abstract state
/// attached: the must-hold lockset and the barrier epoch at the point
/// this op executes.
struct ScriptOp {
  const race::ScriptOp* op = nullptr;  ///< verb, object id, site and label
  std::uint32_t thread = 0;            ///< owning thread index
  std::uint32_t index = 0;             ///< 0-based position in the thread's script
  /// Barrier arrivals of this thread before this op (its epoch).
  std::uint32_t epoch = 0;
  /// The locks the thread must hold here: ScriptModel::locks(*this),
  /// mutex ranks in ascending order (program-order exact because
  /// scripts are straight-line).
  std::uint32_t locks_at = 0, locks_count = 0;

  [[nodiscard]] Verb verb() const { return op->verb; }
  [[nodiscard]] std::uint32_t object() const { return op->object; }
  [[nodiscard]] bool access() const {
    return verb() == Verb::Read || verb() == Verb::Write;
  }
  /// Ops that can block under real semantics: lock and recv.
  [[nodiscard]] bool blocks() const { return verb() == Verb::Lock || verb() == Verb::Recv; }
};

/// One edge of the lock-order / wait-order graphs, with the op that
/// witnessed it (diagnostics point at real script positions).
struct OrderEdge {
  Resource from = 0;
  Resource to = 0;
  const ScriptOp* witness = nullptr;  ///< op that created the edge
};

struct ThreadScript {
  std::span<const ScriptOp> ops;
  std::uint32_t barrier_arrivals = 0;

  /// Discipline violations: an unlock with no program-order lock
  /// (race::unmatched_unlocks — the dynamic tier throws on these) and a
  /// re-lock of a mutex already held (guaranteed self-deadlock under
  /// blocking semantics).
  std::vector<std::uint32_t> unmatched_unlocks;  ///< op indices
  std::vector<std::uint32_t> self_relocks;       ///< op indices
};

/// The whole-program static model over one Script, which must outlive
/// it.
struct ScriptModel {
  static constexpr std::uint32_t kMany = ~std::uint32_t{0};
  static constexpr std::uint32_t kNoOwner = kMany - 1;  ///< no access seen yet

  ScriptModel() = default;
  ScriptModel(ScriptModel&&) = default;
  ScriptModel(const ScriptModel&) = delete;

  const race::Script* script = nullptr;
  std::vector<ScriptOp> ops;  ///< every op, thread by thread
  std::vector<ThreadScript> threads;
  std::vector<std::uint32_t> lock_pool;  ///< the ops' locksets, as mutex ranks

  // Per-id facts, as runs of one block (ScriptModel moves, never
  // copies, so the runs stay valid).
  std::vector<std::uint32_t> facts;
  /// Ids in name order, per kind, and each id's place in that order.
  std::span<std::uint32_t> vars_by_name, mutexes_by_name, channels_by_name;
  std::span<std::uint32_t> mutex_rank, channel_rank;
  /// Per-channel totals across all threads, by channel id.
  std::span<std::uint32_t> sends, recvs;
  /// By variable id: the one thread that accesses it, or kMany.
  std::span<std::uint32_t> var_owner;

  /// min/max barrier arrivals over threads with any ops at all: cycle
  /// c completes in SOME schedule iff c <= min_arrivals, and a gap
  /// between the two is barrier starvation.
  std::uint32_t min_arrivals = 0;
  std::uint32_t max_arrivals = 0;

  /// edge a -> b: some thread locks b while holding a. Deduplicated
  /// (the first witness kept), in (from, to) order.
  std::vector<OrderEdge> lock_order;

  /// The generalized wait-order graph (see file comment), likewise.
  std::vector<OrderEdge> wait_order;

  [[nodiscard]] std::span<const std::uint32_t> locks(const ScriptOp& op) const {
    return std::span<const std::uint32_t>(lock_pool).subspan(op.locks_at, op.locks_count);
  }
  [[nodiscard]] const std::string& text(const ScriptOp& op) const { return op.op->text; }
  /// The operand's name ("" for a barrier).
  [[nodiscard]] const std::string& name(const ScriptOp& op) const {
    return script->name(*op.op);
  }
  [[nodiscard]] const std::string& mutex_of_rank(std::uint32_t rank) const {
    return script->mutexes[mutexes_by_name[rank]];
  }

  [[nodiscard]] Resource barrier() const { return 0; }
  [[nodiscard]] Resource channel(std::uint32_t id) const { return 1 + channel_rank[id]; }
  [[nodiscard]] Resource mutex_resource(std::uint32_t rank) const {
    return 1 + static_cast<Resource>(channel_rank.size()) + rank;
  }
  [[nodiscard]] bool is_mutex(Resource r) const { return r > channel_rank.size(); }
  /// "barrier", "channel q0" or "mutex a": the spelling the checks and
  /// the dynamic tier's stuck states share.
  [[nodiscard]] std::string resource_name(Resource r) const;

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
/// cycle. Deterministic order (each component ascending, components in
/// lexicographic order). Exposed for tests.
[[nodiscard]] std::vector<std::vector<Resource>> cycle_components(
    const std::vector<OrderEdge>& edges);

}  // namespace cs31::analyze
