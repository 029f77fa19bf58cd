// The thread-script grammar, parsed once: the typed IR that replay,
// find_deadlocks, the DPOR Explorer, the static tier (analyze::concur)
// and the grader's script kind all consume.
//
// Grammar — one op per string, exactly one operand except `barrier`,
// tokens separated by whitespace:
//   "read <var>"     read of a shared variable
//   "write <var>"    write of a shared variable
//   "lock <m>"       mutex acquire
//   "unlock <m>"     mutex release
//   "send <ch>"      producer publish into channel <ch>
//   "recv <ch>"      consumer take from channel <ch>
//   "barrier"        arrival at the single, implicit barrier
// Script k's ops are labelled "t<k> <op>" (the tag_threads spelling);
// that label is what reports, witnesses and site pairs print. Anything
// else — an unknown verb, a missing operand, an extra token — throws
// cs31::Error as "script op '<label>': <problem>".
//
// Blocking semantics (BlockingState): a lock waits while the mutex is
// held (by anyone, its own thread included — a re-lock self-deadlocks),
// a recv waits on an empty channel, and a barrier arrival parks its
// thread until every thread with a non-empty script has arrived as
// often; that arrival completes the cycle. Because scripts are
// straight-line, the whole blocking state is a function of the
// per-thread position vector.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cs31::race {

enum class Verb : std::uint8_t { Read, Write, Lock, Unlock, Send, Recv, Barrier };

/// The name table an op's operand lives in; None for barrier.
enum class ObjectKind : std::uint8_t { Var, Mutex, Channel, None };

[[nodiscard]] std::string to_string(Verb verb);
[[nodiscard]] ObjectKind object_kind(Verb verb);

struct ScriptOp {
  Verb verb = Verb::Read;
  std::uint32_t object = 0;  ///< id in the object_kind(verb) name table; 0 for barrier
  std::uint32_t site = 0;    ///< id of the label: ops with one label share it
  std::string text;          ///< tagged label, e.g. "t0 write x"
};

/// Per-thread op vectors with operands interned separately per object
/// kind, and labels interned as sites (ids count up from 0 in
/// first-seen order, thread by thread). A label carries its thread's
/// tag, so every site belongs to one thread.
class Script {
 public:
  Script() = default;  // not an aggregate: a braced op list never converts

  std::vector<std::vector<ScriptOp>> threads;
  std::vector<std::string> vars, mutexes, channels;  ///< name tables, by id
  std::uint32_t sites = 0;                           ///< distinct labels

  /// The operand name of `op` ("" for barrier).
  [[nodiscard]] const std::string& name(const ScriptOp& op) const;

  [[nodiscard]] std::size_t total_ops() const;
};

/// Untagged per-thread op texts as views into the caller's text, flat:
/// thread k's ops are ops[k == 0 ? 0 : ends[k - 1], ends[k]).
struct ScriptText {
  std::vector<std::string_view> ops;
  std::vector<std::size_t> ends;
};

/// Parse untagged per-thread scripts. The only op tokenizer of the kit:
/// each name is looked up once in its table, and each label is built
/// once.
[[nodiscard]] Script parse_script(const ScriptText& text);

/// Same, over the replay_all_interleavings / Explorer input shape.
[[nodiscard]] Script parse_script(const std::vector<std::vector<std::string>>& scripts);

/// (thread, op index) of every unlock with no program-order lock of the
/// same mutex still outstanding in its thread — the ops the detector
/// would throw on. Acquisitions count as a multiset, as the detector's
/// held list does.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> unmatched_unlocks(
    const Script& script);

/// Throw cs31::Error on the first unmatched unlock — Explorer,
/// find_deadlocks and string replay validate with this before any op
/// runs.
void require_lock_discipline(const Script& script);

/// One reachable stuck state under blocking semantics: some thread
/// still has ops, nobody can move. `waiting`/`resources` are parallel
/// — the blocked op of each unfinished thread and what it waits on in
/// the analyze::concur resource spelling ("mutex a", "channel q0",
/// "barrier"); a thread parked inside the barrier reports its barrier
/// op. `witness` is a feasible tagged schedule prefix reaching the
/// state (replayable with model_blocking to confirm).
struct DeadlockState {
  std::vector<std::string> waiting;
  std::vector<std::string> resources;
  std::vector<std::string> witness;

  [[nodiscard]] std::string to_string() const;
};

/// Blocking semantics over a Script's ids (see the file comment). A
/// mutable walk state: execute advances one thread, undo reverses the
/// most recent execute of that thread (DFS order). Without blocking
/// checks a thread may arrive twice in one cycle; cycle c then
/// completes when every participating thread has arrived c times.
class BlockingState {
 public:
  explicit BlockingState(const Script& script);

  [[nodiscard]] bool done(std::size_t t) const {
    return pos_[t] >= script_->threads[t].size();
  }
  [[nodiscard]] const ScriptOp& next(std::size_t t) const {
    return script_->threads[t][pos_[t]];
  }

  /// t has an op left and it would not block right now.
  [[nodiscard]] bool enabled(std::size_t t) const;

  /// t has arrived at a barrier cycle that has not completed yet.
  [[nodiscard]] bool parked(std::size_t t) const { return arrivals_[t] > completed_; }

  /// Run t's next op. True when it was the arrival that completed a
  /// barrier cycle.
  bool execute(std::size_t t);
  void undo(std::size_t t);

  [[nodiscard]] const std::vector<std::size_t>& positions() const { return pos_; }

  /// The current state as a stuck state reached by `witness`.
  [[nodiscard]] DeadlockState deadlock(std::vector<std::string> witness) const;

 private:
  const Script* script_;
  std::vector<std::size_t> pos_;
  /// By mutex id whether it is held, then by channel id the pending
  /// sends.
  std::vector<std::int64_t> objects_;
  std::vector<std::size_t> arrivals_;      ///< barrier arrivals by thread
  std::size_t completed_ = 0;  ///< completed cycles, recounted at barrier ops only

  /// The fewest arrivals of any thread with a non-empty script.
  [[nodiscard]] std::size_t count_completed() const;
};

}  // namespace cs31::race
