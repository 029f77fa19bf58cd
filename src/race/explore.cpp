#include "race/explore.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "os/interleave.hpp"

namespace cs31::race {
namespace {

/// How many emissions a replay result trails the walk before it is
/// merged. This is part of the output's definition, not a tuning knob:
/// guidance feedback folds in only at a merge, so the hint set steering
/// emission k is exactly f(results 0..k-kSettleWindow-1), and another
/// value emits other schedules in another order.
constexpr std::uint64_t kSettleWindow = 32;

/// No event: the empty entry of every last-access table.
constexpr int kNone = -1;

/// A set of threads as a run of 64-bit words.
class Bits {
 public:
  Bits(std::uint64_t* words, std::size_t count) : words_(words), count_(count) {}

  [[nodiscard]] bool test(std::uint32_t t) const {
    return ((words_[t / 64] >> (t % 64)) & 1) != 0;
  }
  void set(std::uint32_t t) { words_[t / 64] |= std::uint64_t{1} << (t % 64); }
  void clear() { std::fill(words_, words_ + count_, 0); }
  /// Set t; true when it was not set before.
  bool insert(std::uint32_t t) {
    if (test(t)) return false;
    set(t);
    return true;
  }
  [[nodiscard]] std::uint64_t word(std::size_t i) const { return words_[i]; }

 private:
  std::uint64_t* words_;
  std::size_t count_;
};

/// Call f(t) for every thread t of the word run `word(i)`, ascending.
template <typename Word, typename F>
void for_each_bit(std::size_t words, Word word, F f) {
  for (std::size_t i = 0; i < words; ++i) {
    for (std::uint64_t w = word(i); w != 0; w &= w - 1) {
      f(static_cast<std::uint32_t>(i * 64 + static_cast<std::size_t>(std::countr_zero(w))));
    }
  }
}

/// Does the word run `word(i)` hold any thread?
template <typename Word>
bool any_bit(std::size_t words, Word word) {
  for (std::size_t i = 0; i < words; ++i) {
    if (word(i) != 0) return true;
  }
  return false;
}

// ---------------------------------------------------------------------
// The engine: one run() owns the walk, the replay, and the merge. Its
// state is sized once, from the script, and reused by depth.
// ---------------------------------------------------------------------

class Engine {
 public:
  Engine(const Script& script, const ExploreOptions& options)
      : script_(script),
        options_(options),
        threads_(script.threads.size()),
        words_((threads_ + 63) / 64),
        total_ops_(script.total_ops()),
        // The tables live as long as the run, and nothing the run
        // returns refers to them, so the detector holds them unowned.
        names_(std::shared_ptr<NameTables>(), &tables_),
        detector_(names_),
        state_(script) {
    // The per-run tables: runs of two blocks (a table indexed by slot
    // gets one entry per op, the most slots a script can need).
    const std::size_t objects =
        script.vars.size() + script.mutexes.size() + script.channels.size();
    const std::size_t sites = std::size_t{script.sites} + 1;  // and the unknown label
    words_block_.resize(2 * (objects + 1) + 2 * objects + 2 * total_ops_ + threads_ +
                        total_ops_ * threads_ + 3 * sites);
    ints_block_.resize(2 * total_ops_ + 3 * threads_);
    std::size_t used = 0;
    const auto words = [&](std::size_t n) {
      used += n;
      return std::span<std::uint32_t>(words_block_).subspan(used - n, n);
    };
    slot_begin_ = words(objects + 1);
    slot_thread_ = words(total_ops_);
    schedule_ = words(total_ops_);
    op_base_ = words(threads_);
    clocks_ = words(total_ops_ * threads_);
    site_thread_ = words(sites);
    site_last_ = words(sites);
    hinted_ = words(sites);
    const auto scratch = words(2 * objects + objects + 1);  // index_ops' counts
    used = 0;
    const auto ints = [&](std::size_t n, int value) {
      used += n;
      const std::span<int> run = std::span<int>(ints_block_).subspan(used - n, n);
      std::fill(run.begin(), run.end(), value);
      return run;
    };
    last_access_ = ints(total_ops_, kNone);
    last_write_ = ints(total_ops_, kNone);
    last_event_of_ = ints(threads_, kNone);
    last_barrier_ = ints(threads_, kNone);
    last_hinted_ = ints(threads_, -1);

    name_script();
    index_ops(scratch);
    events_.resize(total_ops_);
    frame_bits_.resize((total_ops_ + 1) * kFrameSets * words_);
    for (const RaceReport& hint : options_.hints) {
      if (hint.first.where.empty() || hint.second.where.empty()) continue;
      add_hint(site_of(hint.first.where), site_of(hint.second.where));
    }
  }

  ExploreResult run() {
    bool saturated = false;
    std::vector<std::size_t> lengths;
    lengths.reserve(threads_);
    for (const auto& ops : script_.threads) lengths.push_back(ops.size());
    result_.interleavings_total = os::interleaving_count(lengths, saturated);
    result_.total_saturated = saturated;

    explore();
    // The walk is done; merge the tail strictly in emission order.
    while (merged_ < emitted_) merge_next();

    result_.schedules_replayed = emitted_;
    result_.complete = !truncated_;
    return std::move(result_);
  }

 private:
  /// What the walk needs of one op, by index into ops_.
  struct Op {
    Verb verb = Verb::Read;
    bool pruned = false;      ///< caller-proven independent var or mutex
    std::uint32_t object = 0; ///< vars, then mutexes, then channels
    std::uint32_t slot = 0;   ///< this thread's entry in the object's tables
  };

  /// One executed event, in the slot of its depth. The saved fields are
  /// the table entries its execute replaced, for undo; its trace
  /// happens-before clock is row `depth` of clocks_.
  struct Event {
    std::uint32_t index = 0;  ///< op index in its thread's script
    int prev_last = kNone;    ///< last_event_of_[tid] before this event
    int saved_access = kNone; ///< last_access_ (or last_barrier_) entry replaced
    int saved_write = kNone;  ///< last_write_ entry replaced (writes)
    bool completed = false;   ///< the arrival completed a barrier cycle
    bool fed = false;         ///< it gave the detector a step
  };

  [[nodiscard]] Clock* clock(std::size_t depth) { return clocks_.data() + depth * threads_; }
  [[nodiscard]] const Clock* clock(std::size_t depth) const {
    return clocks_.data() + depth * threads_;
  }

  // Each frame slot holds three thread sets; explored is not one of them
  // because every explored thread also enters the frame's sleep set.
  static constexpr std::size_t kFrameSets = 3;
  enum FrameSet : std::size_t { kBacktrack, kSleep, kEnabled };

  Bits frame(std::size_t depth, FrameSet set) {
    return {frame_bits_.data() + (depth * kFrameSets + set) * words_, words_};
  }

  // --- per-run indexes ---

  /// Flatten the ops and give every (object, thread) pair that occurs
  /// one table slot, so the last-access tables hold one entry per pair
  /// and a lookup walks only the threads that touch the object.
  void index_ops(std::span<std::uint32_t> scratch) {
    const std::size_t vars = script_.vars.size(), mutexes = script_.mutexes.size();
    const std::size_t objects = vars + mutexes + script_.channels.size();
    const auto cursor = scratch.first(objects + 1);  // first a count per object
    const auto seen_by = scratch.subspan(objects + 1, objects);
    const auto pruned = scratch.subspan(2 * objects + 1, objects);
    std::fill(seen_by.begin(), seen_by.end(), kNoThread);
    // Names the script never uses are ignored.
    const auto prune = [&pruned](const std::vector<std::string>& table,
                                 const std::vector<std::string>& names, std::size_t base) {
      for (const std::string& name : names) {
        const auto it = std::find(table.begin(), table.end(), name);
        if (it == table.end()) continue;
        pruned[base + static_cast<std::size_t>(it - table.begin())] = 1;
      }
    };
    prune(script_.vars, options_.independent_vars, 0);
    prune(script_.mutexes, options_.independent_mutexes, vars);

    ops_.resize(total_ops_);
    std::uint32_t k = 0;
    for (std::uint32_t t = 0; t < threads_; ++t) {
      op_base_[t] = k;
      for (const ScriptOp& sop : script_.threads[t]) {
        Op& op = ops_[k++];
        op.verb = sop.verb;
        switch (object_kind(sop.verb)) {
          case ObjectKind::Var: op.object = sop.object; break;
          case ObjectKind::Mutex:
            op.object = static_cast<std::uint32_t>(vars + sop.object);
            break;
          case ObjectKind::Channel:
            op.object = static_cast<std::uint32_t>(vars + mutexes + sop.object);
            break;
          case ObjectKind::None: has_barriers_ = true; continue;
        }
        op.pruned = pruned[op.object] != 0;
        if (seen_by[op.object] != t) {
          seen_by[op.object] = t;
          ++cursor[op.object + 1];
        }
      }
    }
    // Slots of object g are [slot_begin_[g], slot_begin_[g + 1]), one
    // per accessing thread, ascending. Threads come in order, so a
    // thread that touched g already holds g's latest slot.
    for (std::size_t g = 0; g < objects; ++g) cursor[g + 1] += cursor[g];
    std::copy(cursor.begin(), cursor.end(), slot_begin_.begin());
    for (std::uint32_t t = 0; t < threads_; ++t) {
      for (std::size_t j = 0; j < script_.threads[t].size(); ++j) {
        Op& op = ops_[op_base_[t] + j];
        if (op.verb == Verb::Barrier) continue;
        std::uint32_t& next = cursor[op.object];
        if (next == slot_begin_[op.object] || slot_thread_[next - 1] != t) {
          slot_thread_[next++] = t;
        }
        op.slot = next - 1;
      }
    }
  }

  /// Name the run as the Script names it: each kind of name is one
  /// reserved block over the Script's own ids that reads the Script's
  /// strings in place. The same pass records each site's thread
  /// and the last index it sits at there, so guidance asks "still
  /// pending?" without scanning a script, and the detector registers
  /// the script's threads and learns the barrier's waiters.
  void name_script() {
    const auto operands = [this](NameKind kind, const std::vector<std::string>& table) {
      tables_.borrow(kind, table.size(),
                     [&table](std::size_t i) -> const std::string& { return table[i]; });
    };
    operands(NameKind::Var, script_.vars);
    operands(NameKind::Lock, script_.mutexes);
    operands(NameKind::Channel, script_.channels);

    site_thread_.back() = kNoThread;  // the unknown label's
    waiters_.reserve(threads_);
    for (std::uint32_t t = 0; t < threads_; ++t) {
      const auto& ops = script_.threads[t];
      if (!ops.empty()) waiters_.push_back(t);
      if (t > 0) (void)detector_.register_thread();
      for (std::uint32_t j = 0; j < ops.size(); ++j) {
        site_thread_[ops[j].site] = t;
        site_last_[ops[j].site] = j;
        if (ops[j].text.empty()) blank_site_ = ops[j].site;
      }
    }
    tables_.borrow(NameKind::Site, script_.sites,
                   [this](std::size_t i) -> const std::string& {
                     return script_.threads[site_thread_[i]][site_last_[i]].text;
                   });
  }

  /// The site of an op label; script_.sites for one no op carries. A
  /// label names its thread in its tag.
  [[nodiscard]] NameId site_of(std::string_view label) const {
    std::uint32_t t = 0;
    if (label.size() < 2 || label[0] != 't' ||
        std::from_chars(label.data() + 1, label.data() + label.size(), t).ec != std::errc{} ||
        t >= threads_) {
      return script_.sites;
    }
    for (const ScriptOp& op : script_.threads[t]) {
      if (op.text == label) return op.site;
    }
    return script_.sites;
  }

  [[nodiscard]] const Op& op_of(std::uint32_t t, std::size_t index) const {
    return ops_[op_base_[t] + index];
  }
  [[nodiscard]] const Op& next_op(std::uint32_t t) const {
    return op_of(t, state_.positions()[t]);
  }
  [[nodiscard]] NameId next_site(std::uint32_t t) const {
    return script_.threads[t][state_.positions()[t]].site;
  }

  // --- the DPOR walk (sequential, deterministic) ---

  /// Two ops of different threads are dependent iff reordering them
  /// could change the detector's verdict (see the soundness sketch in
  /// DESIGN.md §11): read/write or write/write on one variable, any two
  /// ops on one mutex or one channel, and a barrier arrival with
  /// anything — the completing arrival joins every waiter's clock, and
  /// which arrival completes is schedule-dependent.
  ///
  /// Caller-proven-independent variables (options.independent_vars:
  /// thread-local or consistently locked) drop their edges. A pruned
  /// access mutates no blocking state and its pairs are never
  /// co-enabled under blocking, so dropping the edge keeps both the
  /// clock joins and the sleep sets sound.
  ///
  /// Pure-guard mutexes (options.independent_mutexes) drop their
  /// cross-thread lock/unlock edges too: their critical sections hold
  /// only accesses to variables the mutex consistently protects, so
  /// two such sections commute as atomic blocks — neither the detector
  /// verdict nor any reachable stuck state depends on which thread won
  /// the lock. The walk still models the mutex's enabledness (a waiter
  /// parks until the section ends); only the ORDER stops mattering.
  static bool dep(const Op& a, const Op& b) {
    if (a.verb == Verb::Barrier || b.verb == Verb::Barrier) return true;
    if (a.object != b.object || a.pruned) return false;
    return object_kind(a.verb) != ObjectKind::Var || a.verb == Verb::Write ||
           b.verb == Verb::Write;  // read/read commutes
  }

  /// The last-access tables answer "which event of thread q is the
  /// latest one dependent with op?" without a scan: per variable the
  /// last write and the last access of each thread, per mutex and
  /// channel the last op of each thread, and each thread's last barrier
  /// and last event. Clocks grow along program order, so that latest
  /// event stands for all of q's earlier dependent ones. Calls f(e) for
  /// the candidates, one per table (some kNone).
  template <typename F>
  void for_each_dependent(std::uint32_t p, const Op& op, F f) const {
    if (op.verb == Verb::Barrier) {
      for (std::uint32_t q = 0; q < threads_; ++q) {
        if (q != p) f(last_event_of_[q]);
      }
      return;
    }
    if (!op.pruned) {
      const std::span<const int> table = op.verb == Verb::Read ? last_write_ : last_access_;
      for (std::uint32_t k = slot_begin_[op.object]; k < slot_begin_[op.object + 1]; ++k) {
        if (slot_thread_[k] != p) f(table[k]);
      }
    }
    if (has_barriers_) {
      for (std::uint32_t q = 0; q < threads_; ++q) {
        if (q != p) f(last_barrier_[q]);
      }
    }
  }

  /// Join into `row` the clocks of the executed events dependent with
  /// p's `op`. Most of them are ordered among themselves: the ops on one
  /// mutex or channel, a variable's writes with every access before
  /// them, and barrier arrivals with everything before them. So the
  /// latest of each such run carries the clocks of the rest, and only a
  /// variable's reads since its last write need joining one by one.
  void join_dependent(std::uint32_t p, const Op& op, Clock* row) const {
    const auto join = [&](int e) {
      if (e < 0) return;
      const Clock* other = clock(static_cast<std::size_t>(e));
      for (std::size_t q = 0; q < threads_; ++q) row[q] = std::max(row[q], other[q]);
    };
    if (op.verb == Verb::Barrier) {
      for (std::uint32_t q = 0; q < threads_; ++q) {
        if (q != p) join(last_event_of_[q]);
      }
      return;
    }
    if (has_barriers_) join(*std::max_element(last_barrier_.begin(), last_barrier_.end()));
    if (op.pruned) return;
    const auto begin = slot_begin_[op.object], end = slot_begin_[op.object + 1];
    const auto latest = [&](std::span<const int> table) {
      return *std::max_element(table.begin() + begin, table.begin() + end);
    };
    if (object_kind(op.verb) != ObjectKind::Var) {
      join(latest(last_access_));
      return;
    }
    const int write = latest(last_write_);
    join(write);
    if (op.verb != Verb::Write) return;
    for (std::uint32_t k = begin; k < end; ++k) {
      if (last_access_[k] > write) join(last_access_[k]);  // a read since that write
    }
  }

  /// Without blocking every pending op is enabled; with it,
  /// BlockingState decides.
  bool enabled(std::uint32_t t) const {
    return options_.model_blocking ? state_.enabled(t) : !state_.done(t);
  }

  /// Did executed event e happen-before (program order + dependence,
  /// transitively) some already-executed event of thread p?
  bool happens_before_thread(int e, std::uint32_t p) const {
    const int lp = last_event_of_[p];
    if (lp < 0) return false;
    const std::uint32_t q = schedule_[static_cast<std::size_t>(e)];
    return clock(static_cast<std::size_t>(lp))[q] >= clock(static_cast<std::size_t>(e))[q];
  }

  /// Run p's next op: the walk's tables and the blocking state (the
  /// detector is fed at the next emission).
  void execute(std::uint32_t p) {
    const std::size_t depth = executed_;
    const std::size_t index = state_.positions()[p];
    const Op& op = op_of(p, index);
    Event& ev = events_[depth];
    ev.index = static_cast<std::uint32_t>(index);
    ev.prev_last = last_event_of_[p];
    Clock* row = clock(depth);
    if (ev.prev_last >= 0) {
      std::copy_n(clock(static_cast<std::size_t>(ev.prev_last)), threads_, row);
    } else {
      std::fill_n(row, threads_, Clock{0});
    }
    join_dependent(p, op, row);
    ++row[p];

    const int self = static_cast<int>(depth);
    last_event_of_[p] = self;
    if (op.verb == Verb::Barrier) {
      ev.saved_access = std::exchange(last_barrier_[p], self);
    } else {
      ev.saved_access = std::exchange(last_access_[op.slot], self);
      if (op.verb == Verb::Write) {
        ev.saved_write = std::exchange(last_write_[op.slot], self);
      }
    }
    schedule_[depth] = p;
    ++executed_;
    ev.completed = state_.execute(p);
  }

  /// Give the detector the executed events it does not hold yet: each
  /// op's event, then the barrier completion its arrival made, as replay
  /// would at that depth. Feeding waits for an emission, so schedules
  /// share the prefix they have in common and a pruned subtree feeds
  /// nothing.
  void feed() {
    for (; fed_ < executed_; ++fed_) {
      Event& ev = events_[fed_];
      const std::uint32_t p = schedule_[fed_];
      const ScriptOp& sop = script_.threads[p][ev.index];
      ev.fed = sop.verb != Verb::Barrier || ev.completed;
      if (sop.verb != Verb::Barrier) detector_.step(sop.verb, p, sop.object, sop.site);
      if (ev.completed) detector_.step_barrier(waiters_);
    }
  }

  void undo(std::uint32_t p) {
    state_.undo(p);
    --executed_;
    const Event& ev = events_[executed_];
    if (executed_ < fed_) {
      if (ev.fed) detector_.undo();
      fed_ = executed_;
    }
    const Op& op = op_of(p, ev.index);
    last_event_of_[p] = ev.prev_last;
    if (op.verb == Verb::Barrier) {
      last_barrier_[p] = ev.saved_access;
    } else {
      last_access_[op.slot] = ev.saved_access;
      if (op.verb == Verb::Write) last_write_[op.slot] = ev.saved_write;
    }
  }

  /// Guidance score for choosing thread p next. 2: p's next op labels a
  /// hinted site pair whose partner is still pending elsewhere (this
  /// choice orders the pair right now); 1: a hinted op is pending later
  /// in p's script (run p toward it); 0: no hint says anything.
  int score(std::uint32_t p) const {
    const NameId site = next_site(p);
    if (hinted_[site] != 0) {
      for (const NameId partner : partners_[site]) {
        if (label_pending(partner, p)) return 2;
      }
      return 1;
    }
    return last_hinted_[p] > static_cast<int>(state_.positions()[p]) ? 1 : 0;
  }

  /// Is an op labelled `site` still unexecuted in a thread other than
  /// `self`?
  bool label_pending(NameId site, std::uint32_t self) const {
    const std::uint32_t t = site_thread_[site];
    return t != kNoThread && t != self && site_last_[site] >= state_.positions()[t];
  }

  /// Highest-score (then lowest-tid) member of a thread set.
  template <typename Word>
  std::uint32_t pick(Word word) const {
    std::uint32_t best = 0;
    int best_score = -1;
    for_each_bit(words_, word, [&](std::uint32_t t) {
      if (best_score == 2) return;  // nothing scores higher
      const int s = score(t);
      if (s > best_score) {
        best = t;
        best_score = s;
      }
    });
    return best;
  }

  /// Visit the node at `depth` (its sleep set already in its frame
  /// slot). Returns whether it opened a frame with children to walk.
  bool enter(std::size_t depth) {
    if (stop_) return false;
    ++result_.nodes_visited;

    Bits en = frame(depth, kEnabled);
    en.clear();
    for (std::uint32_t p = 0; p < threads_; ++p) {
      if (enabled(p)) en.set(p);
    }

    // Race analysis (Flanagan–Godefroid): for every thread p with a
    // pending op, find the most recent executed event that is dependent
    // with next(p) and not already ordered before p, and add p to the
    // backtrack set of the state that event executed from — or, when p
    // was disabled there (blocking mode), every thread that WAS enabled
    // (the conservative fallback; without blocking p is always enabled
    // at ancestors, so the fallback never fires). Per thread the tables
    // hold the latest dependent event; if that one is ordered before p,
    // so are all of the thread's earlier ones, so the latest unordered
    // candidate over threads is the qualifying maximum.
    //
    // This must run BEFORE the stuck-leaf return below: a blocked
    // pending op (say a lock on a mutex the other thread won) is
    // exactly the reversal that reaches a DIFFERENT stuck state, and
    // skipping the analysis at stuck leaves loses those states. At a
    // complete leaf no thread has a pending op, so the loop is a no-op
    // there and the non-blocking walk is unchanged.
    for (std::uint32_t p = 0; p < threads_; ++p) {
      if (state_.done(p)) continue;
      int latest = kNone;
      for_each_dependent(p, next_op(p), [&](int e) {
        if (e > latest && !happens_before_thread(e, p)) latest = e;
      });
      if (latest == kNone) continue;
      const auto at = static_cast<std::size_t>(latest);
      Bits backtrack = frame(at, kBacktrack);
      const Bits then_enabled = frame(at, kEnabled);
      if (then_enabled.test(p)) {
        if (backtrack.insert(p)) ++result_.backtrack_points;
      } else {
        for_each_bit(words_, [&](std::size_t i) { return then_enabled.word(i); },
                     [&](std::uint32_t q) {
                       if (backtrack.insert(q)) ++result_.backtrack_points;
                     });
      }
    }

    if (!any_bit(words_, [&](std::size_t i) { return en.word(i); })) {
      // Complete schedule, or (blocking mode) a maximal stuck prefix:
      // someone still has ops but nobody can move. Both are emitted —
      // the prefix carries real race evidence too — and the stuck
      // state is recorded once per position vector.
      emit();
      if (depth != total_ops_ && !stop_) record_deadlock();
      return false;
    }

    // Seed: the best-priority enabled thread not slept here. All
    // enabled threads asleep = this whole subtree re-derives schedules
    // a sibling already covers — prune.
    const Bits sleep = frame(depth, kSleep);
    const auto awake = [&](std::size_t i) { return en.word(i) & ~sleep.word(i); };
    if (!any_bit(words_, awake)) {
      ++result_.sleep_pruned;
      return false;
    }
    Bits backtrack = frame(depth, kBacktrack);
    backtrack.clear();
    backtrack.set(pick(awake));
    return true;
  }

  /// The walk, as an explicit stack of depth-indexed frame slots: pick
  /// the next unexplored backtrack choice at the current depth and
  /// descend, or, when none is left, undo the step that led here and
  /// put it to sleep in the parent's frame.
  void explore() {
    std::size_t depth = 0;
    frame(0, kSleep).clear();
    bool open = enter(0);
    while (true) {
      if (open && !stop_) {
        // Re-read every time: descendants add backtrack points here.
        const Bits backtrack = frame(depth, kBacktrack);
        const Bits sleep = frame(depth, kSleep);
        const auto todo = [&](std::size_t i) { return backtrack.word(i) & ~sleep.word(i); };
        if (any_bit(words_, todo)) {
          const std::uint32_t p = pick(todo);
          const Op& op = next_op(p);
          Bits child_sleep = frame(depth + 1, kSleep);
          child_sleep.clear();
          for_each_bit(words_, [&](std::size_t i) { return sleep.word(i); },
                       [&](std::uint32_t q) {
                         if (!dep(next_op(q), op)) child_sleep.set(q);
                       });
          execute(p);
          ++depth;
          open = enter(depth);
          continue;
        }
      }
      if (depth == 0) break;
      --depth;
      const std::uint32_t p = schedule_[depth];
      undo(p);
      frame(depth, kSleep).set(p);
      open = true;
    }
  }

  // --- emission, replay, and the deterministic merge ---

  /// Record the current (maximal, stuck) state once per position
  /// vector, in walk order.
  void record_deadlock() {
    ++result_.deadlocked_schedules;
    if (!deadlock_seen_.insert(state_.positions()).second) return;
    std::vector<std::string> witness;
    witness.reserve(executed_);
    for (std::size_t i = 0; i < executed_; ++i) {
      witness.push_back(script_.threads[schedule_[i]][events_[i].index].text);
    }
    result_.deadlocks.push_back(state_.deadlock(std::move(witness)));
  }

  void emit() {
    if (options_.max_schedules != 0 && emitted_ >= options_.max_schedules) {
      truncated_ = true;
      stop_ = true;
      return;
    }
    if (options_.max_events != 0 && events_emitted_ + executed_ > options_.max_events) {
      truncated_ = true;
      stop_ = true;
      return;
    }

    // Determinism contract: before emitting schedule k, exactly the
    // results of schedules 0..k-kSettleWindow-1 are merged (never more,
    // never fewer), so the hint set steering every later decision is a
    // pure function of the emission order.
    while (emitted_ - merged_ > kSettleWindow) merge_next();

    feed();  // the run's detector now stands at this schedule's events
    Pending& slot = pending_[emitted_ % pending_.size()];
    slot.events = detector_.events();
    slot.races.assign(detector_.records().begin(), detector_.records().end());
    ++emitted_;
    events_emitted_ += executed_;
  }

  /// Merge the oldest unmerged result (emission order).
  void merge_next() {
    const Pending& res = pending_[merged_ % pending_.size()];
    result_.events_replayed += res.events;
    if (!res.races.empty()) {
      ++result_.racy_schedules;
      if (result_.first_race_at == ExploreResult::kNoRace) {
        result_.first_race_at = merged_;
      }
    }
    for (const RaceRecord& r : res.races) {
      const RaceRecordKey key = race_key(r);
      const auto it = std::lower_bound(seen_.begin(), seen_.end(), key);
      if (it != seen_.end() && *it == key) continue;
      seen_.insert(it, key);
      if (options_.reprioritize_on_discovery) add_hint(r.first.where, r.second.where);
      result_.races.push_back(build_report(tables_, r));
    }
    ++merged_;
  }

  /// Hint the label pair (a, b). A race on an unlabelled op hints
  /// nothing.
  void add_hint(NameId a, NameId b) {
    if (a == blank_site_ || b == blank_site_) return;
    mark_hinted(a);
    mark_hinted(b);
    if (partners_.empty()) partners_.resize(hinted_.size());
    const auto pair = [this](NameId from, NameId to) {
      std::vector<NameId>& list = partners_[from];
      if (std::find(list.begin(), list.end(), to) == list.end()) list.push_back(to);
    };
    pair(a, b);
    pair(b, a);
  }

  void mark_hinted(NameId site) {
    if (hinted_[site] != 0) return;
    hinted_[site] = 1;
    const std::uint32_t t = site_thread_[site];
    if (t == kNoThread) return;
    last_hinted_[t] = std::max(last_hinted_[t], static_cast<int>(site_last_[site]));
  }

  const Script& script_;
  const ExploreOptions& options_;
  std::size_t threads_;
  std::size_t words_;  ///< words per thread set
  std::size_t total_ops_;

  // Names, given once per run: the Script's own, and the one detector
  // the walk feeds.
  static constexpr std::uint32_t kNoThread = ~std::uint32_t{0};
  NameTables tables_;
  std::shared_ptr<NameTables> names_;
  Detector detector_;
  std::vector<ThreadId> waiters_;  ///< threads with a non-empty script
  /// Each site's thread and last index there; the last entry stands
  /// for labels no op carries.
  std::span<std::uint32_t> site_thread_, site_last_;
  NameId blank_site_ = ~NameId{0};  ///< the empty label's site, if an op has it

  // The blocks the spans below are runs of.
  std::vector<std::uint32_t> words_block_;
  std::vector<int> ints_block_;

  // Per-run indexes (index_ops).
  std::vector<Op> ops_;
  std::span<std::uint32_t> op_base_;      ///< first ops_ index of each thread
  std::span<std::uint32_t> slot_begin_;   ///< table slots of each object
  std::span<std::uint32_t> slot_thread_;  ///< the thread of each slot
  bool has_barriers_ = false;

  // Walk state, sized once and reused by depth. state_ always tracks
  // positions; its blocking verdicts are consulted only under
  // model_blocking (enabled()).
  BlockingState state_;
  std::size_t executed_ = 0;
  std::size_t fed_ = 0;  ///< events the detector holds: a prefix of the executed ones
  std::vector<Event> events_;              ///< by depth
  std::span<Clock> clocks_;                ///< threads_ clocks per depth
  std::span<std::uint32_t> schedule_;      ///< thread of each executed event
  std::vector<std::uint64_t> frame_bits_;  ///< kFrameSets thread sets per depth
  std::span<int> last_event_of_;           ///< by thread
  std::span<int> last_barrier_;            ///< by thread
  std::span<int> last_access_;             ///< by slot
  std::span<int> last_write_;              ///< by slot (variables)
  bool stop_ = false;
  bool truncated_ = false;

  std::set<std::vector<std::size_t>> deadlock_seen_;  ///< stuck position vectors

  // Guidance state (mutated only at deterministic merge points), by
  // site id: hinted labels, each one's hinted partners, and per thread
  // the last index of a hinted op (-1: none).
  std::span<std::uint32_t> hinted_;
  std::vector<std::vector<NameId>> partners_;  ///< sized on the first hint
  std::span<int> last_hinted_;

  // Emission / merge state. pending_ is a ring: at most kSettleWindow+1
  // results are ever unmerged.
  struct Pending {
    std::uint64_t events = 0;
    std::vector<RaceRecord> races;
  };
  std::uint64_t emitted_ = 0;
  std::uint64_t events_emitted_ = 0;
  std::uint64_t merged_ = 0;
  std::array<Pending, kSettleWindow + 1> pending_;
  std::vector<RaceRecordKey> seen_;  ///< merged race keys, sorted

  ExploreResult result_;
};

}  // namespace

// ---------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------

Explorer::Explorer(std::vector<std::vector<std::string>> scripts, ExploreOptions options)
    : Explorer(parse_script(scripts), std::move(options)) {}

Explorer::Explorer(Script script, ExploreOptions options)
    : script_(std::move(script)), options_(std::move(options)) {
  // Dependence pruning is only sound when critical sections actually
  // exclude each other — without blocking, the enumerator happily
  // interleaves two "consistently locked" accesses inside one critical
  // section and the detector (correctly) reports the race the pruned
  // walk would have skipped.
  require((options_.independent_vars.empty() && options_.independent_mutexes.empty()) ||
              options_.model_blocking,
          "explore: independent_vars/independent_mutexes require model_blocking "
          "(lockset-based independence is unsound without real mutual exclusion)");
  // An unlock with no program-order lock would make the detector throw
  // mid-replay.
  require_lock_discipline(script_);
}

ExploreResult Explorer::run() { return Engine(script_, options_).run(); }

ExploreResult explore_races(const std::vector<std::vector<std::string>>& scripts,
                            ExploreOptions options) {
  return Explorer(scripts, std::move(options)).run();
}

std::string ExploreResult::summary() const {
  std::ostringstream out;
  out << "explored " << schedules_replayed << " of ";
  if (total_saturated) {
    out << ">1.8e19 (count saturated)";
  } else {
    out << interleavings_total;
  }
  out << " interleavings (" << (complete ? "complete" : "budget hit") << "): "
      << racy_schedules << " racy, " << races.size() << " distinct race(s), "
      << events_replayed << " events replayed";
  if (first_race_at != kNoRace) out << "; first race at schedule " << first_race_at;
  if (deadlocked_schedules > 0) {
    out << "; " << deadlocked_schedules << " schedule(s) deadlocked in "
        << deadlocks.size() << " distinct stuck state(s)";
  }
  return out.str();
}

// ---------------------------------------------------------------------
// Seeded script generator
// ---------------------------------------------------------------------

std::vector<std::vector<std::string>> generate_script(std::uint64_t seed,
                                                      ScriptGenConfig config) {
  common::SplitMix64 rng(seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull);
  std::vector<std::vector<std::string>> scripts(config.threads);
  for (std::size_t t = 0; t < config.threads; ++t) {
    std::vector<std::uint32_t> held;  // lock ids, acquisition order
    auto& script = scripts[t];

    // Lock-order-cycle shape: a thread-rotated two-lock nest, so any
    // two adjacent-rotation threads that both draw the shape acquire
    // the pair in conflicting orders (the ABBA deadlock).
    if (config.lock_cycles && config.locks >= 2 && rng.below(2) == 0) {
      const auto a = static_cast<std::uint32_t>(t % config.locks);
      const auto b = static_cast<std::uint32_t>((t + 1) % config.locks);
      script.push_back("lock m" + std::to_string(a));
      script.push_back("lock m" + std::to_string(b));
      held.push_back(a);
      held.push_back(b);
    }

    // Emit one shared access, wrapped in its variable's consistent
    // guard in lock-discipline mode (or bare when the guard is already
    // held — the access is still under it either way).
    const auto shared_access = [&](std::uint64_t v, std::string access) {
      if (config.lock_discipline && config.locks > 0) {
        const auto g = static_cast<std::uint32_t>(v % config.locks);
        if (std::find(held.begin(), held.end(), g) == held.end()) {
          script.push_back("lock m" + std::to_string(g));
          script.push_back(std::move(access));
          script.push_back("unlock m" + std::to_string(g));
          return;
        }
      }
      script.push_back(std::move(access));
    };

    while (script.size() < config.ops_per_thread) {
      switch (rng.below(8)) {
        case 0:
        case 1: {  // shared-variable access, the racy surface
          const std::uint64_t v = rng.below(config.shared_vars);
          const std::string var = "z" + std::to_string(v);
          shared_access(v, (rng.below(2) == 0 ? "read " : "write ") + var);
          break;
        }
        case 2: {  // private-variable access (independent with everything)
          if (config.private_vars == 0) break;
          const std::string var = "p" + std::to_string(t) + "_" +
                                  std::to_string(rng.below(config.private_vars));
          script.push_back((rng.below(2) == 0 ? "read " : "write ") + var);
          break;
        }
        case 3:
        case 4: {  // lock or unlock, respecting per-thread discipline
          if (config.locks == 0 || config.lock_discipline) break;
          if (!held.empty() && rng.below(2) == 0) {
            script.push_back("unlock m" + std::to_string(held.back()));
            held.pop_back();
          } else {
            const auto m = static_cast<std::uint32_t>(rng.below(config.locks));
            if (std::find(held.begin(), held.end(), m) != held.end()) break;
            script.push_back("lock m" + std::to_string(m));
            held.push_back(m);
          }
          break;
        }
        case 5:
        case 6: {  // channel send/recv
          if (config.channels == 0) break;
          const std::string ch = "q" + std::to_string(rng.below(config.channels));
          script.push_back((rng.below(2) == 0 ? "send " : "recv ") + ch);
          break;
        }
        default: {  // another shared access; keeps verdicts mixed
          const std::uint64_t v = rng.below(config.shared_vars);
          shared_access(v, "write z" + std::to_string(v));
          break;
        }
      }
    }
    // Channel-misuse shape: an extra recv with no matching send budget,
    // emitted while any nest is still held so recv-under-lock
    // communication deadlocks appear too.
    if (config.channel_misuse && config.channels > 0 && rng.below(2) == 0) {
      script.push_back("recv q" + std::to_string(rng.below(config.channels)));
    }
    while (!held.empty()) {  // balance: release everything still held
      script.push_back("unlock m" + std::to_string(held.back()));
      held.pop_back();
    }
    if (config.barriers) script.push_back("barrier");
  }
  return scripts;
}

}  // namespace cs31::race
