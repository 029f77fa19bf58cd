#include "race/explore.hpp"

#include <algorithm>
#include <deque>
#include <set>
#include <sstream>
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

// ---------------------------------------------------------------------
// The engine: one run() owns the walk, the replay, and the merge.
// ---------------------------------------------------------------------

class Engine {
 public:
  Engine(const Script& script, const ExploreOptions& options, std::uint64_t total,
         bool total_saturated, std::set<std::uint32_t> independent_vars,
         std::set<std::uint32_t> independent_mutexes)
      : script_(script),
        options_(options),
        independent_vars_(std::move(independent_vars)),
        independent_mutexes_(std::move(independent_mutexes)),
        threads_(script.threads.size()),
        state_(script) {
    result_.interleavings_total = total;
    result_.total_saturated = total_saturated;
    last_event_of_.assign(threads_, -1);
    for (const RaceReport& hint : options_.hints) {
      add_hint(hint.first.where, hint.second.where);
    }
  }

  ExploreResult run() {
    explore(std::set<std::uint32_t>{});
    // The walk is done; merge the tail strictly in emission order.
    while (merged_ < emitted_) merge_next();

    result_.schedules_replayed = emitted_;
    result_.complete = !truncated_;
    return std::move(result_);
  }

 private:
  // --- the DPOR walk (sequential, deterministic) ---

  struct Event {
    std::uint32_t tid = 0;
    const ScriptOp* op = nullptr;
    int prev_last = -1;               ///< last_event_of_[tid] before this event
    std::vector<std::uint32_t> clock; ///< trace happens-before clock
  };

  struct Frame {
    std::set<std::uint32_t> backtrack;
    std::set<std::uint32_t> sleep;
    std::set<std::uint32_t> explored;
    /// Threads enabled in this state — the DPOR race analysis falls
    /// back to "add everything enabled here" when the thread it wants
    /// to add was disabled (only possible under blocking semantics).
    std::set<std::uint32_t> enabled;
  };

  /// Two ops of different threads are dependent iff reordering them
  /// could change the detector's verdict (see the soundness sketch in
  /// DESIGN.md §11). Barrier arrivals are dependent with everything:
  /// the completing arrival joins every waiter's clock, and which
  /// arrival completes is schedule-dependent.
  ///
  /// Caller-proven-independent variables (options.independent_vars:
  /// thread-local or consistently locked) drop their edges. A pruned access mutates no blocking state and its pairs
  /// are never co-enabled under blocking, so dropping the edge keeps
  /// both the clock joins and the sleep sets sound.
  ///
  /// Pure-guard mutexes (options.independent_mutexes) drop their
  /// cross-thread lock/unlock edges too: their critical sections hold
  /// only accesses to variables the mutex consistently protects, so
  /// two such sections commute as atomic blocks — neither the detector
  /// verdict nor any reachable stuck state depends on which thread won
  /// the lock. The walk still models the mutex's enabledness (a waiter
  /// parks until the section ends); only the ORDER stops mattering.
  bool dep(const ScriptOp& a, const ScriptOp& b) const {
    if (a.verb == Verb::Barrier || b.verb == Verb::Barrier) return true;
    const ObjectKind kind = object_kind(a.verb);
    if (kind != object_kind(b.verb) || a.object != b.object) return false;
    if (kind == ObjectKind::Var) {
      if (independent_vars_.count(a.object) != 0) return false;
      return a.verb == Verb::Write || b.verb == Verb::Write;  // read/read commutes
    }
    // Mutex and channel ops on the same object.
    return kind != ObjectKind::Mutex || independent_mutexes_.count(a.object) == 0;
  }

  /// Without blocking every pending op is enabled; with it,
  /// BlockingState decides.
  bool enabled(std::uint32_t t) const {
    return options_.model_blocking ? state_.enabled(t) : !state_.done(t);
  }

  /// Did executed event i happen-before (program order + dependence,
  /// transitively) some already-executed event of thread p?
  bool happens_before_thread(std::size_t i, std::uint32_t p) const {
    const int lp = last_event_of_[p];
    if (lp < 0) return false;
    const Event& ei = executed_[i];
    return executed_[static_cast<std::size_t>(lp)].clock[ei.tid] >= ei.clock[ei.tid];
  }

  void execute(std::uint32_t p) {
    Event ev;
    ev.tid = p;
    ev.op = &state_.next(p);
    ev.prev_last = last_event_of_[p];
    if (ev.prev_last >= 0) {
      ev.clock = executed_[static_cast<std::size_t>(ev.prev_last)].clock;
    } else {
      ev.clock.assign(threads_, 0);
    }
    for (const Event& prior : executed_) {
      if (prior.tid == p || !dep(*prior.op, *ev.op)) continue;
      for (std::size_t k = 0; k < threads_; ++k) {
        ev.clock[k] = std::max(ev.clock[k], prior.clock[k]);
      }
    }
    ev.clock[p] += 1;
    last_event_of_[p] = static_cast<int>(executed_.size());
    executed_.push_back(std::move(ev));
    state_.execute(p);
  }

  void undo(std::uint32_t p) {
    state_.undo(p);
    last_event_of_[p] = executed_.back().prev_last;
    executed_.pop_back();
  }

  /// Guidance score for choosing thread p next. 2: p's next op labels a
  /// hinted site pair whose partner is still pending elsewhere (this
  /// choice orders the pair right now); 1: a hinted op is pending later
  /// in p's script (run p toward it); 0: no hint says anything.
  int score(std::uint32_t p) const {
    if (hint_labels_.empty()) return 0;
    const ScriptOp& np = state_.next(p);
    if (hint_labels_.count(np.text) != 0) {
      for (const auto& [a, b] : hint_pairs_) {
        const std::string* partner = nullptr;
        if (a == np.text) partner = &b;
        else if (b == np.text) partner = &a;
        if (partner != nullptr && label_pending(*partner, p)) return 2;
      }
      return 1;
    }
    const auto& ops = script_.threads[p];
    for (std::size_t j = state_.positions()[p] + 1; j < ops.size(); ++j) {
      if (hint_labels_.count(ops[j].text) != 0) return 1;
    }
    return 0;
  }

  /// Is an op labelled `label` still unexecuted in a thread other than
  /// `self`?
  bool label_pending(const std::string& label, std::uint32_t self) const {
    for (std::uint32_t q = 0; q < threads_; ++q) {
      if (q == self) continue;
      const auto& ops = script_.threads[q];
      for (std::size_t j = state_.positions()[q]; j < ops.size(); ++j) {
        if (ops[j].text == label) return true;
      }
    }
    return false;
  }

  /// Highest-score (then lowest-tid) member of `candidates`.
  std::uint32_t pick(const std::vector<std::uint32_t>& candidates) const {
    std::uint32_t best = candidates.front();
    int best_score = score(best);
    for (std::size_t i = 1; i < candidates.size(); ++i) {
      const int s = score(candidates[i]);
      if (s > best_score) {
        best = candidates[i];
        best_score = s;
      }
    }
    return best;
  }

  void explore(std::set<std::uint32_t> sleep) {
    if (stop_) return;
    ++result_.nodes_visited;
    const std::size_t depth = executed_.size();

    std::vector<std::uint32_t> en;
    for (std::uint32_t p = 0; p < threads_; ++p) {
      if (enabled(p)) en.push_back(p);
    }

    // Race analysis (Flanagan–Godefroid): for every thread p with a
    // pending op, find the most recent executed event that is dependent
    // with next(p) and not already ordered before p, and add p to the
    // backtrack set of the state that event executed from — or, when p
    // was disabled there (blocking mode), every thread that WAS enabled
    // (the conservative fallback; without blocking p is always enabled
    // at ancestors, so the fallback never fires).
    //
    // This must run BEFORE the stuck-leaf return below: a blocked
    // pending op (say a lock on a mutex the other thread won) is
    // exactly the reversal that reaches a DIFFERENT stuck state, and
    // skipping the analysis at stuck leaves loses those states. At a
    // complete leaf no thread has a pending op, so the loop is a no-op
    // there and the non-blocking walk is unchanged.
    for (std::uint32_t p = 0; p < threads_; ++p) {
      if (state_.done(p)) continue;
      const ScriptOp& np = state_.next(p);
      for (std::size_t i = depth; i-- > 0;) {
        const Event& ev = executed_[i];
        if (ev.tid == p || !dep(*ev.op, np)) continue;
        // An ordered dependent event is not a reversible race — keep
        // scanning for an earlier unordered one (the max of the
        // qualifying set, per the algorithm).
        if (happens_before_thread(i, p)) continue;
        if (frames_[i].enabled.count(p) != 0) {
          if (frames_[i].backtrack.insert(p).second) ++result_.backtrack_points;
        } else {
          for (const std::uint32_t q : frames_[i].enabled) {
            if (frames_[i].backtrack.insert(q).second) ++result_.backtrack_points;
          }
        }
        break;
      }
    }

    if (en.empty()) {
      // Complete schedule, or (blocking mode) a maximal stuck prefix:
      // someone still has ops but nobody can move. Both are emitted —
      // the prefix carries real race evidence too — and the stuck
      // state is recorded once per position vector.
      if (depth == script_.total_ops()) {
        emit();
      } else {
        emit();
        if (!stop_) record_deadlock();
      }
      return;
    }

    frames_.emplace_back();
    frames_.back().sleep = std::move(sleep);
    frames_.back().enabled.insert(en.begin(), en.end());

    // Seed: the best-priority enabled thread not slept here. All
    // enabled threads asleep = this whole subtree re-derives schedules
    // a sibling already covers — prune.
    {
      std::vector<std::uint32_t> awake;
      for (const std::uint32_t p : en) {
        if (frames_[depth].sleep.count(p) == 0) awake.push_back(p);
      }
      if (awake.empty()) {
        ++result_.sleep_pruned;
        frames_.pop_back();
        return;
      }
      frames_[depth].backtrack.insert(pick(awake));
    }

    while (!stop_) {
      // Re-read every iteration: descendants add backtrack points here.
      std::vector<std::uint32_t> todo;
      for (const std::uint32_t p : frames_[depth].backtrack) {
        if (frames_[depth].sleep.count(p) == 0 && frames_[depth].explored.count(p) == 0) {
          todo.push_back(p);
        }
      }
      if (todo.empty()) break;
      const std::uint32_t p = pick(todo);
      const ScriptOp& op = state_.next(p);

      std::set<std::uint32_t> child_sleep;
      for (const std::uint32_t q : frames_[depth].sleep) {
        if (!dep(state_.next(q), op)) child_sleep.insert(q);
      }

      execute(p);
      explore(std::move(child_sleep));
      undo(p);

      frames_[depth].explored.insert(p);
      frames_[depth].sleep.insert(p);
    }
    frames_.pop_back();
  }

  // --- emission, replay, and the deterministic merge ---

  /// Record the current (maximal, stuck) state once per position
  /// vector, in walk order.
  void record_deadlock() {
    ++result_.deadlocked_schedules;
    if (!deadlock_seen_.insert(state_.positions()).second) return;
    std::vector<std::string> witness;
    witness.reserve(executed_.size());
    for (const Event& ev : executed_) witness.push_back(ev.op->text);
    result_.deadlocks.push_back(state_.deadlock(std::move(witness)));
  }

  void emit() {
    if (options_.max_schedules != 0 && emitted_ >= options_.max_schedules) {
      truncated_ = true;
      stop_ = true;
      return;
    }
    if (options_.max_events != 0 &&
        events_emitted_ + executed_.size() > options_.max_events) {
      truncated_ = true;
      stop_ = true;
      return;
    }

    // Determinism contract: before emitting schedule k, exactly the
    // results of schedules 0..k-kSettleWindow-1 are merged (never more,
    // never fewer), so the hint set steering every later decision is a
    // pure function of the emission order.
    while (emitted_ - merged_ > kSettleWindow) merge_next();

    Schedule schedule;
    schedule.reserve(executed_.size());
    for (const Event& ev : executed_) schedule.push_back(ev.tid);
    Detector detector;
    pending_.push_back(
        replay(script_, schedule, detector, ReplayOptions{options_.model_blocking}));
    ++emitted_;
    events_emitted_ += executed_.size();
  }

  /// Merge the oldest unmerged result (emission order).
  void merge_next() {
    ReplayResult res = std::move(pending_.front());
    pending_.pop_front();

    result_.events_replayed += res.events;
    if (!res.races.empty()) {
      ++result_.racy_schedules;
      if (result_.first_race_at == ExploreResult::kNoRace) {
        result_.first_race_at = merged_;
      }
    }
    for (RaceReport& r : res.races) {
      if (seen_.insert(race_pair_key(r.variable, r.first, r.second)).second) {
        if (options_.reprioritize_on_discovery) add_hint(r.first.where, r.second.where);
        result_.races.push_back(std::move(r));
      }
    }
    ++merged_;
  }

  void add_hint(const std::string& a, const std::string& b) {
    if (a.empty() || b.empty()) return;
    hint_labels_.insert(a);
    hint_labels_.insert(b);
    hint_pairs_.emplace_back(a, b);
  }

  const Script& script_;
  const ExploreOptions& options_;
  std::set<std::uint32_t> independent_vars_;     ///< pruned var ids (dep())
  std::set<std::uint32_t> independent_mutexes_;  ///< pure-guard mutex ids (dep())
  std::size_t threads_;

  // Walk state. state_ always tracks positions; its blocking verdicts
  // are consulted only under model_blocking (enabled()).
  BlockingState state_;
  std::vector<int> last_event_of_;
  std::vector<Event> executed_;
  std::vector<Frame> frames_;
  bool stop_ = false;
  bool truncated_ = false;

  std::set<std::vector<std::size_t>> deadlock_seen_;  ///< stuck position vectors

  // Guidance state (mutated only at deterministic merge points).
  std::set<std::string> hint_labels_;
  std::vector<std::pair<std::string, std::string>> hint_pairs_;

  // Emission / merge state.
  std::uint64_t emitted_ = 0;
  std::uint64_t events_emitted_ = 0;
  std::uint64_t merged_ = 0;
  std::deque<ReplayResult> pending_;  ///< results emitted_-merged_, oldest first
  std::set<RacePairKey> seen_;

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

ExploreResult Explorer::run() {
  // The multinomial depends only on the script lengths.
  std::vector<std::vector<std::string>> shape;
  for (const auto& ops : script_.threads) shape.emplace_back(ops.size());
  bool saturated = false;
  const std::uint64_t total = os::interleaving_count(shape, saturated);
  // Names the script never uses are ignored.
  const auto ids = [](const std::vector<std::string>& table,
                      const std::vector<std::string>& names) {
    std::set<std::uint32_t> out;
    for (const std::string& name : names) {
      const auto it = std::find(table.begin(), table.end(), name);
      if (it != table.end()) out.insert(static_cast<std::uint32_t>(it - table.begin()));
    }
    return out;
  };
  Engine engine(script_, options_, total, saturated,
                ids(script_.vars, options_.independent_vars),
                ids(script_.mutexes, options_.independent_mutexes));
  return engine.run();
}

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
