#include "race/replay.hpp"

#include <algorithm>
#include <charconv>
#include <set>

#include "common/error.hpp"
#include "os/interleave.hpp"

namespace cs31::race {
namespace {

/// Tags above this are rejected rather than registered as that many
/// detector threads.
constexpr std::uint32_t kMaxTag = 1u << 16;

/// Split "t<k> <op>" into (k, "<op>").
std::pair<std::uint32_t, std::string> split_tag(const std::string& text) {
  const auto untagged = [&text] {
    return Error("script op '" + text + "': missing its thread tag (t<k>)");
  };
  const std::size_t end = std::min(text.find_first_of(" \t"), text.size());
  if (end < 2 || text[0] != 't') throw untagged();
  std::uint32_t k = 0;
  const auto [ptr, ec] = std::from_chars(text.data() + 1, text.data() + end, k);
  if (ec != std::errc{} || ptr != text.data() + end || k > kMaxTag) throw untagged();
  return {k, end < text.size() ? text.substr(end + 1) : std::string()};
}

}  // namespace

std::vector<std::vector<std::string>> tag_threads(
    const std::vector<std::vector<std::string>>& scripts) {
  std::vector<std::vector<std::string>> tagged(scripts.size());
  for (std::size_t k = 0; k < scripts.size(); ++k) {
    const std::string prefix = "t" + std::to_string(k) + ' ';
    for (const std::string& op : scripts[k]) tagged[k].push_back(prefix + op);
  }
  return tagged;
}

ReplayResult replay(const std::vector<std::string>& interleaving, ReplayOptions options) {
  Detector detector;
  return replay(interleaving, detector, options);
}

ReplayResult replay(const std::vector<std::string>& interleaving, EventSink& sink,
                    ReplayOptions options) {
  // A thread's ops in interleaving order are its script.
  std::vector<std::vector<std::string>> scripts;
  Schedule schedule;
  schedule.reserve(interleaving.size());
  for (const std::string& text : interleaving) {
    auto [k, op] = split_tag(text);
    if (k >= scripts.size()) scripts.resize(k + 1);
    scripts[k].push_back(std::move(op));
    schedule.push_back(k);
  }
  Script script = parse_script(scripts);
  require_lock_discipline(script);
  // Site labels keep the interleaving's own spelling.
  std::vector<std::size_t> next(scripts.size(), 0);
  for (std::size_t i = 0; i < interleaving.size(); ++i) {
    script.threads[schedule[i]][next[schedule[i]]++].text = interleaving[i];
  }
  ReplayResult result = replay(script, schedule, sink, options);
  result.schedule = interleaving;
  return result;
}

ReplayResult replay(const Script& script, const Schedule& schedule, EventSink& sink,
                    ReplayOptions options) {
  const ScriptIds ids = intern_script(script, sink);
  BlockingState state(script);
  ReplayResult result;
  result.executed = replay_ids(script, ids, schedule, sink, state, options);
  result.feasible = result.executed == schedule.size();
  result.races = sink.races();
  result.events = sink.events();
  return result;
}

ScriptIds intern_script(const Script& script, EventSink& sink) {
  ScriptIds ids;
  for (const std::string& name : script.vars) ids.vars.push_back(sink.intern_var(name));
  for (const std::string& name : script.mutexes) {
    ids.locks.push_back(sink.intern_lock(name));
  }
  for (const std::string& name : script.channels) {
    ids.channels.push_back(sink.intern_channel(name));
  }
  ids.sites.resize(script.threads.size());
  for (std::size_t k = 0; k < script.threads.size(); ++k) {
    for (const ScriptOp& op : script.threads[k]) {
      ids.sites[k].push_back(sink.intern_site(op.text));
    }
    if (!script.threads[k].empty()) ids.waiters.push_back(static_cast<ThreadId>(k));
  }
  return ids;
}

std::size_t replay_ids(const Script& script, const ScriptIds& ids,
                       std::span<const std::uint32_t> schedule, EventSink& sink,
                       BlockingState& state, ReplayOptions options) {
  // Replay threads are concurrent roots, script k as detector thread k
  // (the sink pre-registers thread 0).
  for (std::size_t k = 1; k < script.threads.size(); ++k) (void)sink.register_thread();

  std::size_t executed = 0;
  for (const std::uint32_t t : schedule) {
    if (t >= script.threads.size() || state.done(t)) {
      throw Error("replay schedule runs thread " + std::to_string(t) + " past its script");
    }
    if (options.model_blocking && !state.enabled(t)) break;
    const ScriptOp& op = state.next(t);
    const NameId site = ids.sites[t][state.positions()[t]];
    switch (op.verb) {
      case Verb::Read: sink.read(t, ids.vars[op.object], site); break;
      case Verb::Write: sink.write(t, ids.vars[op.object], site); break;
      case Verb::Lock: sink.acquire(t, ids.locks[op.object]); break;
      case Verb::Unlock: sink.release(t, ids.locks[op.object]); break;
      case Verb::Send: sink.channel_send(t, ids.channels[op.object]); break;
      case Verb::Recv: sink.channel_recv(t, ids.channels[op.object]); break;
      case Verb::Barrier: break;
    }
    if (state.execute(t)) sink.barrier(ids.waiters);
    ++executed;
  }
  for (std::size_t i = executed; i-- > 0;) state.undo(schedule[i]);
  return executed;
}

std::vector<ReplayResult> replay_all_interleavings(
    const std::vector<std::vector<std::string>>& scripts, std::size_t limit) {
  // Stream schedules straight into the detector instead of
  // materializing the full os::all_interleavings set first — the only
  // retained state is the results the caller asked for. Thread tags
  // make every position-choice path a distinct schedule, so the path
  // count the enumerator caps equals the old distinct count.
  std::vector<ReplayResult> results;
  (void)os::for_each_interleaving(
      tag_threads(scripts), [&](const std::vector<std::string>& schedule) {
        require(results.size() < limit, "interleaving enumeration exceeds the limit");
        results.push_back(replay(schedule));
        return true;
      });
  // The materializing path returned schedules in sorted order; keep
  // that contract so summaries and first-racy-schedule demos are
  // byte-stable across the refactor.
  std::sort(results.begin(), results.end(),
            [](const ReplayResult& a, const ReplayResult& b) {
              return a.schedule < b.schedule;
            });
  return results;
}

ReplayStats summarize(const std::vector<ReplayResult>& results) {
  ReplayStats stats;
  stats.schedules = results.size();
  for (const ReplayResult& r : results) {
    if (!r.race_free()) ++stats.racy;
  }
  stats.distinct = distinct_races(results).size();
  return stats;
}

std::vector<RaceReport> distinct_races(const std::vector<ReplayResult>& results) {
  std::vector<RaceReport> out;
  std::set<RacePairKey> seen;
  for (const ReplayResult& result : results) {
    for (const RaceReport& r : result.races) {
      if (seen.insert(race_pair_key(r.variable, r.first, r.second)).second) {
        out.push_back(r);
      }
    }
  }
  return out;
}

namespace {

/// Memoized DFS over position vectors (see find_deadlocks in the
/// header): the position vector determines the rest of the blocking
/// state exactly because scripts are straight-line.
struct DeadlockSearch {
  const Script& script;
  std::size_t max_states;
  BlockingState state;
  std::vector<std::string> trail;
  std::set<std::vector<std::size_t>> visited;
  DeadlockSearchResult out;

  DeadlockSearch(const Script& s, std::size_t m) : script(s), max_states(m), state(s) {}

  void visit() {
    if (visited.count(state.positions()) != 0) return;
    if (out.states_visited >= max_states) {
      out.complete = false;
      return;
    }
    visited.insert(state.positions());
    ++out.states_visited;

    bool all_done = true;
    bool any_enabled = false;
    for (std::size_t t = 0; t < script.threads.size(); ++t) {
      if (!state.done(t)) all_done = false;
      if (state.enabled(t)) any_enabled = true;
    }
    if (!any_enabled) {
      if (!all_done) out.deadlocks.push_back(state.deadlock(trail));
      return;
    }
    for (std::size_t t = 0; t < script.threads.size(); ++t) {
      if (!state.enabled(t)) continue;
      trail.push_back(state.next(t).text);
      state.execute(t);
      visit();
      state.undo(t);
      trail.pop_back();
    }
  }
};

}  // namespace

DeadlockSearchResult find_deadlocks(const std::vector<std::vector<std::string>>& scripts,
                                    std::size_t max_states) {
  // Validate up front: malformed ops and unlock-without-lock throw
  // here, never mid-search.
  const Script script = parse_script(scripts);
  require_lock_discipline(script);
  DeadlockSearch search(script, max_states);
  search.visit();
  return std::move(search.out);
}

}  // namespace cs31::race
