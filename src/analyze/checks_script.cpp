#include "analyze/checks_script.hpp"

#include <algorithm>
#include <span>
#include <sstream>

#include "common/json.hpp"

namespace cs31::analyze {

using common::json_quote;

namespace {

std::string join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

/// "{a, b}": a lockset of mutex ranks, by name.
std::string lockset_text(const ScriptModel& model, std::span<const std::uint32_t> locks) {
  std::string out = "{";
  for (std::size_t i = 0; i < locks.size(); ++i) {
    if (i) out += ", ";
    out += model.mutex_of_rank(locks[i]);
  }
  out += '}';
  return out;
}

bool disjoint(std::span<const std::uint32_t> a, std::span<const std::uint32_t> b) {
  // Both ascending (ScriptModel::locks).
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia == *ib) return false;
    if (*ia < *ib) {
      ++ia;
    } else {
      ++ib;
    }
  }
  return true;
}

Diagnostic at(const ScriptOp& op, Severity severity, std::string pass,
              std::string message) {
  Diagnostic d;
  d.severity = severity;
  d.pass = std::move(pass);
  d.function = "t" + std::to_string(op.thread);
  d.line = static_cast<int>(op.index) + 1;
  d.message = std::move(message);
  return d;
}

/// First edge (in the deduplicated, sorted edge order) that lies inside
/// the component — the op diagnostics point at. Tarjan guarantees an
/// internal edge for every component it reports as cyclic.
const ScriptOp* cycle_witness(const std::vector<OrderEdge>& edges,
                              const std::vector<Resource>& component) {
  const auto in = [&component](Resource r) {
    return std::binary_search(component.begin(), component.end(), r);
  };
  for (const OrderEdge& e : edges) {
    if (in(e.from) && in(e.to)) return e.witness;
  }
  return nullptr;
}

std::vector<std::string> resource_names(const ScriptModel& model,
                                        const std::vector<Resource>& component) {
  std::vector<std::string> names;
  names.reserve(component.size());
  for (const Resource r : component) names.push_back(model.resource_name(r));
  return names;
}

}  // namespace

std::string StaticDeadlock::to_string() const {
  std::string out = "deadlock candidate [" + kind + "]: " + join(resources, ", ");
  if (!witness.empty()) out += " (at '" + witness + "')";
  return out;
}

bool ConcurSummary::covers_race(const std::string& variable, const std::string& site_a,
                                const std::string& site_b) const {
  for (const StaticRace& r : races) {
    if (r.variable != variable) continue;
    if ((r.first == site_a && r.second == site_b) ||
        (r.first == site_b && r.second == site_a)) {
      return true;
    }
  }
  return false;
}

std::string ConcurSummary::to_json() const {
  std::ostringstream out;
  out << "{\"threads\":" << threads << ",\"ops\":" << ops;
  out << ",\"race_candidates\":[";
  for (std::size_t i = 0; i < races.size(); ++i) {
    const StaticRace& r = races[i];
    if (i) out << ',';
    out << "{\"variable\":" << json_quote(r.variable)
        << ",\"first\":" << json_quote(r.first)
        << ",\"second\":" << json_quote(r.second) << '}';
  }
  out << "],\"deadlock_candidates\":[";
  for (std::size_t i = 0; i < deadlocks.size(); ++i) {
    const StaticDeadlock& d = deadlocks[i];
    if (i) out << ',';
    out << "{\"kind\":" << json_quote(d.kind) << ",\"resources\":[";
    for (std::size_t j = 0; j < d.resources.size(); ++j) {
      if (j) out << ',';
      out << json_quote(d.resources[j]);
    }
    out << "],\"guaranteed\":" << (d.guaranteed ? "true" : "false");
    if (!d.witness.empty()) out << ",\"witness\":" << json_quote(d.witness);
    out << '}';
  }
  out << "],\"thread_local\":[";
  for (std::size_t i = 0; i < thread_local_vars.size(); ++i) {
    if (i) out << ',';
    out << json_quote(thread_local_vars[i]);
  }
  out << "],\"guarded\":{";
  bool first = true;
  for (const auto& [var, lock] : guarded_vars) {
    if (!first) out << ',';
    first = false;
    out << json_quote(var) << ':' << json_quote(lock);
  }
  out << "},\"pure_guards\":[";
  for (std::size_t i = 0; i < independent_mutexes.size(); ++i) {
    if (i) out << ',';
    out << json_quote(independent_mutexes[i]);
  }
  out << "],\"diagnostics\":" << render_json(diagnostics) << '}';
  return out.str();
}

ConcurSummary analyze_scripts(const std::vector<std::vector<std::string>>& scripts) {
  return analyze_scripts(race::parse_script(scripts));
}

ConcurSummary analyze_scripts(const race::Script& script) {
  const ScriptModel model = build_script_model(script);
  ConcurSummary summary;
  summary.threads = model.threads.size();
  summary.ops = script.total_ops();

  // --- static race candidates -------------------------------------
  // A label names its op's variable, so a pair of sites is a candidate
  // key; the table is built on the first candidate.
  std::vector<bool> race_seen;
  for (std::size_t i = 0; i < model.ops.size(); ++i) {
    const ScriptOp& a = model.ops[i];
    if (!a.access()) continue;
    for (std::size_t j = i + 1; j < model.ops.size(); ++j) {
      const ScriptOp& b = model.ops[j];
      if (!b.access() || a.thread == b.thread || a.object() != b.object()) continue;
      if (a.verb() != Verb::Write && b.verb() != Verb::Write) continue;
      if (!disjoint(model.locks(a), model.locks(b))) continue;
      if (model.barrier_ordered(a, b)) continue;

      if (race_seen.empty()) {
        race_seen.assign(std::size_t{script.sites} * script.sites, false);
      }
      const std::size_t lo = std::min(a.op->site, b.op->site);
      const std::size_t hi = std::max(a.op->site, b.op->site);
      if (race_seen[lo * script.sites + hi]) continue;
      race_seen[lo * script.sites + hi] = true;

      const std::string& variable = model.name(a);
      StaticRace race;
      race.variable = variable;
      race.first = model.text(a);
      race.second = model.text(b);
      race.first_thread = a.thread;
      race.second_thread = b.thread;
      race.first_is_write = a.verb() == Verb::Write;
      race.second_is_write = b.verb() == Verb::Write;
      race.explanation = "locksets " + lockset_text(model, model.locks(a)) + " vs " +
                         lockset_text(model, model.locks(b)) +
                         " share no lock and no barrier orders the pair";

      Diagnostic d = at(a, Severity::Warning, "static-race",
                        "'" + variable + "' may race: '" + race.first + "' and '" +
                            race.second + "' can run unordered; " + race.explanation);
      d.notes.push_back("second access: '" + race.second + "' (t" +
                        std::to_string(b.thread) + " op " + std::to_string(b.index + 1) +
                        ")");
      summary.diagnostics.push_back(std::move(d));
      summary.races.push_back(std::move(race));
    }
  }

  // --- deadlock candidates: cycles ---------------------------------
  // Self-loops in the lock-order graph come from self-relocks, which
  // the dedicated check below reports with a sharper message — only
  // multi-node lock cycles are the ABBA shape.
  for (const auto& component : cycle_components(model.lock_order)) {
    if (component.size() < 2) continue;
    const ScriptOp* witness = cycle_witness(model.lock_order, component);
    const std::vector<std::string> names = resource_names(model, component);
    summary.deadlocks.push_back(
        {"lock-order-cycle", names, witness ? model.text(*witness) : "", false});
    if (witness != nullptr) {
      summary.diagnostics.push_back(
          at(*witness, Severity::Warning, "lock-order-cycle",
             "lock-order cycle through " + join(names, ", ") +
                 ": threads acquire these in conflicting orders, so some schedule "
                 "deadlocks"));
    }
  }
  // Wait-order cycles that are not pure lock cycles are communication
  // deadlocks (a channel or the barrier participates).
  for (const auto& component : cycle_components(model.wait_order)) {
    const auto is_mutex = [&model](Resource r) { return model.is_mutex(r); };
    if (std::all_of(component.begin(), component.end(), is_mutex)) {
      continue;  // reported above / self-deadlock
    }
    const ScriptOp* witness = cycle_witness(model.wait_order, component);
    const std::vector<std::string> names = resource_names(model, component);
    summary.deadlocks.push_back(
        {"channel-wait-cycle", names, witness ? model.text(*witness) : "", false});
    if (witness != nullptr) {
      summary.diagnostics.push_back(
          at(*witness, Severity::Warning, "channel-wait-cycle",
             "wait-order cycle through " + join(names, ", ") +
                 ": progress on each resource requires the others, so some schedule "
                 "deadlocks"));
    }
  }

  // --- per-thread discipline ---------------------------------------
  for (const ThreadScript& thread : model.threads) {
    for (const std::uint32_t idx : thread.self_relocks) {
      const ScriptOp& op = thread.ops[idx];
      summary.deadlocks.push_back(
          {"self-deadlock", {"mutex " + model.name(op)}, model.text(op), true});
      summary.diagnostics.push_back(
          at(op, Severity::Error, "self-deadlock",
             "re-lock of held mutex '" + model.name(op) +
                 "': this thread blocks on itself in every schedule that reaches this "
                 "op"));
    }
    for (const std::uint32_t idx : thread.unmatched_unlocks) {
      const ScriptOp& op = thread.ops[idx];
      summary.diagnostics.push_back(
          at(op, Severity::Error, "unlock-without-lock",
             "unlock of '" + model.name(op) +
                 "' without a matching program-order lock (the dynamic tier rejects "
                 "this script)"));
    }
  }

  // --- channel accounting -------------------------------------------
  for (const std::uint32_t channel : model.channels_by_name) {
    const std::uint32_t recv_count = model.recvs[channel];
    const std::uint32_t send_count = model.sends[channel];
    if (recv_count <= send_count) continue;
    // Attribute to the first recv of the channel in (thread, op) order.
    const auto first_recv =
        std::find_if(model.ops.begin(), model.ops.end(), [&](const ScriptOp& op) {
          return op.verb() == Verb::Recv && op.object() == channel;
        });
    const ScriptOp* witness = first_recv == model.ops.end() ? nullptr : &*first_recv;
    const std::string& name = script.channels[channel];
    summary.deadlocks.push_back(
        {"recv-no-send", {"channel " + name}, witness ? model.text(*witness) : "", true});
    if (witness != nullptr) {
      summary.diagnostics.push_back(
          at(*witness, Severity::Error, "recv-no-send",
             "channel '" + name + "' receives " + std::to_string(recv_count) +
                 " time(s) but is sent only " + std::to_string(send_count) +
                 " time(s): a recv waits forever in every complete schedule"));
    }
  }

  // --- barrier accounting --------------------------------------------
  if (model.max_arrivals > model.min_arrivals) {
    std::vector<std::string> lagging;
    const ScriptOp* witness = nullptr;
    for (std::size_t t = 0; t < model.threads.size(); ++t) {
      const ThreadScript& thread = model.threads[t];
      if (thread.ops.empty()) continue;
      if (thread.barrier_arrivals == model.min_arrivals) {
        lagging.push_back("t" + std::to_string(t));
      } else if (witness == nullptr) {
        // The (min+1)-th arrival of the first eager thread: the op
        // that can never complete.
        std::uint32_t arrivals = 0;
        for (const ScriptOp& op : thread.ops) {
          if (op.verb() != Verb::Barrier) continue;
          if (++arrivals == model.min_arrivals + 1) {
            witness = &op;
            break;
          }
        }
      }
    }
    summary.deadlocks.push_back(
        {"barrier-starvation", {"barrier"}, witness ? model.text(*witness) : "", true});
    if (witness != nullptr) {
      summary.diagnostics.push_back(
          at(*witness, Severity::Error, "barrier-starvation",
             "barrier arrival " + std::to_string(model.min_arrivals + 1) +
                 " can never complete: " + join(lagging, ", ") + " arrive(s) only " +
                 std::to_string(model.min_arrivals) + " time(s)"));
    }
  }

  // --- independence facts --------------------------------------------
  // guard[var]: the rank of the first lock every access of var holds,
  // or kNone.
  // The scratch of the last two checks, one block: guard by variable,
  // then two flags by mutex.
  constexpr std::uint32_t kNone = ScriptModel::kMany;
  std::vector<std::uint32_t> scratch(script.vars.size() + 2 * script.mutexes.size(), 0);
  const auto guard = std::span<std::uint32_t>(scratch).first(script.vars.size());
  std::fill(guard.begin(), guard.end(), kNone);
  std::vector<std::uint32_t> common;
  for (const std::uint32_t var : model.vars_by_name) {
    const std::string& name = script.vars[var];
    if (model.var_owner[var] != ScriptModel::kMany) {
      summary.thread_local_vars.push_back(name);
      continue;
    }
    // Intersect the must-locksets of every access of var.
    bool first = true;
    for (const ScriptOp& op : model.ops) {
      if (!op.access() || op.object() != var) continue;
      const auto locks = model.locks(op);
      if (first) {
        common.assign(locks.begin(), locks.end());
        first = false;
      } else {
        std::erase_if(common, [&locks](std::uint32_t lock) {
          return !std::binary_search(locks.begin(), locks.end(), lock);
        });
      }
      if (common.empty()) break;
    }
    if (common.empty()) continue;
    guard[var] = common.front();
    const std::string& lock = model.mutex_of_rank(common.front());
    summary.guarded_vars[name] = lock;
    Diagnostic d;
    d.severity = Severity::Note;
    d.pass = "guarded-by";
    d.message = "'" + name + "' is consistently guarded by '" + lock +
                "' (never a race candidate under blocking semantics)";
    summary.diagnostics.push_back(std::move(d));
  }

  // --- pure-guard mutexes --------------------------------------------
  // A mutex is a pure guard when every critical section on it closes in
  // program order and holds only read/write ops on variables guarded by
  // that same mutex (or thread-local). Any other op inside a section —
  // another lock (can block), send/recv/barrier (can block or order), a
  // section left open at thread end (waiters starve), an access to a
  // variable with other unguarded sites (the section's release/acquire
  // edges could mask that race in one acquisition order) — disqualifies
  // it. Survivors' critical sections commute as atomic blocks.
  const auto impure = std::span<std::uint32_t>(scratch).subspan(script.vars.size(),
                                                                 script.mutexes.size());
  const auto seen = std::span<std::uint32_t>(scratch).last(script.mutexes.size());
  std::vector<std::uint32_t>& held = common;  // mutex ids, acquisition order
  const auto taint_held = [&] {
    for (const std::uint32_t h : held) impure[h] = 1;
  };
  for (const ThreadScript& thread : model.threads) {
    held.clear();
    for (const ScriptOp& op : thread.ops) {
      switch (op.verb()) {
        case Verb::Lock:
          seen[op.object()] = 1;
          taint_held();
          held.push_back(op.object());
          break;
        case Verb::Unlock: {
          const auto it = std::find(held.rbegin(), held.rend(), op.object());
          if (it != held.rend()) {
            held.erase(std::next(it).base());
          } else {
            impure[op.object()] = 1;  // unlock-without-lock
          }
          break;
        }
        case Verb::Read:
        case Verb::Write:
          for (const std::uint32_t h : held) {
            const bool guarded_by_h = guard[op.object()] == model.mutex_rank[h];
            if (!guarded_by_h && model.var_owner[op.object()] == ScriptModel::kMany) {
              impure[h] = 1;
            }
          }
          break;
        case Verb::Send:
        case Verb::Recv:
        case Verb::Barrier:
          taint_held();
          break;
      }
    }
    taint_held();  // never released
  }
  for (const std::uint32_t m : model.mutexes_by_name) {
    if (seen[m] != 0 && impure[m] == 0) {
      summary.independent_mutexes.push_back(script.mutexes[m]);
    }
  }

  normalize(summary.diagnostics);
  return summary;
}

race::ExploreOptions seed_explore_options(const ConcurSummary& summary,
                                          race::ExploreOptions base) {
  race::ExploreOptions options = std::move(base);
  // The independence facts assume lock/recv actually block; the
  // Explorer enforces the pairing, we just make it the default here.
  options.model_blocking = true;
  for (const StaticRace& r : summary.races) {
    race::RaceReport hint;
    hint.variable = r.variable;
    hint.first.thread = static_cast<race::ThreadId>(r.first_thread);
    hint.first.kind = r.first_is_write ? race::AccessKind::Write : race::AccessKind::Read;
    hint.first.where = r.first;
    hint.second.thread = static_cast<race::ThreadId>(r.second_thread);
    hint.second.kind =
        r.second_is_write ? race::AccessKind::Write : race::AccessKind::Read;
    hint.second.where = r.second;
    hint.explanation = r.explanation;
    options.hints.push_back(std::move(hint));
  }
  std::vector<std::string> independent = summary.thread_local_vars;
  for (const auto& [var, lock] : summary.guarded_vars) {
    (void)lock;
    independent.push_back(var);
  }
  std::sort(independent.begin(), independent.end());
  independent.erase(std::unique(independent.begin(), independent.end()),
                    independent.end());
  for (std::string& var : independent) {
    options.independent_vars.push_back(std::move(var));
  }
  for (const std::string& m : summary.independent_mutexes) {
    options.independent_mutexes.push_back(m);
  }
  return options;
}

}  // namespace cs31::analyze
