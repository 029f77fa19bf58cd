#include "analyze/checks_script.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <tuple>

#include "common/json.hpp"

namespace cs31::analyze {

using common::json_quote;

namespace {

std::string lockset_text(const std::vector<std::string>& locks) {
  std::string out = "{";
  for (std::size_t i = 0; i < locks.size(); ++i) {
    if (i) out += ", ";
    out += locks[i];
  }
  out += '}';
  return out;
}

std::string join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

bool disjoint(const std::vector<std::string>& a, const std::vector<std::string>& b) {
  // Both sorted (ScriptOp::must_locks contract).
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
                              const std::vector<std::string>& component) {
  const std::set<std::string> in(component.begin(), component.end());
  for (const OrderEdge& e : edges) {
    if (in.count(e.from) != 0 && in.count(e.to) != 0) return e.witness;
  }
  return nullptr;
}

bool all_mutexes(const std::vector<std::string>& component) {
  return std::all_of(component.begin(), component.end(), [](const std::string& r) {
    return r.rfind("mutex ", 0) == 0;
  });
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
  const std::vector<const ScriptOp*> accesses = model.accesses();
  std::set<std::tuple<std::string, std::string, std::string>> race_seen;
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    for (std::size_t j = i + 1; j < accesses.size(); ++j) {
      const ScriptOp& a = *accesses[i];
      const ScriptOp& b = *accesses[j];
      if (a.thread == b.thread || a.object != b.object) continue;
      if (a.verb != Verb::Write && b.verb != Verb::Write) continue;
      if (!disjoint(a.must_locks, b.must_locks)) continue;
      if (model.barrier_ordered(a, b)) continue;

      if (!race_seen.emplace(a.object, std::min(a.text, b.text), std::max(a.text, b.text))
               .second) {
        continue;
      }

      StaticRace race;
      race.variable = a.object;
      race.first = a.text;
      race.second = b.text;
      race.first_thread = a.thread;
      race.second_thread = b.thread;
      race.first_is_write = a.verb == Verb::Write;
      race.second_is_write = b.verb == Verb::Write;
      race.explanation = "locksets " + lockset_text(a.must_locks) + " vs " +
                         lockset_text(b.must_locks) +
                         " share no lock and no barrier orders the pair";

      Diagnostic d = at(a, Severity::Warning, "static-race",
                        "'" + a.object + "' may race: '" + a.text + "' and '" + b.text +
                            "' can run unordered; " + race.explanation);
      d.notes.push_back("second access: '" + b.text + "' (t" +
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
    summary.deadlocks.push_back(
        {"lock-order-cycle", component, witness ? witness->text : "", false});
    if (witness != nullptr) {
      summary.diagnostics.push_back(
          at(*witness, Severity::Warning, "lock-order-cycle",
             "lock-order cycle through " + join(component, ", ") +
                 ": threads acquire these in conflicting orders, so some schedule "
                 "deadlocks"));
    }
  }
  // Wait-order cycles that are not pure lock cycles are communication
  // deadlocks (a channel or the barrier participates).
  for (const auto& component : cycle_components(model.wait_order)) {
    if (all_mutexes(component)) continue;  // reported above / self-deadlock
    const ScriptOp* witness = cycle_witness(model.wait_order, component);
    summary.deadlocks.push_back(
        {"channel-wait-cycle", component, witness ? witness->text : "", false});
    if (witness != nullptr) {
      summary.diagnostics.push_back(
          at(*witness, Severity::Warning, "channel-wait-cycle",
             "wait-order cycle through " + join(component, ", ") +
                 ": progress on each resource requires the others, so some schedule "
                 "deadlocks"));
    }
  }

  // --- per-thread discipline ---------------------------------------
  for (const ThreadScript& thread : model.threads) {
    for (const std::size_t idx : thread.self_relocks) {
      const ScriptOp& op = thread.ops[idx];
      summary.deadlocks.push_back(
          {"self-deadlock", {mutex_resource(op.object)}, op.text, true});
      summary.diagnostics.push_back(
          at(op, Severity::Error, "self-deadlock",
             "re-lock of held mutex '" + op.object +
                 "': this thread blocks on itself in every schedule that reaches this "
                 "op"));
    }
    for (const std::size_t idx : thread.unmatched_unlocks) {
      const ScriptOp& op = thread.ops[idx];
      summary.diagnostics.push_back(
          at(op, Severity::Error, "unlock-without-lock",
             "unlock of '" + op.object +
                 "' without a matching program-order lock (the dynamic tier rejects "
                 "this script)"));
    }
  }

  // --- channel accounting -------------------------------------------
  for (const auto& [channel, recv_count] : model.recvs) {
    const auto sent = model.sends.find(channel);
    const std::size_t send_count = sent == model.sends.end() ? 0 : sent->second;
    if (recv_count <= send_count) continue;
    // Attribute to the first recv of the channel in (thread, op) order.
    const ScriptOp* witness = nullptr;
    for (const ThreadScript& thread : model.threads) {
      for (const ScriptOp& op : thread.ops) {
        if (op.verb == Verb::Recv && op.object == channel) {
          witness = &op;
          break;
        }
      }
      if (witness != nullptr) break;
    }
    summary.deadlocks.push_back({"recv-no-send",
                                 {channel_resource(channel)},
                                 witness ? witness->text : "",
                                 true});
    if (witness != nullptr) {
      summary.diagnostics.push_back(
          at(*witness, Severity::Error, "recv-no-send",
             "channel '" + channel + "' receives " + std::to_string(recv_count) +
                 " time(s) but is sent only " + std::to_string(send_count) +
                 " time(s): a recv waits forever in every complete schedule"));
    }
  }

  // --- barrier accounting --------------------------------------------
  if (model.max_arrivals > model.min_arrivals) {
    std::vector<std::string> lagging;
    const ScriptOp* witness = nullptr;
    for (const ThreadScript& thread : model.threads) {
      if (thread.ops.empty()) continue;
      if (thread.barrier_arrivals == model.min_arrivals) {
        lagging.push_back(thread.tag);
      } else if (witness == nullptr) {
        // The (min+1)-th arrival of the first eager thread: the op
        // that can never complete.
        std::size_t arrivals = 0;
        for (const ScriptOp& op : thread.ops) {
          if (op.verb != Verb::Barrier) continue;
          if (++arrivals == model.min_arrivals + 1) {
            witness = &op;
            break;
          }
        }
      }
    }
    summary.deadlocks.push_back({"barrier-starvation",
                                 {barrier_resource()},
                                 witness ? witness->text : "",
                                 true});
    if (witness != nullptr) {
      summary.diagnostics.push_back(
          at(*witness, Severity::Error, "barrier-starvation",
             "barrier arrival " + std::to_string(model.min_arrivals + 1) +
                 " can never complete: " + join(lagging, ", ") + " arrive(s) only " +
                 std::to_string(model.min_arrivals) + " time(s)"));
    }
  }

  // --- independence facts --------------------------------------------
  for (const auto& [var, owners] : model.var_threads) {
    if (owners.size() == 1) {
      summary.thread_local_vars.push_back(var);
      continue;
    }
    // Intersect the must-locksets of every access of var.
    std::vector<std::string> common;
    bool first = true;
    for (const ThreadScript& thread : model.threads) {
      for (const ScriptOp& op : thread.ops) {
        if (op.object != var ||
            (op.verb != Verb::Read && op.verb != Verb::Write)) {
          continue;
        }
        if (first) {
          common = op.must_locks;
          first = false;
        } else {
          std::vector<std::string> next;
          std::set_intersection(common.begin(), common.end(), op.must_locks.begin(),
                                op.must_locks.end(), std::back_inserter(next));
          common = std::move(next);
        }
        if (common.empty()) break;
      }
      if (!first && common.empty()) break;
    }
    if (!common.empty()) {
      summary.guarded_vars[var] = common.front();
      Diagnostic d;
      d.severity = Severity::Note;
      d.pass = "guarded-by";
      d.message = "'" + var + "' is consistently guarded by '" + common.front() +
                  "' (never a race candidate under blocking semantics)";
      summary.diagnostics.push_back(std::move(d));
    }
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
  std::set<std::string> impure;
  std::set<std::string> seen_mutexes;
  const auto thread_local_var = [&summary](const std::string& var) {
    return std::binary_search(summary.thread_local_vars.begin(),
                              summary.thread_local_vars.end(), var);
  };
  for (const ThreadScript& thread : model.threads) {
    std::vector<std::string> held;  // acquisition order
    for (const ScriptOp& op : thread.ops) {
      switch (op.verb) {
        case Verb::Lock:
          seen_mutexes.insert(op.object);
          for (const std::string& h : held) impure.insert(h);
          held.push_back(op.object);
          break;
        case Verb::Unlock: {
          const auto it = std::find(held.rbegin(), held.rend(), op.object);
          if (it != held.rend()) {
            held.erase(std::next(it).base());
          } else {
            impure.insert(op.object);  // unlock-without-lock
          }
          break;
        }
        case Verb::Read:
        case Verb::Write:
          for (const std::string& h : held) {
            const auto guard = summary.guarded_vars.find(op.object);
            const bool guarded_by_h =
                guard != summary.guarded_vars.end() && guard->second == h;
            if (!guarded_by_h && !thread_local_var(op.object)) impure.insert(h);
          }
          break;
        case Verb::Send:
        case Verb::Recv:
        case Verb::Barrier:
          for (const std::string& h : held) impure.insert(h);
          break;
      }
    }
    for (const std::string& h : held) impure.insert(h);  // never released
  }
  for (const std::string& m : seen_mutexes) {
    if (impure.count(m) == 0) summary.independent_mutexes.push_back(m);
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
