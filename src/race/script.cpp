#include "race/script.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <string_view>

#include "common/error.hpp"

namespace cs31::race {
namespace {

constexpr std::array<std::string_view, 7> kVerbs = {"read", "write", "lock", "unlock",
                                                    "send", "recv", "barrier"};
constexpr std::array<const char*, 3> kOperands = {"a variable", "a mutex", "a channel"};
constexpr std::string_view kSpace = " \t\n\v\f\r";

std::vector<std::string_view> tokens(std::string_view text) {
  std::vector<std::string_view> out;
  std::size_t begin = text.find_first_not_of(kSpace);
  while (begin != std::string_view::npos) {
    const std::size_t end = text.find_first_of(kSpace, begin);
    out.push_back(text.substr(begin, end - begin));
    begin = text.find_first_not_of(kSpace, end);
  }
  return out;
}

[[noreturn]] void reject(const std::string& label, const std::string& problem) {
  throw Error("script op '" + label + "': " + problem);
}

}  // namespace

std::string to_string(Verb verb) {
  return std::string(kVerbs[static_cast<std::size_t>(verb)]);
}

ObjectKind object_kind(Verb verb) {
  switch (verb) {
    case Verb::Read:
    case Verb::Write: return ObjectKind::Var;
    case Verb::Lock:
    case Verb::Unlock: return ObjectKind::Mutex;
    case Verb::Send:
    case Verb::Recv: return ObjectKind::Channel;
    case Verb::Barrier: break;
  }
  return ObjectKind::None;
}

const std::string& Script::name(const ScriptOp& op) const {
  static const std::string kNone;
  switch (object_kind(op.verb)) {
    case ObjectKind::Var: return vars[op.object];
    case ObjectKind::Mutex: return mutexes[op.object];
    case ObjectKind::Channel: return channels[op.object];
    case ObjectKind::None: break;
  }
  return kNone;
}

std::size_t Script::total_ops() const {
  std::size_t n = 0;
  for (const auto& ops : threads) n += ops.size();
  return n;
}

Script parse_script(const std::vector<std::vector<std::string>>& scripts) {
  Script script;
  const std::array<std::vector<std::string>*, 3> tables = {&script.vars, &script.mutexes,
                                                          &script.channels};
  std::array<std::map<std::string, std::uint32_t>, 3> ids;
  script.threads.resize(scripts.size());
  for (std::size_t t = 0; t < scripts.size(); ++t) {
    const std::string tag = "t" + std::to_string(t) + ' ';
    script.threads[t].reserve(scripts[t].size());
    for (const std::string& raw : scripts[t]) {
      ScriptOp op;
      op.text = tag + raw;
      const std::vector<std::string_view> words = tokens(raw);
      if (words.empty()) reject(op.text, "missing a verb");
      const auto verb = std::find(kVerbs.begin(), kVerbs.end(), words[0]);
      if (verb == kVerbs.end()) {
        reject(op.text, "unknown verb '" + std::string(words[0]) + "'");
      }
      op.verb = static_cast<Verb>(verb - kVerbs.begin());
      const ObjectKind kind = object_kind(op.verb);
      const std::size_t arity = kind == ObjectKind::None ? 1 : 2;
      if (words.size() > arity) {
        reject(op.text, "unexpected token '" + std::string(words[arity]) + "'");
      }
      if (kind != ObjectKind::None) {
        const auto k = static_cast<std::size_t>(kind);
        if (words.size() < 2) {
          reject(op.text, "'" + to_string(op.verb) + "' needs " + kOperands[k]);
        }
        const auto [it, inserted] =
            ids[k].try_emplace(std::string(words[1]),
                               static_cast<std::uint32_t>(tables[k]->size()));
        if (inserted) tables[k]->push_back(it->first);
        op.object = it->second;
      }
      script.threads[t].push_back(std::move(op));
    }
  }
  return script;
}

std::vector<std::pair<std::size_t, std::size_t>> unmatched_unlocks(const Script& script) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t t = 0; t < script.threads.size(); ++t) {
    std::vector<std::size_t> held(script.mutexes.size());
    for (std::size_t i = 0; i < script.threads[t].size(); ++i) {
      const ScriptOp& op = script.threads[t][i];
      if (op.verb == Verb::Lock) ++held[op.object];
      if (op.verb != Verb::Unlock) continue;
      if (held[op.object] == 0) {
        out.emplace_back(t, i);
      } else {
        --held[op.object];
      }
    }
  }
  return out;
}

void require_lock_discipline(const Script& script) {
  const auto unmatched = unmatched_unlocks(script);
  if (unmatched.empty()) return;
  const auto [t, i] = unmatched.front();
  reject(script.threads[t][i].text, "unlock without a matching program-order lock");
}

std::string DeadlockState::to_string() const {
  std::string out = "deadlock after " + std::to_string(witness.size()) + " step(s):";
  for (std::size_t i = 0; i < waiting.size(); ++i) {
    out += i == 0 ? " " : "; ";
    out += "'" + waiting[i] + "' waits on " + resources[i];
  }
  return out;
}

// ---------------------------------------------------------------------
// BlockingState
// ---------------------------------------------------------------------

BlockingState::BlockingState(const Script& script)
    : script_(&script),
      pos_(script.threads.size(), 0),
      held_(script.mutexes.size(), false),
      fill_(script.channels.size(), 0),
      arrivals_(script.threads.size(), 0) {
  for (std::size_t t = 0; t < script.threads.size(); ++t) {
    if (!script.threads[t].empty()) participants_.push_back(t);
  }
}

std::size_t BlockingState::count_completed() const {
  std::size_t completed = participants_.empty() ? 0 : SIZE_MAX;
  for (const std::size_t t : participants_) completed = std::min(completed, arrivals_[t]);
  return completed;
}

bool BlockingState::enabled(std::size_t t) const {
  if (done(t) || parked(t)) return false;
  const ScriptOp& op = next(t);
  if (op.verb == Verb::Lock) return !held_[op.object];
  if (op.verb == Verb::Recv) return fill_[op.object] > 0;
  return true;
}

bool BlockingState::execute(std::size_t t) {
  const ScriptOp& op = next(t);
  ++pos_[t];
  switch (op.verb) {
    case Verb::Lock: held_[op.object] = true; break;
    case Verb::Unlock: held_[op.object] = false; break;
    case Verb::Send: ++fill_[op.object]; break;
    case Verb::Recv: --fill_[op.object]; break;
    case Verb::Barrier: {
      const std::size_t before = completed_;
      ++arrivals_[t];
      completed_ = count_completed();
      return completed_ > before;
    }
    case Verb::Read:
    case Verb::Write: break;
  }
  return false;
}

void BlockingState::undo(std::size_t t) {
  --pos_[t];
  const ScriptOp& op = next(t);
  switch (op.verb) {
    case Verb::Lock: held_[op.object] = false; break;
    case Verb::Unlock: held_[op.object] = true; break;
    case Verb::Send: --fill_[op.object]; break;
    case Verb::Recv: ++fill_[op.object]; break;
    case Verb::Barrier:
      --arrivals_[t];
      completed_ = count_completed();
      break;
    case Verb::Read:
    case Verb::Write: break;
  }
}

DeadlockState BlockingState::deadlock(std::vector<std::string> witness) const {
  DeadlockState state;
  for (std::size_t t = 0; t < pos_.size(); ++t) {
    if (done(t)) continue;
    if (parked(t)) {
      state.waiting.push_back(script_->threads[t][pos_[t] - 1].text);
      state.resources.emplace_back("barrier");
    } else {
      const ScriptOp& op = next(t);
      state.waiting.push_back(op.text);
      state.resources.push_back((op.verb == Verb::Lock ? "mutex " : "channel ") +
                                script_->name(op));
    }
  }
  state.witness = std::move(witness);
  return state;
}

}  // namespace cs31::race
