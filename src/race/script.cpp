#include "race/script.hpp"

#include <algorithm>
#include <array>
#include <string_view>

#include "common/error.hpp"

namespace cs31::race {
namespace {

constexpr std::array<std::string_view, 7> kVerbs = {"read", "write", "lock", "unlock",
                                                    "send", "recv", "barrier"};
constexpr std::array<const char*, 3> kOperands = {"a variable", "a mutex", "a channel"};
constexpr std::string_view kSpace = " \t\n\v\f\r";

/// The next whitespace-separated token of `text` from `at` on ("" when
/// none is left); `at` moves past it.
std::string_view next_token(std::string_view text, std::size_t& at) {
  const std::size_t begin = text.find_first_not_of(kSpace, at);
  if (begin == std::string_view::npos) {
    at = text.size();
    return {};
  }
  at = std::min(text.find_first_of(kSpace, begin), text.size());
  return text.substr(begin, at - begin);
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

Script parse_script(const ScriptText& text) {
  Script script;
  const std::array<std::vector<std::string>*, 3> tables = {&script.vars, &script.mutexes,
                                                          &script.channels};
  script.threads.resize(text.ends.size());
  std::size_t first = 0;
  for (std::size_t t = 0; t < text.ends.size(); ++t) {
    const std::string tag = "t" + std::to_string(t) + ' ';
    std::vector<ScriptOp>& ops = script.threads[t];
    ops.reserve(text.ends[t] - first);
    for (; first < text.ends[t]; ++first) {
      const std::string_view raw = text.ops[first];
      ScriptOp op;
      op.text.reserve(tag.size() + raw.size());
      op.text.append(tag).append(raw);
      std::size_t at = 0;
      const std::string_view word = next_token(raw, at);
      if (word.empty()) reject(op.text, "missing a verb");
      const auto verb = std::find(kVerbs.begin(), kVerbs.end(), word);
      if (verb == kVerbs.end()) reject(op.text, "unknown verb '" + std::string(word) + "'");
      op.verb = static_cast<Verb>(verb - kVerbs.begin());
      const ObjectKind kind = object_kind(op.verb);
      const std::string_view operand = kind == ObjectKind::None ? "" : next_token(raw, at);
      const std::string_view extra = next_token(raw, at);
      if (!extra.empty()) reject(op.text, "unexpected token '" + std::string(extra) + "'");
      if (kind != ObjectKind::None) {
        const auto k = static_cast<std::size_t>(kind);
        if (operand.empty()) {
          reject(op.text, "'" + to_string(op.verb) + "' needs " + kOperands[k]);
        }
        std::vector<std::string>& table = *tables[k];
        op.object = static_cast<std::uint32_t>(
            std::find(table.begin(), table.end(), operand) - table.begin());
        if (op.object == table.size()) table.emplace_back(operand);
      }
      // A label repeats only inside its thread (it carries the tag).
      const auto same = std::find_if(ops.begin(), ops.end(), [&op](const ScriptOp& prior) {
        return prior.verb == op.verb && prior.object == op.object && prior.text == op.text;
      });
      op.site = same != ops.end() ? same->site : script.sites++;
      ops.push_back(std::move(op));
    }
  }
  return script;
}

Script parse_script(const std::vector<std::vector<std::string>>& scripts) {
  ScriptText text;
  for (const auto& ops : scripts) {
    text.ops.insert(text.ops.end(), ops.begin(), ops.end());
    text.ends.push_back(text.ops.size());
  }
  return parse_script(text);
}

std::vector<std::pair<std::size_t, std::size_t>> unmatched_unlocks(const Script& script) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t t = 0; t < script.threads.size(); ++t) {
    const std::vector<ScriptOp>& ops = script.threads[t];
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].verb != Verb::Unlock) continue;
      // The mutex's held count before op i, unmatched unlocks aside.
      std::size_t held = 0;
      for (std::size_t j = 0; j < i; ++j) {
        if (ops[j].object != ops[i].object) continue;
        if (ops[j].verb == Verb::Lock) ++held;
        if (ops[j].verb == Verb::Unlock && held > 0) --held;
      }
      if (held == 0) out.emplace_back(t, i);
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
      objects_(script.mutexes.size() + script.channels.size(), 0),
      arrivals_(script.threads.size(), 0) {}

std::size_t BlockingState::count_completed() const {
  std::size_t completed = SIZE_MAX;
  for (std::size_t t = 0; t < arrivals_.size(); ++t) {
    if (!script_->threads[t].empty()) completed = std::min(completed, arrivals_[t]);
  }
  return completed == SIZE_MAX ? 0 : completed;
}

bool BlockingState::enabled(std::size_t t) const {
  if (done(t) || parked(t)) return false;
  const ScriptOp& op = next(t);
  if (op.verb == Verb::Lock) return objects_[op.object] == 0;
  if (op.verb == Verb::Recv) return objects_[script_->mutexes.size() + op.object] > 0;
  return true;
}

bool BlockingState::execute(std::size_t t) {
  const ScriptOp& op = next(t);
  ++pos_[t];
  std::int64_t* fill = objects_.data() + script_->mutexes.size();
  switch (op.verb) {
    case Verb::Lock: objects_[op.object] = 1; break;
    case Verb::Unlock: objects_[op.object] = 0; break;
    case Verb::Send: ++fill[op.object]; break;
    case Verb::Recv: --fill[op.object]; break;
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
  std::int64_t* fill = objects_.data() + script_->mutexes.size();
  switch (op.verb) {
    case Verb::Lock: objects_[op.object] = 0; break;
    case Verb::Unlock: objects_[op.object] = 1; break;
    case Verb::Send: --fill[op.object]; break;
    case Verb::Recv: ++fill[op.object]; break;
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
