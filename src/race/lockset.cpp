#include "race/lockset.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace cs31::race {

namespace {

/// In-place intersection of two sorted id sets.
void intersect(std::vector<NameId>& into, const std::vector<NameId>& other) {
  std::vector<NameId> out;
  std::set_intersection(into.begin(), into.end(), other.begin(), other.end(),
                        std::back_inserter(out));
  into = std::move(out);
}

}  // namespace

LocksetDetector::LocksetDetector() { held_.emplace_back(); }

void LocksetDetector::check_thread(ThreadId t) const {
  if (t >= held_.size()) {
    throw Error("lockset: unknown thread id " + std::to_string(t));
  }
}

ThreadId LocksetDetector::register_thread() {
  held_.emplace_back();
  return static_cast<ThreadId>(held_.size() - 1);
}

ThreadId LocksetDetector::fork(ThreadId parent) {
  check_thread(parent);
  ++events_;
  held_.emplace_back();
  return static_cast<ThreadId>(held_.size() - 1);
}

void LocksetDetector::join(ThreadId parent, ThreadId child) {
  check_thread(parent);
  check_thread(child);
  ++events_;  // no ordering recorded — lockset is blind to join edges
}

void LocksetDetector::acquire(ThreadId t, NameId lock) {
  check_thread(t);
  require(lock < lock_names_.size(), "lockset: acquire of a lock id that was never interned");
  held_[t].push_back(lock);
  ++events_;
}

void LocksetDetector::release(ThreadId t, NameId lock) {
  check_thread(t);
  require(lock < lock_names_.size(), "lockset: release of a lock id that was never interned");
  auto& held = held_[t];
  const auto it = std::find(held.rbegin(), held.rend(), lock);
  if (it == held.rend()) {
    throw Error("lockset: thread releases lock '" + lock_names_.name(lock) +
                "' it does not hold");
  }
  held.erase(std::next(it).base());
  ++events_;
}

void LocksetDetector::barrier(const std::vector<ThreadId>& waiters) {
  require(!waiters.empty(), "barrier needs at least one waiter");
  for (const ThreadId w : waiters) check_thread(w);
  ++events_;  // deliberately no effect: Eraser cannot see barrier order
}

void LocksetDetector::channel_send(ThreadId t, NameId channel) {
  check_thread(t);
  (void)channel;
  ++events_;  // deliberately no effect
}

void LocksetDetector::channel_recv(ThreadId t, NameId channel) {
  check_thread(t);
  (void)channel;
  ++events_;  // deliberately no effect
}

NameId LocksetDetector::intern_var(std::string_view name) {
  return var_names_.id(name);
}

NameId LocksetDetector::intern_lock(std::string_view name) {
  return lock_names_.id(name);
}

NameId LocksetDetector::intern_channel(std::string_view name) {
  (void)name;
  return 0;
}

NameId LocksetDetector::intern_site(std::string_view label) {
  return site_names_.id(label);
}

void LocksetDetector::read(ThreadId t, NameId var, NameId site) {
  on_access(t, var, AccessKind::Read, site);
}

void LocksetDetector::write(ThreadId t, NameId var, NameId site) {
  on_access(t, var, AccessKind::Write, site);
}

void LocksetDetector::on_access(ThreadId t, NameId var, AccessKind kind, NameId where) {
  check_thread(t);
  require(var < var_names_.size() && where < site_names_.size(),
          "lockset: access names a variable or site id that was never interned");
  ++events_;
  if (var >= vars_.size()) vars_.resize(var + 1);
  VarState& v = vars_[var];
  Access access{true, t, kind, where, events_, held_[t]};

  // The older endpoint of a potential report: the most recent access by
  // a *different* thread.
  const Access* prev = nullptr;
  if (v.last.valid && v.last.thread != t) {
    prev = &v.last;
  } else if (v.last_other.valid && v.last_other.thread != t) {
    prev = &v.last_other;
  }

  switch (v.state) {
    case State::Virgin:
      v.state = State::Exclusive;
      v.owner = t;
      break;
    case State::Exclusive:
      if (t != v.owner) {
        // Second thread: the candidate lockset starts as the locks held
        // right now, then only ever shrinks.
        v.lockset = access.locks;
        std::sort(v.lockset.begin(), v.lockset.end());
        v.state = kind == AccessKind::Write ? State::SharedModified : State::Shared;
      }
      break;
    case State::Shared:
    case State::SharedModified: {
      if (!v.lockset.empty()) {  // an empty lockset stays empty
        std::vector<NameId> now = access.locks;
        std::sort(now.begin(), now.end());
        intersect(v.lockset, now);
      }
      if (kind == AccessKind::Write) v.state = State::SharedModified;
      break;
    }
  }

  if (v.state == State::SharedModified && v.lockset.empty() && prev != nullptr) {
    ++race_count_;
    report(var, *prev, access);
  }

  if (v.last.valid && v.last.thread != t) v.last_other = std::move(v.last);
  v.last = std::move(access);
}

AccessSite LocksetDetector::materialize(const Access& access) const {
  AccessSite site;
  site.thread = access.thread;
  site.kind = access.kind;
  site.where = site_names_.name(access.where);
  site.event = access.event;
  site.locks_held.reserve(access.locks.size());
  for (const NameId l : access.locks) site.locks_held.push_back(lock_names_.name(l));
  return site;
}

std::size_t LocksetDetector::ReportKeyHash::operator()(const ReportKey& k) const {
  std::uint64_t h = k.variable;
  h = h * 0x9e3779b97f4a7c15ULL ^ k.lo;
  h = h * 0x9e3779b97f4a7c15ULL ^ k.hi;
  return static_cast<std::size_t>(h ^ (h >> 29));
}

void LocksetDetector::report(NameId var, const Access& first, const Access& second) {
  // Most flagged accesses repeat a pair already reported: dedup on ids
  // and build names and text only for a new one.
  const auto side = [](const Access& a) {
    return (static_cast<std::uint64_t>(a.thread) << 32) | a.where;
  };
  const std::uint64_t a = side(first), b = side(second);
  if (!reported_.insert(ReportKey{var, std::min(a, b), std::max(a, b)}).second) {
    return;  // one report per (variable, site pair)
  }
  RaceReport r;
  r.variable = var_names_.name(var);
  r.explanation.reserve(256);
  r.explanation += "locking discipline violated: the candidate lockset of `";
  r.explanation += r.variable;
  r.explanation +=
      "` is empty — no single lock protected every shared access (Eraser sees "
      "no fork/join/barrier/channel order, so consistent locking is the only "
      "discipline it can credit)";
  r.first = materialize(first);
  r.second = materialize(second);
  races_.push_back(std::move(r));
}

const std::vector<RaceReport>& LocksetDetector::races() const {
  return races_;
}

bool LocksetDetector::race_free() const {
  return races_.empty();
}

std::uint64_t LocksetDetector::race_count() const {
  return race_count_;
}

std::uint64_t LocksetDetector::events() const {
  return events_;
}

std::size_t LocksetDetector::threads() const {
  return held_.size();
}

std::size_t LocksetDetector::shadow_bytes() const {
  std::size_t bytes = held_.size() * sizeof(std::vector<NameId>);
  for (const auto& h : held_) bytes += h.capacity() * sizeof(NameId);
  bytes += vars_.size() * sizeof(VarState);
  for (const VarState& v : vars_) {
    bytes += v.lockset.capacity() * sizeof(NameId);
    bytes += v.last.locks.capacity() * sizeof(NameId);
    bytes += v.last_other.locks.capacity() * sizeof(NameId);
  }
  bytes += var_names_.bytes() + lock_names_.bytes() + site_names_.bytes();
  return bytes;
}

std::string LocksetDetector::summary() const {
  std::ostringstream out;
  if (races_.empty()) {
    out << "lockset: no locking-discipline violations in " << events_ << " events across "
        << held_.size() << " threads\n";
    return out.str();
  }
  out << "lockset: " << races_.size() << " violation(s) (" << race_count_
      << " flagged accesses) in " << events_ << " events:\n";
  for (const RaceReport& r : races_) out << r.to_string() << '\n';
  return out.str();
}

std::vector<std::string> LocksetDetector::candidate_lockset(const std::string& var) const {
  std::vector<std::string> out;
  // Read-only probe: an unknown variable has no lockset yet.
  for (NameId id = 0; id < vars_.size(); ++id) {
    if (var_names_.name(id) == var) {
      for (const NameId l : vars_[id].lockset) out.push_back(lock_names_.name(l));
      return out;
    }
  }
  return out;
}

bool LocksetDetector::lockset_defined(const std::string& var) const {
  for (NameId id = 0; id < vars_.size(); ++id) {
    if (var_names_.name(id) == var) {
      return vars_[id].state == State::Shared || vars_[id].state == State::SharedModified;
    }
  }
  return false;
}

}  // namespace cs31::race
