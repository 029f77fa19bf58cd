#include "race/reference.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace cs31::race {

ReferenceDetector::ReferenceDetector() {
  // Thread 0 is the main/root thread.
  ThreadState main;
  main.vc.set(0, 1);
  threads_.push_back(std::move(main));
}

ThreadId ReferenceDetector::register_thread() {
  const auto tid = static_cast<ThreadId>(threads_.size());
  ThreadState ts;
  ts.vc.set(tid, 1);
  threads_.push_back(std::move(ts));
  return tid;
}

ThreadId ReferenceDetector::fork(ThreadId parent) {
  ++events_;
  ThreadState& p = state(parent);
  const auto child = static_cast<ThreadId>(threads_.size());
  ThreadState ts;
  ts.vc = p.vc;  // child observes everything the parent did before the fork
  ts.vc.set(child, 1);
  threads_.push_back(std::move(ts));
  threads_[parent].vc.tick(parent);  // parent enters a new epoch
  return child;
}

void ReferenceDetector::join(ThreadId parent, ThreadId child) {
  ++events_;
  ThreadState& c = state(child);
  state(parent).vc.join(c.vc);  // parent observes the child's whole life
  c.vc.tick(child);
}

NameId ReferenceDetector::intern_var(std::string_view name) {
  return names_.intern(NameKind::Var, name);
}

NameId ReferenceDetector::intern_lock(std::string_view name) {
  return names_.intern(NameKind::Lock, name);
}

NameId ReferenceDetector::intern_channel(std::string_view name) {
  return names_.intern(NameKind::Channel, name);
}

NameId ReferenceDetector::intern_site(std::string_view label) {
  return names_.intern(NameKind::Site, label);
}

void ReferenceDetector::acquire(ThreadId t, NameId lock_id) {
  const std::string& lock_name = names_.name(NameKind::Lock, lock_id);
  ++events_;
  ThreadState& ts = state(t);
  ts.vc.join(locks_[lock_name]);  // observe the previous critical section
  ts.held.push_back(lock_name);
}

void ReferenceDetector::release(ThreadId t, NameId lock_id) {
  const std::string& lock_name = names_.name(NameKind::Lock, lock_id);
  ++events_;
  ThreadState& ts = state(t);
  const auto it = std::find(ts.held.rbegin(), ts.held.rend(), lock_name);
  if (it == ts.held.rend()) {
    throw Error("release of lock '" + lock_name + "' not held by thread " +
                std::to_string(t));
  }
  locks_[lock_name] = ts.vc;  // publish this critical section to the lock
  ts.vc.tick(t);
  ts.held.erase(std::next(it).base());
}

void ReferenceDetector::barrier(const std::vector<ThreadId>& waiters) {
  require(!waiters.empty(), "barrier needs at least one waiter");
  ++events_;
  VectorClock all;
  for (const ThreadId w : waiters) all.join(state(w).vc);
  for (const ThreadId w : waiters) {
    ThreadState& ts = state(w);
    ts.vc = all;     // everyone observes everyone's pre-barrier work
    ts.vc.tick(w);   // and starts a fresh epoch on the far side
  }
}

void ReferenceDetector::channel_send(ThreadId t, NameId channel_id) {
  const std::string& channel = names_.name(NameKind::Channel, channel_id);
  ++events_;
  ThreadState& ts = state(t);
  channels_[channel].join(ts.vc);
  ts.vc.tick(t);
}

void ReferenceDetector::channel_recv(ThreadId t, NameId channel_id) {
  const std::string& channel = names_.name(NameKind::Channel, channel_id);
  ++events_;
  state(t).vc.join(channels_[channel]);
}

void ReferenceDetector::read(ThreadId t, NameId var, NameId site) {
  check_and_record(t, names_.name(NameKind::Var, var), AccessKind::Read,
                   names_.name(NameKind::Site, site));
}

void ReferenceDetector::write(ThreadId t, NameId var, NameId site) {
  check_and_record(t, names_.name(NameKind::Var, var), AccessKind::Write,
                   names_.name(NameKind::Site, site));
}

void ReferenceDetector::check_and_record(ThreadId t, const std::string& var, AccessKind kind,
                                         const std::string& where) {
  ++events_;
  ThreadState& ts = state(t);
  VarState& vs = vars_[var];
  const AccessSite site = make_site(t, kind, where);

  // Write-check (both kinds): is the last write ordered before us?
  if (vs.has_write && vs.write_epoch.tid != t && !ts.vc.contains(vs.write_epoch)) {
    report(var, vs.write_site, site,
           kind == AccessKind::Read ? "write-read conflict" : "write-write conflict");
  }

  if (kind == AccessKind::Read) {
    vs.read_vc.set(t, ts.vc.get(t));
    vs.read_sites[t] = site;
    return;
  }

  // Read-check (writes only): every read since the last write must be
  // ordered before this write.
  for (const auto& [reader, read_site] : vs.read_sites) {
    if (reader != t && vs.read_vc.get(reader) > ts.vc.get(reader)) {
      report(var, read_site, site, "read-write conflict");
    }
  }

  vs.has_write = true;
  vs.write_epoch = Epoch{t, ts.vc.get(t)};
  vs.write_site = site;
  vs.write_vc = ts.vc;
  vs.read_vc = VectorClock{};  // reads before an ordered write are subsumed
  vs.read_sites.clear();
}

AccessSite ReferenceDetector::make_site(ThreadId t, AccessKind kind,
                                        const std::string& where) const {
  AccessSite site;
  site.thread = t;
  site.kind = kind;
  site.where = where;
  site.event = events_;
  site.locks_held = threads_[t].held;
  return site;
}

void ReferenceDetector::report(const std::string& var, const AccessSite& first,
                               const AccessSite& second, const std::string& why) {
  ++race_count_;
  if (!reported_.insert(race_pair_key(var, first, second)).second) {
    return;  // one report per (variable, site pair)
  }
  RaceReport r;
  r.variable = var;
  r.first = first;
  r.second = second;
  r.explanation = explain_race(first, second, why);
  races_.push_back(std::move(r));
}

ReferenceDetector::ThreadState& ReferenceDetector::state(ThreadId t) {
  if (t >= threads_.size()) throw Error("unknown thread id " + std::to_string(t));
  return threads_[t];
}

const std::vector<RaceReport>& ReferenceDetector::races() const { return races_; }

bool ReferenceDetector::race_free() const {
  return races_.empty();
}

std::uint64_t ReferenceDetector::race_count() const {
  return race_count_;
}

std::uint64_t ReferenceDetector::events() const {
  return events_;
}

std::size_t ReferenceDetector::threads() const {
  return threads_.size();
}

namespace {

constexpr std::size_t kMapNodeOverhead = 48;  // rb-tree node: parent/left/right + color

std::size_t clock_bytes(const VectorClock& vc) {
  return sizeof(VectorClock) + vc.size() * sizeof(Clock);
}

std::size_t string_bytes(const std::string& s) {
  const std::size_t heap = s.capacity() >= sizeof(std::string) ? s.capacity() + 1 : 0;
  return sizeof(std::string) + heap;
}

std::size_t site_bytes(const AccessSite& s) {
  std::size_t total = sizeof(AccessSite) - sizeof(std::string) - sizeof(s.locks_held);
  total += string_bytes(s.where);
  total += sizeof(s.locks_held);
  for (const std::string& l : s.locks_held) total += string_bytes(l);
  return total;
}

}  // namespace

std::size_t ReferenceDetector::shadow_bytes() const {
  std::size_t total = 0;
  for (const ThreadState& ts : threads_) {
    total += clock_bytes(ts.vc) + sizeof(ts.held);
    for (const std::string& l : ts.held) total += string_bytes(l);
  }
  for (const auto& [name, vc] : locks_) {
    total += kMapNodeOverhead + string_bytes(name) + clock_bytes(vc);
  }
  for (const auto& [name, vc] : channels_) {
    total += kMapNodeOverhead + string_bytes(name) + clock_bytes(vc);
  }
  for (const auto& [name, vs] : vars_) {
    total += kMapNodeOverhead + string_bytes(name);
    total += sizeof(bool) + sizeof(Epoch);
    total += site_bytes(vs.write_site);
    total += clock_bytes(vs.write_vc) + clock_bytes(vs.read_vc);
    for (const auto& [tid, site] : vs.read_sites) {
      total += kMapNodeOverhead + sizeof(tid) + site_bytes(site);
    }
  }
  return total;
}

std::string ReferenceDetector::summary() const {
  std::ostringstream out;
  if (races_.empty()) {
    out << "race-free: no data races over " << events_ << " events, "
        << threads_.size() << " threads";
    return out.str();
  }
  out << races_.size() << " distinct race(s), " << race_count_ << " racy access(es), over "
      << events_ << " events:\n";
  for (const RaceReport& r : races_) out << r.to_string() << '\n';
  return out.str();
}

}  // namespace cs31::race
