#include "race/detector.hpp"

#include <algorithm>
#include <mutex>
#include <sstream>
#include <unordered_set>

#include "common/error.hpp"

namespace cs31::race {

std::string to_string(AccessKind kind) {
  return kind == AccessKind::Read ? "read" : "write";
}

std::string AccessSite::to_string() const {
  std::ostringstream out;
  out << "thread " << thread << ' ' << race::to_string(kind);
  if (!where.empty()) out << " at \"" << where << '"';
  out << " (event " << event << ", holding {";
  for (std::size_t i = 0; i < locks_held.size(); ++i) {
    if (i > 0) out << ", ";
    out << locks_held[i];
  }
  out << "})";
  return out.str();
}

std::string RaceReport::to_string() const {
  std::ostringstream out;
  out << "DATA RACE on `" << variable << "`\n"
      << "  first:  " << first.to_string() << '\n'
      << "  second: " << second.to_string() << '\n'
      << "  why:    " << explanation;
  return out.str();
}

RacePairKey race_pair_key(const std::string& variable, const AccessSite& a,
                          const AccessSite& b) {
  RacePairKey key{variable, {a.thread, a.where}, {b.thread, b.where}};
  if (key.hi < key.lo) std::swap(key.lo, key.hi);  // unordered pair
  return key;
}

std::string explain_race(const AccessSite& first, const AccessSite& second,
                         const std::string& why) {
  // Lockset view for the explanation: a true race's held-lock sets are
  // disjoint (had they shared a lock, release/acquire would have made a
  // happens-before edge and we would not be here).
  std::vector<std::string> common;
  for (const std::string& l : first.locks_held) {
    if (std::find(second.locks_held.begin(), second.locks_held.end(), l) !=
        second.locks_held.end()) {
      common.push_back(l);
    }
  }
  // Appended, not streamed: an explorer run builds one of these per
  // distinct race, and a stream's set-up costs more than the text.
  std::string out = why;
  out.append(": no fork/join, lock, barrier, or channel edge orders thread ")
      .append(std::to_string(first.thread))
      .append("'s ")
      .append(race::to_string(first.kind))
      .append(" before thread ")
      .append(std::to_string(second.thread))
      .append("'s ")
      .append(race::to_string(second.kind));
  if (common.empty()) {
    out += "; the two sides hold no lock in common";
  } else {
    // Possible when a shared lock was released before the conflicting
    // epoch was published — still worth surfacing for discussion.
    out += "; note both sides hold {";
    for (std::size_t i = 0; i < common.size(); ++i) {
      if (i > 0) out += ", ";
      out += common[i];
    }
    out += '}';
  }
  return out;
}

std::string to_string(Conflict conflict) {
  switch (conflict) {
    case Conflict::WriteRead: return "write-read conflict";
    case Conflict::WriteWrite: return "write-write conflict";
    case Conflict::ReadWrite: return "read-write conflict";
  }
  return "conflict";
}

RaceRecordKey race_key(const RaceRecord& race) {
  const auto side = [](const CompactSite& site) {
    return (static_cast<std::uint64_t>(site.thread) << 32) | site.where;
  };
  const std::uint64_t a = side(race.first), b = side(race.second);
  return RaceRecordKey{race.variable, std::min(a, b), std::max(a, b)};  // unordered pair
}

std::size_t RaceRecordKeyHash::operator()(const RaceRecordKey& k) const {
  std::uint64_t h = k.variable;
  h = h * 0x9e3779b97f4a7c15ULL ^ k.lo;
  h = h * 0x9e3779b97f4a7c15ULL ^ k.hi;
  return static_cast<std::size_t>(h ^ (h >> 29));
}

namespace {

AccessSite materialize(const NameTables& names, const CompactSite& site) {
  AccessSite out;
  out.thread = site.thread;
  out.kind = site.kind;
  out.where = names.name(NameKind::Site, site.where);
  out.event = site.event;
  if (site.locks) {
    out.locks_held.reserve(site.locks->size());
    for (const NameId l : *site.locks) {
      out.locks_held.push_back(names.name(NameKind::Lock, l));
    }
  }
  return out;
}

}  // namespace

RaceReport build_report(const NameTables& names, const RaceRecord& race) {
  RaceReport r;
  r.variable = names.name(NameKind::Var, race.variable);
  r.first = materialize(names, race.first);
  r.second = materialize(names, race.second);
  r.explanation = explain_race(r.first, r.second, to_string(race.conflict));
  return r;
}

// --- RaceList ------------------------------------------------------------

struct RaceList::State {
  std::shared_ptr<const NameTables> names;  ///< null when built from reports
  std::vector<RaceRecord> records;
  std::mutex mutex;
  std::vector<std::unique_ptr<RaceReport>> built;  ///< one slot per race
};

RaceList::RaceList(std::shared_ptr<const NameTables> names, std::vector<RaceRecord> records)
    : state_(std::make_shared<State>()) {
  state_->names = std::move(names);
  state_->built.resize(records.size());
  state_->records = std::move(records);
}

RaceList::RaceList(std::vector<RaceReport> reports) : state_(std::make_shared<State>()) {
  state_->built.reserve(reports.size());
  for (RaceReport& r : reports) {
    state_->built.push_back(std::make_unique<RaceReport>(std::move(r)));
  }
}

std::size_t RaceList::size() const { return state_ ? state_->built.size() : 0; }

const RaceReport& RaceList::operator[](std::size_t i) const {
  require(i < size(), "race list index out of range");
  std::scoped_lock lock(state_->mutex);
  std::unique_ptr<RaceReport>& slot = state_->built[i];
  if (!slot) {
    slot = std::make_unique<RaceReport>(build_report(*state_->names, state_->records[i]));
  }
  return *slot;
}

std::size_t RaceList::materialized() const {
  if (!state_) return 0;
  std::scoped_lock lock(state_->mutex);
  return static_cast<std::size_t>(
      std::count_if(state_->built.begin(), state_->built.end(),
                    [](const std::unique_ptr<RaceReport>& r) { return r != nullptr; }));
}

RaceList RaceList::merge_shards(const std::vector<RaceList>& shards) {
  std::shared_ptr<const NameTables> names;
  std::vector<RaceRecord> merged;
  for (const RaceList& shard : shards) {
    if (shard.empty()) continue;
    require(shard.state_->names != nullptr && (!names || names == shard.state_->names),
            "merge_shards needs record lists over one set of name tables");
    names = shard.state_->names;
    merged.insert(merged.end(), shard.state_->records.begin(), shard.state_->records.end());
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const RaceRecord& a, const RaceRecord& b) {
                     return a.second.event < b.second.event;
                   });
  std::unordered_set<RaceRecordKey, RaceRecordKeyHash> seen;
  std::vector<RaceRecord> deduped;
  deduped.reserve(merged.size());
  for (RaceRecord& r : merged) {
    if (seen.insert(race_key(r)).second) deduped.push_back(std::move(r));
  }
  return RaceList(std::move(names), std::move(deduped));
}

std::string summarize_races(const RaceList& races, std::uint64_t race_count,
                            std::uint64_t events, std::size_t threads) {
  std::ostringstream out;
  if (races.empty()) {
    out << "race-free: no data races over " << events << " events, " << threads
        << " threads";
    return out.str();
  }
  out << races.size() << " distinct race(s), " << race_count << " racy access(es), over "
      << events << " events:\n";
  for (const RaceReport& r : races) out << r.to_string() << '\n';
  return out.str();
}

// --- Detector --------------------------------------------------------------

Detector::Detector() : Detector(std::make_shared<NameTables>()) {}

Detector::Detector(std::shared_ptr<NameTables> names) : names_(std::move(names)) {
  require(names_ != nullptr, "detector needs name tables");
  // Thread 0 is the main/root thread.
  ThreadState main;
  main.vc.set(0, 1);
  threads_.push_back(std::move(main));
}

ThreadId Detector::register_thread() {
  const auto tid = static_cast<ThreadId>(threads_.size());
  ThreadState ts;
  ts.vc.set(tid, 1);
  threads_.push_back(std::move(ts));
  return tid;
}

ThreadId Detector::fork(ThreadId parent) {
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

void Detector::join(ThreadId parent, ThreadId child) {
  ++events_;
  ThreadState& c = state(child);
  state(parent).vc.join(c.vc);  // parent observes the child's whole life
  c.vc.tick(child);
}

NameId Detector::intern_var(std::string_view name) {
  const NameId id = names_->intern(NameKind::Var, name);
  if (id >= vars_.size()) vars_.resize(id + 1);
  return id;
}

NameId Detector::intern_lock(std::string_view name) {
  const NameId id = names_->intern(NameKind::Lock, name);
  if (id >= locks_.size()) locks_.resize(id + 1);
  return id;
}

NameId Detector::intern_channel(std::string_view name) {
  const NameId id = names_->intern(NameKind::Channel, name);
  if (id >= channels_.size()) channels_.resize(id + 1);
  return id;
}

NameId Detector::intern_site(std::string_view label) {
  return names_->intern(NameKind::Site, label);
}

void Detector::acquire(ThreadId t, NameId lock_id) {
  on_acquire<false>(t, lock_id);
}

void Detector::release(ThreadId t, NameId lock_id) {
  on_release<false>(t, lock_id);
}

void Detector::barrier(const std::vector<ThreadId>& waiters) {
  on_barrier<false>(waiters);
}

void Detector::channel_send(ThreadId t, NameId channel_id) {
  on_send<false>(t, channel_id);
}

void Detector::channel_recv(ThreadId t, NameId channel_id) {
  on_recv<false>(t, channel_id);
}

void Detector::read(ThreadId t, NameId var, NameId site) {
  check_and_record(t, var, AccessKind::Read, site);
}

void Detector::write(ThreadId t, NameId var, NameId site) {
  check_and_record(t, var, AccessKind::Write, site);
}

template <bool kJournal>
void Detector::on_acquire(ThreadId t, NameId lock_id) {
  cover(locks_, NameKind::Lock, lock_id);
  ++events_;
  ThreadState& ts = state(t);
  if constexpr (kJournal) {
    save(ts.vc);
    save(Saved::Slot::Pushed).held = &ts.held;
  }
  ts.vc.join(locks_[lock_id]);  // observe the previous critical section
  ts.held.push_back(lock_id);
}

template <bool kJournal>
void Detector::on_release(ThreadId t, NameId lock_id) {
  cover(locks_, NameKind::Lock, lock_id);
  ++events_;
  ThreadState& ts = state(t);
  const auto it = std::find(ts.held.rbegin(), ts.held.rend(), lock_id);
  if (it == ts.held.rend()) {
    throw Error("release of lock '" + names_->name(NameKind::Lock, lock_id) +
                "' not held by thread " + std::to_string(t));
  }
  if constexpr (kJournal) {
    save(ts.vc);
    save(locks_[lock_id]);
    Saved& erased = save(Saved::Slot::Erased);
    erased.held = &ts.held;
    erased.lock = lock_id;
    erased.at = static_cast<std::size_t>(std::next(it).base() - ts.held.begin());
  }
  locks_[lock_id] = ts.vc;  // publish this critical section to the lock
  ts.vc.tick(t);
  ts.held.erase(std::next(it).base());
}

template <bool kJournal>
void Detector::on_barrier(const std::vector<ThreadId>& waiters) {
  require(!waiters.empty(), "barrier needs at least one waiter");
  ++events_;
  barrier_clock_ = state(waiters.front()).vc;
  for (const ThreadId w : waiters) barrier_clock_.join(state(w).vc);
  for (const ThreadId w : waiters) {
    ThreadState& ts = state(w);
    if constexpr (kJournal) save(ts.vc);
    ts.vc = barrier_clock_;  // everyone observes everyone's pre-barrier work
    ts.vc.tick(w);           // and starts a fresh epoch on the far side
  }
}

template <bool kJournal>
void Detector::on_send(ThreadId t, NameId channel_id) {
  cover(channels_, NameKind::Channel, channel_id);
  ++events_;
  ThreadState& ts = state(t);
  if constexpr (kJournal) {
    save(ts.vc);
    save(channels_[channel_id]);
  }
  channels_[channel_id].join(ts.vc);
  ts.vc.tick(t);
}

template <bool kJournal>
void Detector::on_recv(ThreadId t, NameId channel_id) {
  cover(channels_, NameKind::Channel, channel_id);
  ++events_;
  ThreadState& ts = state(t);
  if constexpr (kJournal) save(ts.vc);
  ts.vc.join(channels_[channel_id]);
}

template <bool kJournal>
void Detector::check_and_record(ThreadId t, NameId var, AccessKind kind,
                                NameId site_label) {
  cover(vars_, NameKind::Var, var);
  ++events_;
  ThreadState& ts = state(t);
  VarState& vs = vars_[var];
  if constexpr (kJournal) {
    Saved& saved = save(Saved::Slot::Var);
    saved.var = &vs;
    saved.at = saved_readers_.size();
    saved_vars_.push_back(vs);
    saved_readers_.insert(saved_readers_.end(), vs.readers.begin(), vs.readers.end());
  }
  const CompactSite site = make_site(t, kind, site_label);

  // Write-check (both kinds): is the last write ordered before us? The
  // single-epoch comparison stands in for a full clock comparison
  // because the write epoch IS the writer's own component, and no other
  // clock can exceed it (the to_clock/contains algebra in
  // vector_clock.hpp, pinned by the property tests).
  if (vs.write_epoch.valid() && vs.write_epoch.tid != t && !ts.vc.contains(vs.write_epoch)) {
    report(var, vs.write_site, site,
           kind == AccessKind::Read ? Conflict::WriteRead : Conflict::WriteWrite);
  }

  if (kind == AccessKind::Read) {
    if (!vs.readers.empty()) {
      // Already read-shared: update this thread's entry, or add one.
      const auto it = std::lower_bound(
          vs.readers.begin(), vs.readers.end(), t,
          [](const Reader& reader, ThreadId tid) { return reader.tid < tid; });
      if (it != vs.readers.end() && it->tid == t) {
        it->clock = ts.vc.get(t);
        it->site = site;
      } else {
        vs.readers.insert(it, Reader{t, ts.vc.get(t), site});
      }
    } else if (!vs.read_epoch.valid() || vs.read_epoch.tid == t) {
      // The hot path: first reader since the write, or the same thread
      // reading again — one epoch overwrite, O(1).
      vs.read_epoch = Epoch{t, ts.vc.get(t)};
      vs.read_site = site;
    } else {
      // A second thread is reading: inflate to the readers vector,
      // keeping the previous reader's entry (see the file comment in
      // detector.hpp for why ordered cross-thread reads inflate too).
      Reader previous{vs.read_epoch.tid, vs.read_epoch.clock, std::move(vs.read_site)};
      Reader current{t, ts.vc.get(t), site};
      vs.readers.reserve(2);
      if (previous.tid < t) {
        vs.readers.push_back(std::move(previous));
        vs.readers.push_back(std::move(current));
      } else {
        vs.readers.push_back(std::move(current));
        vs.readers.push_back(std::move(previous));
      }
      vs.read_epoch = Epoch{};
      vs.read_site = CompactSite{};
    }
    return;
  }

  // Read-check (writes only): every read since the last write must be
  // ordered before this write.
  for (const Reader& reader : vs.readers) {
    if (reader.tid != t && reader.clock > ts.vc.get(reader.tid)) {
      report(var, reader.site, site, Conflict::ReadWrite);
    }
  }
  if (vs.read_epoch.valid() && vs.read_epoch.tid != t &&
      vs.read_epoch.clock > ts.vc.get(vs.read_epoch.tid)) {
    report(var, vs.read_site, site, Conflict::ReadWrite);
  }

  // Record the write and deflate: reads before this write are subsumed
  // (ordered ones can never race later accesses through it; unordered
  // ones were just reported), so the read state resets to epoch-none
  // and the readers' storage goes back to the allocator.
  vs.write_epoch = Epoch{t, ts.vc.get(t)};
  vs.write_site = site;
  vs.read_epoch = Epoch{};
  vs.read_site = CompactSite{};
  if constexpr (kJournal) {
    vs.readers.clear();
  } else {
    std::vector<Reader>().swap(vs.readers);
  }
}

// The drain's check_accesses, inline in the header, takes this one.
template void Detector::check_and_record<false>(ThreadId, NameId, AccessKind, NameId);

// --- the journaled feed -----------------------------------------------

Detector::Saved& Detector::save(Saved::Slot slot) {
  if (journal_.capacity() == 0) {  // one block each for a small walk's journal
    journal_.reserve(32);
    clock_arena_.reserve(128);
  }
  Saved& entry = journal_.emplace_back();
  entry.slot = slot;
  if (slot == Saved::Slot::Step) {
    entry.events = events_;
    entry.race_count = race_count_;
    entry.at = records_.size();
  }
  return entry;
}

void Detector::save(VectorClock& clock) {
  Saved& entry = save(Saved::Slot::Clock);
  entry.clock = &clock;
  entry.at = clock_arena_.size();
  const auto components = clock.components();
  clock_arena_.insert(clock_arena_.end(), components.begin(), components.end());
}

void Detector::step(Verb verb, ThreadId t, NameId object, NameId site) {
  save(Saved::Slot::Step);
  switch (verb) {
    case Verb::Read: return check_and_record<true>(t, object, AccessKind::Read, site);
    case Verb::Write: return check_and_record<true>(t, object, AccessKind::Write, site);
    case Verb::Lock: return on_acquire<true>(t, object);
    case Verb::Unlock: return on_release<true>(t, object);
    case Verb::Send: return on_send<true>(t, object);
    case Verb::Recv: return on_recv<true>(t, object);
    case Verb::Barrier: break;
  }
  throw Error("a barrier arrival is no detector event");
}

void Detector::step_barrier(const std::vector<ThreadId>& waiters) {
  save(Saved::Slot::Step);
  on_barrier<true>(waiters);
}

void Detector::undo() {
  require(!journal_.empty(), "detector undo with no step standing");
  for (;;) {
    const Saved entry = journal_.back();
    journal_.pop_back();
    const auto tail = [&entry](auto& arena) {
      return arena.begin() + static_cast<std::ptrdiff_t>(entry.at);
    };
    switch (entry.slot) {
      case Saved::Slot::Clock:
        entry.clock->assign(std::span<const Clock>(tail(clock_arena_), clock_arena_.end()));
        clock_arena_.erase(tail(clock_arena_), clock_arena_.end());
        break;
      case Saved::Slot::Var:
        static_cast<Epochs&>(*entry.var) = std::move(saved_vars_.back());
        saved_vars_.pop_back();
        entry.var->readers.assign(tail(saved_readers_), saved_readers_.end());
        saved_readers_.erase(tail(saved_readers_), saved_readers_.end());
        break;
      case Saved::Slot::Pushed: entry.held->pop_back(); break;
      case Saved::Slot::Erased: entry.held->insert(tail(*entry.held), entry.lock); break;
      case Saved::Slot::Step:
        events_ = entry.events;
        race_count_ = entry.race_count;
        for (; records_.size() > entry.at; records_.pop_back()) {
          reported_.erase_newest(race_key(records_.back()));
        }
        if (built_.size() > records_.size()) built_.resize(records_.size());
        return;
    }
  }
}

std::size_t Detector::KeySet::find(const RaceRecordKey& key) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = RaceRecordKeyHash{}(key) & mask;
  while (slots_[i].second && slots_[i].first != key) i = (i + 1) & mask;
  return i;
}

bool Detector::KeySet::insert(const RaceRecordKey& key) {
  if (2 * (size_ + 1) > slots_.size()) {
    const std::size_t capacity = std::max<std::size_t>(16, 2 * slots_.size());
    std::vector<std::pair<RaceRecordKey, bool>> old(capacity);
    old.swap(slots_);
    for (const auto& slot : old) {
      if (slot.second) slots_[find(slot.first)] = slot;
    }
  }
  auto& slot = slots_[find(key)];
  if (slot.second) return false;
  slot = {key, true};
  ++size_;
  return true;
}


CompactSite Detector::make_site(ThreadId t, AccessKind kind, NameId where) {
  CompactSite site;
  site.thread = t;
  site.kind = kind;
  site.where = where;
  site.event = events_;
  ThreadState& ts = threads_[t];
  if (!ts.held.empty()) {
    if (!ts.lockset || *ts.lockset != ts.held) ts.lockset = lockset_block(ts.held);
    site.locks = ts.lockset;
  }
  return site;
}

std::shared_ptr<const std::vector<NameId>> Detector::lockset_block(
    const std::vector<NameId>& held) {
  // Locksets are few (a program's lock nestings), so a list compared by
  // value finds a block faster than a map; the cap bounds the search on
  // a trace that holds unusually many.
  constexpr std::size_t kLocksetBlocks = 32;
  for (const auto& block : locksets_) {
    if (*block == held) return block;
  }
  auto block = std::make_shared<const std::vector<NameId>>(held);
  if (locksets_.size() < kLocksetBlocks) locksets_.push_back(block);
  return block;
}

void Detector::report(NameId var, const CompactSite& first, const CompactSite& second,
                      Conflict conflict) {
  ++race_count_;
  // Ids only: names are looked up when a report is read (RaceList).
  RaceRecord race{var, first, second, conflict};
  if (!reported_.insert(race_key(race))) return;  // one per (variable, site pair)
  records_.push_back(std::move(race));
}

Detector::ThreadState& Detector::state(ThreadId t) {
  if (t >= threads_.size()) {
    throw Error("unknown thread id " + std::to_string(t));
  }
  return threads_[t];
}

template <typename Table>
void Detector::cover(Table& table, NameKind kind, NameId id) {
  if (id < table.size()) return;
  const std::size_t known = names_->size(kind);
  if (id >= known) {
    static constexpr const char* kWhat[] = {"variable", "lock", "channel", "site"};
    throw Error(std::string("unknown ") + kWhat[static_cast<std::size_t>(kind)] + " id " +
                std::to_string(id));
  }
  table.resize(known);
}

const std::vector<RaceReport>& Detector::races() const {
  while (built_.size() < records_.size()) {
    built_.push_back(build_report(*names_, records_[built_.size()]));
  }
  return built_;
}

RaceList Detector::race_list() const {
  return RaceList(names_, records_);
}

const std::vector<RaceRecord>& Detector::records() const {
  return records_;
}

bool Detector::race_free() const {
  return records_.empty();
}

std::uint64_t Detector::race_count() const {
  return race_count_;
}

std::uint64_t Detector::events() const {
  return events_;
}

std::size_t Detector::threads() const {
  return threads_.size();
}

namespace {

std::size_t clock_bytes(const VectorClock& vc) {
  return sizeof(VectorClock) + vc.size() * sizeof(Clock);
}

}  // namespace

std::size_t Detector::shadow_bytes() const {
  std::size_t total = 0;
  for (const ThreadState& ts : threads_) {
    total += clock_bytes(ts.vc) + sizeof(ts.held) + ts.held.capacity() * sizeof(NameId);
  }
  for (const VectorClock& vc : locks_) total += clock_bytes(vc);
  for (const VectorClock& vc : channels_) total += clock_bytes(vc);
  const auto site_bytes = [](const CompactSite& s) {
    // A held lockset block may be shared by several sites; counting it
    // per site keeps the estimate simple and conservative (an upper
    // bound on the compressed side).
    const std::size_t lockset =
        s.locks ? sizeof(*s.locks) + s.locks->capacity() * sizeof(NameId) : 0;
    return sizeof(CompactSite) + lockset;
  };
  for (const VarState& vs : vars_) {
    total += sizeof(VarState) - 2 * sizeof(CompactSite);
    total += site_bytes(vs.write_site) + site_bytes(vs.read_site);
    total += (vs.readers.capacity() - vs.readers.size()) * sizeof(Reader);
    for (const Reader& reader : vs.readers) {
      total += sizeof(Reader) - sizeof(CompactSite) + site_bytes(reader.site);
    }
  }
  return total + names_->bytes();
}

std::string Detector::summary() const {
  return summarize_races(race_list(), race_count(), events(), threads());
}

void Detector::set_event_clock(std::uint64_t seen) {
  events_ = seen;
}

}  // namespace cs31::race
