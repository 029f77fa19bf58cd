// Happens-before data-race detection: the event interface and the
// FastTrack-compressed detector.
//
// `EventSink` is the contract every detector implementation honours:
// the instrumentation layer (trace/context.hpp), the replay engine
// (replay.hpp), and the fuzz-trace runner (trace_gen.hpp) all speak it,
// so the same event stream can be fed to any implementation — which is
// exactly what the differential harness in tests/race_diff_test.cpp
// does with `Detector` (this file) and `ReferenceDetector`
// (reference.hpp, PR 1's full-vector-clock algorithm, kept as the
// executable specification).
//
// `Detector` is the production implementation, rebuilt around
// FastTrack's observation (Flanagan & Freund, PLDI 2009) that almost
// all accesses are totally ordered, so O(1) shadow state per variable
// almost always suffices:
//   - every variable, lock, channel, and site label is interned to a
//     dense uint32 id; the hot path never hashes or compares strings,
//     and names are resolved back only when a report is materialized;
//   - the last write is a single epoch (c@t) — unchanged from PR 1;
//   - the read state is a single epoch while one thread is reading; it
//     inflates to a readers vector — one (thread, clock, site) entry per
//     reading thread, sorted by thread — when a second thread reads
//     without an intervening write, and deflates back to epoch-nothing
//     (releasing the vector) on every write.
// One deliberate deviation from the paper: FastTrack's READ EXCLUSIVE
// rule overwrites the read epoch when the new read is *ordered after*
// the old one, even across threads, which forgets the older reader and
// can drop one of two racing (reader, writer) pairs from the reports.
// We inflate on any second reading thread instead — the compressed
// state stays exactly isomorphic to the reference detector's read map
// (singleton map <=> epoch), so the differential harness can demand
// bit-identical reports, not just "a race was found on the same
// variable". Repeated reads by one thread — the actual hot case — are
// still a single epoch overwrite. The price is an inflation whenever a
// second thread reads, which is not rare on every workload: each halo
// row of a banded Life grid is read by two bands every round and then
// rewritten by the swap, so about one access in five there inflates.
// That is why an inflation allocates one small vector (room for two
// readers), not a vector clock plus a separate vector of sites.
//
// A drain hands the detector whole runs of accesses (check_accesses),
// so a run costs one call, not one virtual call per access.
//
// The undo journal: a feeder that walks a tree of event sequences depth
// first (the DPOR explorer) keeps one detector for the whole walk. Each
// `step` applies an event as its event method does and journals the
// slots it overwrites (clocks, held list, shadow state, counters,
// records tail); `undo` takes the latest step back, leaving the
// detector equal to a fresh one fed the steps still standing. The
// event bodies are templates on journaling, so the other feeders' path
// tests no flag.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "race/interner.hpp"
#include "race/script.hpp"
#include "race/vector_clock.hpp"

namespace cs31::race {

enum class AccessKind { Read, Write };

[[nodiscard]] std::string to_string(AccessKind kind);

/// One side of a race: which thread touched the variable, how, where in
/// the program (a caller-supplied label), and under which locks.
struct AccessSite {
  ThreadId thread = 0;
  AccessKind kind = AccessKind::Read;
  std::string where;                    ///< source label, e.g. "counter += 1"
  std::uint64_t event = 0;              ///< detector-global event number
  std::vector<std::string> locks_held;  ///< names of locks held at the access

  [[nodiscard]] std::string to_string() const;
};

/// A detected data race: two concurrent conflicting accesses to one
/// variable. `first` is the older access (already recorded in the
/// shadow state), `second` the access that completed the race.
struct RaceReport {
  std::string variable;
  AccessSite first;
  AccessSite second;
  std::string explanation;  ///< human-readable why (no HB edge, disjoint locksets)

  [[nodiscard]] std::string to_string() const;
};

/// Dedup key of a race: the variable plus the unordered pair of
/// (thread, site-label) endpoints. Every detector implementation — and
/// the cross-schedule aggregation in replay.cpp and, on ids
/// (RaceRecordKey below), the Explorer — keys reports the same way, so
/// "one report per (variable, site pair) per run" holds everywhere and
/// the differential harness can compare report sets. The key compares
/// field by field: labels are free-form text, so no separator-joined
/// string could tell every pair apart.
struct RacePairKey {
  std::string variable;
  std::pair<ThreadId, std::string> lo, hi;  ///< the endpoints, lo <= hi

  auto operator<=>(const RacePairKey&) const = default;
};

[[nodiscard]] RacePairKey race_pair_key(const std::string& variable, const AccessSite& a,
                                        const AccessSite& b);

/// The shared "why" text: names the missing happens-before edge and the
/// lockset view of both sides (disjoint locksets for a true race).
[[nodiscard]] std::string explain_race(const AccessSite& first, const AccessSite& second,
                                       const std::string& why);

/// Which ordering check a race failed.
enum class Conflict : std::uint8_t { WriteRead, WriteWrite, ReadWrite };

[[nodiscard]] std::string to_string(Conflict conflict);  ///< "write-read conflict", ...

/// An AccessSite as ids: what the detector keeps in its shadow state and
/// its race records. The lockset is null in the common lock-free case
/// (no allocation) and shared on copy otherwise — two sites of one
/// critical section share one lockset block.
struct CompactSite {
  ThreadId thread = 0;
  AccessKind kind = AccessKind::Read;
  NameId where = 0;
  std::uint64_t event = 0;
  std::shared_ptr<const std::vector<NameId>> locks;  ///< null when none held
};

/// One distinct race as the detector records it: ids only. Its
/// RaceReport (names, explanation) is built when somebody reads it.
struct RaceRecord {
  NameId variable = 0;
  CompactSite first;
  CompactSite second;
  Conflict conflict = Conflict::WriteWrite;
};

/// race_pair_key on ids: the variable id plus the unordered pair of
/// (thread, site id) endpoints. Exact within one NameTables, because
/// ids map one-to-one onto names there.
struct RaceRecordKey {
  NameId variable = 0;
  std::uint64_t lo = 0, hi = 0;

  auto operator<=>(const RaceRecordKey&) const = default;
};

[[nodiscard]] RaceRecordKey race_key(const RaceRecord& race);

/// For the detectors' per-run dedup sets.
struct RaceRecordKeyHash {
  std::size_t operator()(const RaceRecordKey& k) const;
};

/// The RaceReport of a record whose ids all resolve in `names`.
[[nodiscard]] RaceReport build_report(const NameTables& names, const RaceRecord& race);

/// The distinct races of one run, in detection order: compact records
/// plus the name tables that print them. Indexing builds that race's
/// RaceReport on first access and caches it, so a consumer that reads
/// four reports out of a hundred pays for four. Copies share records
/// and cache; every method is safe to call from several threads.
class RaceList {
 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = RaceReport;
    using difference_type = std::ptrdiff_t;
    using pointer = const RaceReport*;
    using reference = const RaceReport&;

    const_iterator() = default;
    const_iterator(const RaceList* list, std::size_t index) : list_(list), index_(index) {}
    reference operator*() const { return (*list_)[index_]; }
    pointer operator->() const { return &(*list_)[index_]; }
    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++index_;
      return before;
    }
    bool operator==(const const_iterator&) const = default;

   private:
    const RaceList* list_ = nullptr;
    std::size_t index_ = 0;
  };

  RaceList() = default;
  /// Records whose ids all resolve in `names`.
  RaceList(std::shared_ptr<const NameTables> names, std::vector<RaceRecord> records);
  /// Reports that are already built (a sink without compact records).
  explicit RaceList(std::vector<RaceReport> reports);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool empty() const { return size() == 0; }
  /// The i-th report, built on first access. The reference stays valid
  /// for as long as any copy of this list lives.
  [[nodiscard]] const RaceReport& operator[](std::size_t i) const;
  [[nodiscard]] const RaceReport& front() const { return (*this)[0]; }
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size()}; }

  /// How many reports have been built so far.
  [[nodiscard]] std::size_t materialized() const;

  /// Merge per-shard lists into the order the inline detector would
  /// have produced. Because a race is keyed by the *second* access — the
  /// one that completed it — and every detector stamps that access with
  /// its detector-global event number (which a sharded run overrides to
  /// the router's global numbering via set_event_clock), a stable sort
  /// on `second.event` reconstructs detection order exactly: two races
  /// never share a stamp unless they fired on the same event, i.e. in
  /// the same shard, where input order already matches. Re-applies the
  /// per-(variable, site pair) dedup on ids as a safety net. Every shard
  /// must hold records over the same NameTables.
  [[nodiscard]] static RaceList merge_shards(const std::vector<RaceList>& shards);

 private:
  struct State;
  std::shared_ptr<State> state_;
};

/// The one summary format every verdict path prints (Detector::summary,
/// trace::AnalysisPipeline::summary and life::TracedLifeResult::report
/// all call it), so a sharded analysis can be compared byte-for-byte
/// against the inline one.
[[nodiscard]] std::string summarize_races(const RaceList& races, std::uint64_t race_count,
                                          std::uint64_t events, std::size_t threads);

/// The event interface every race-detector implementation honours. An
/// implementation is an event sink: intern each name once, feed it
/// fork/join/acquire/release/read/write/barrier/channel events by the
/// ids that came back, and ask for the verdict. Events carry ids, so a
/// sink keys its checked state by id and resolves a name only when it
/// builds a report; a sink that ignores a kind of name may return one
/// id for all of them. A trace::TraceContext interns a name into each
/// sink the first time one of its events carries it, so in
/// first-dispatch order. The name forms (`read(t, "x", "site")` and the
/// rest) are conveniences defined once here: intern, then the id form.
///
/// A sink has one owner and takes no lock (perfbook's data ownership):
///   - one thread at a time feeds it (interning included);
///   - the feeder supplies the happens-before edge to whoever reads it
///     next: a TraceContext dispatches under its stream mutex, an
///     AnalysisPipeline shard's detector is read after wait_idle, and a
///     replay, the explorer or a fuzz-trace run feeds from one thread;
///   - its read accessors (`races()`, `summary()`, `events()` and the
///     rest) are called only once the feed is quiescent, e.g. after
///     TraceContext::flush, and by one thread at a time: `races()`
///     builds reports into the sink and returns a reference to them.
class EventSink {
 public:
  virtual ~EventSink() = default;

  /// Register a root thread with no happens-before predecessor.
  /// Thread 0 (the main thread) is pre-registered by the constructor.
  [[nodiscard]] virtual ThreadId register_thread() = 0;

  /// pthread_create: child starts having observed everything the parent
  /// has done so far (HB edge parent -> child). Returns the child id.
  [[nodiscard]] virtual ThreadId fork(ThreadId parent) = 0;

  /// pthread_join: parent observes everything the child did
  /// (HB edge child -> parent).
  virtual void join(ThreadId parent, ThreadId child) = 0;

  /// A completed barrier cycle is a happens-before edge among ALL
  /// waiters: afterwards every waiter has observed every other waiter's
  /// pre-barrier work. Throws cs31::Error on an empty waiter set.
  virtual void barrier(const std::vector<ThreadId>& waiters) = 0;

  /// The sink's id of a name, interning it on first sight.
  [[nodiscard]] virtual NameId intern_var(std::string_view name) = 0;
  [[nodiscard]] virtual NameId intern_lock(std::string_view name) = 0;
  [[nodiscard]] virtual NameId intern_channel(std::string_view name) = 0;
  [[nodiscard]] virtual NameId intern_site(std::string_view label) = 0;

  /// Mutex acquire: the locker observes the last critical section.
  virtual void acquire(ThreadId t, NameId lock) = 0;

  /// Mutex release: publish this thread's clock to the lock. Throws
  /// cs31::Error when the thread does not hold the lock.
  virtual void release(ThreadId t, NameId lock) = 0;

  /// Producer/consumer publication: send joins the sender's clock into
  /// the channel; recv joins the channel into the receiver.
  virtual void channel_send(ThreadId t, NameId channel) = 0;
  virtual void channel_recv(ThreadId t, NameId channel) = 0;

  /// A read/write of a traced variable. `site` labels the access in
  /// reports.
  virtual void read(ThreadId t, NameId var, NameId site) = 0;
  virtual void write(ThreadId t, NameId var, NameId site) = 0;

  /// Name forms: intern, then the id form. A sink that overrides the id
  /// forms re-exposes these with using-declarations.
  void acquire(ThreadId t, std::string_view lock) { acquire(t, intern_lock(lock)); }
  void release(ThreadId t, std::string_view lock) { release(t, intern_lock(lock)); }
  void channel_send(ThreadId t, std::string_view channel) {
    channel_send(t, intern_channel(channel));
  }
  void channel_recv(ThreadId t, std::string_view channel) {
    channel_recv(t, intern_channel(channel));
  }
  void read(ThreadId t, std::string_view var, std::string_view where = "") {
    const NameId id = intern_var(var);
    read(t, id, intern_site(where));
  }
  void write(ThreadId t, std::string_view var, std::string_view where = "") {
    const NameId id = intern_var(var);
    write(t, id, intern_site(where));
  }

  /// Races found so far, in detection order, deduplicated per
  /// (variable, site pair) — see race_pair_key. `race_count()` still
  /// counts every racy access. Builds every report; a consumer that
  /// reads a few uses Detector::race_list instead.
  [[nodiscard]] virtual const std::vector<RaceReport>& races() const = 0;
  [[nodiscard]] virtual bool race_free() const = 0;
  [[nodiscard]] virtual std::uint64_t race_count() const = 0;

  /// Total events processed.
  [[nodiscard]] virtual std::uint64_t events() const = 0;

  /// Number of registered threads.
  [[nodiscard]] virtual std::size_t threads() const = 0;

  /// Approximate bytes of shadow state held right now (per-variable
  /// metadata, lock/channel clocks, thread clocks, name storage) — the
  /// number bench_race_overhead compares across implementations.
  [[nodiscard]] virtual std::size_t shadow_bytes() const = 0;

  /// Multi-line human-readable summary of all reports.
  [[nodiscard]] virtual std::string summary() const = 0;
};

/// The FastTrack-compressed detector (see the file comment for the
/// representation). Instrumentation that fires many events per name
/// interns once and fires ids; the name forms intern on every call and
/// exist for casual use.
class Detector final : public EventSink {
 public:
  Detector();
  /// Intern into `names`, shared with whoever else holds them (a
  /// trace::TraceContext hands its own tables to its built-in detector,
  /// so each name is interned once and ids need no translation). Ids
  /// interned there by others are valid here.
  explicit Detector(std::shared_ptr<NameTables> names);

  Detector(const Detector&) = delete;
  Detector& operator=(const Detector&) = delete;

  [[nodiscard]] ThreadId register_thread() override;
  [[nodiscard]] ThreadId fork(ThreadId parent) override;
  void join(ThreadId parent, ThreadId child) override;
  void barrier(const std::vector<ThreadId>& waiters) override;

  // Intern once (any thread), then fire events by id: no hashing, no
  // string building, no allocation per access.
  [[nodiscard]] NameId intern_var(std::string_view name) override;
  [[nodiscard]] NameId intern_lock(std::string_view name) override;
  [[nodiscard]] NameId intern_channel(std::string_view name) override;
  [[nodiscard]] NameId intern_site(std::string_view label) override;

  void acquire(ThreadId t, NameId lock) override;
  void release(ThreadId t, NameId lock) override;
  void channel_send(ThreadId t, NameId channel) override;
  void channel_recv(ThreadId t, NameId channel) override;
  void read(ThreadId t, NameId var, NameId site) override;
  void write(ThreadId t, NameId var, NameId site) override;
  using EventSink::acquire, EventSink::release, EventSink::channel_send,
      EventSink::channel_recv, EventSink::read, EventSink::write;

  [[nodiscard]] const std::vector<RaceReport>& races() const override;
  [[nodiscard]] bool race_free() const override;
  [[nodiscard]] std::uint64_t race_count() const override;
  [[nodiscard]] std::uint64_t events() const override;
  [[nodiscard]] std::size_t threads() const override;
  [[nodiscard]] std::size_t shadow_bytes() const override;
  [[nodiscard]] std::string summary() const override;

  /// The races found so far as compact records; no report is built
  /// until the list is indexed.
  [[nodiscard]] RaceList race_list() const;

  /// The same records, in place: a reference into the detector, to be
  /// read once events have stopped, as races().
  [[nodiscard]] const std::vector<RaceRecord>& records() const;

  [[nodiscard]] const std::shared_ptr<NameTables>& names() const { return names_; }

  /// One read or write on the id fast path.
  struct Access {
    ThreadId thread = 0;
    AccessKind kind = AccessKind::Read;
    NameId var = 0;
    NameId site = 0;
    /// When nonzero, the access's event number: the event clock is
    /// pinned to it first (set_event_clock(event - 1)), so a shard that
    /// sees only a slice of the stream numbers it like the whole.
    std::uint64_t event = 0;
  };
  /// A run of accesses in one call: exactly read()/write() on
  /// `to_access(e)` for each element e of [first, last), in order.
  template <typename It, typename ToAccess>
  void check_accesses(It first, It last, ToAccess to_access) {
    for (; first != last; ++first) {
      const Access a = to_access(*first);
      if (a.event != 0) events_ = a.event - 1;
      check_and_record(a.thread, a.var, a.kind, a.site);
    }
  }

  /// The journaled feed (see the file comment). `step` is the event of
  /// a script op other than a barrier arrival (object: its variable,
  /// lock or channel id) and `step_barrier` a completed cycle. Register
  /// every thread and intern every name before the first step.
  void step(Verb verb, ThreadId t, NameId object, NameId site);
  void step_barrier(const std::vector<ThreadId>& waiters);
  void undo();

  /// Pin the event clock so the *next* event is numbered `seen + 1`.
  /// A sharded analysis (trace::AnalysisPipeline) calls this before
  /// every sync event with the router's global event index (accesses
  /// carry theirs in Access::event): each shard sees
  /// only a slice of the stream, but its AccessSite.event values — and
  /// therefore its reports — come out identical to an inline detector
  /// that saw everything.
  void set_event_clock(std::uint64_t seen);

 private:
  /// One reading thread of a read-shared variable: its clock at the
  /// read and where it read.
  struct Reader {
    ThreadId tid = 0;
    Clock clock = 0;
    CompactSite site;
  };

  /// Shadow state of one traced variable. Exactly one of these holds
  /// per variable:
  ///   readers empty, read_epoch.clock == 0 -> no reads since the last write
  ///   readers empty, read_epoch.clock != 0 -> one reading thread (epoch)
  ///   readers.size() >= 2                  -> read-shared (inflated); the
  ///     readers are sorted by thread id (reports iterate in tid order,
  ///     matching the reference detector's std::map walk) and read_epoch
  ///     and read_site are empty
  /// A write empties the readers and releases their storage (a
  /// journaled write keeps it for the undo).
  struct Epochs {
    Epoch write_epoch;  ///< last write as c@t; clock 0 = never written
    Epoch read_epoch;   ///< exclusive read as c@t; clock 0 = none
    CompactSite write_site;
    CompactSite read_site;
  };
  struct VarState : Epochs {
    std::vector<Reader> readers;
  };

  struct ThreadState {
    VectorClock vc;
    std::vector<NameId> held;  ///< lock ids, acquisition order
    /// The last lockset block handed to a site, reused while `held`
    /// still equals it.
    std::shared_ptr<const std::vector<NameId>> lockset;
  };

  /// The distinct races' keys, open-addressed (linear probing, a
  /// power-of-two table at most half full). A key leaves only while it
  /// is the newest one in (an undo), so erasing just empties its slot:
  /// no probe ran through a slot that was empty when its key came in.
  class KeySet {
   public:
    bool insert(const RaceRecordKey& key);
    void erase_newest(const RaceRecordKey& key) {
      slots_[find(key)].second = false;
      --size_;
    }

   private:
    [[nodiscard]] std::size_t find(const RaceRecordKey& key) const;
    std::vector<std::pair<RaceRecordKey, bool>> slots_;
    std::size_t size_ = 0;
  };

  /// One journaled slot. A Step entry opens each step with the counters
  /// before it; a saved clock's components sit in clock_arena_ from `at`
  /// on, a variable's epochs on top of saved_vars_ and its readers in
  /// saved_readers_ from `at` on.
  struct Saved {
    enum class Slot : std::uint8_t { Step, Clock, Var, Pushed, Erased } slot = Slot::Step;
    VectorClock* clock = nullptr;
    VarState* var = nullptr;
    std::vector<NameId>* held = nullptr;
    NameId lock = 0;     ///< Erased: the lock taken out of `held`
    std::size_t at = 0;  ///< Clock, Var: arena offset; Erased: position; Step: records
    std::uint64_t events = 0, race_count = 0;
  };
  Saved& save(Saved::Slot slot);
  void save(VectorClock& clock);

  ThreadState& state(ThreadId t);
  /// Size a per-id table to cover `id`, which must be interned in
  /// names_ (it may have been by a context sharing them). The table
  /// grows to every id interned so far, so a context that interns a
  /// whole grid up front costs one resize, not one per new id.
  template <typename Table>
  void cover(Table& table, NameKind kind, NameId id);
  // The event bodies; kJournal saves what each overwrites first.
  template <bool kJournal>
  void on_acquire(ThreadId t, NameId lock);
  template <bool kJournal>
  void on_release(ThreadId t, NameId lock);
  template <bool kJournal>
  void on_send(ThreadId t, NameId channel);
  template <bool kJournal>
  void on_recv(ThreadId t, NameId channel);
  template <bool kJournal>
  void on_barrier(const std::vector<ThreadId>& waiters);
  template <bool kJournal = false>
  void check_and_record(ThreadId t, NameId var, AccessKind kind, NameId site_label);
  void report(NameId var, const CompactSite& first, const CompactSite& second,
              Conflict conflict);
  [[nodiscard]] CompactSite make_site(ThreadId t, AccessKind kind, NameId where);
  /// A block holding `held`: a stored one with the same content, else a
  /// new one (kept for reuse while the list has room).
  [[nodiscard]] std::shared_ptr<const std::vector<NameId>> lockset_block(
      const std::vector<NameId>& held);

  std::vector<ThreadState> threads_;
  std::vector<VectorClock> locks_;     // by lock id
  std::vector<VectorClock> channels_;  // by channel id
  std::vector<VarState> vars_;         // by variable id
  std::shared_ptr<NameTables> names_;
  std::vector<RaceRecord> records_;   // distinct races, detection order
  KeySet reported_;                   // records_' keys
  mutable std::vector<RaceReport> built_;  // races(): records_ built so far
  std::uint64_t race_count_ = 0;
  std::uint64_t events_ = 0;
  VectorClock barrier_clock_;     // a barrier's joined clock, reused
  std::vector<Saved> journal_;        // the steps standing, oldest first
  std::vector<Clock> clock_arena_;    // the journal's saved clocks
  std::vector<Epochs> saved_vars_;     // the journal's saved variables
  std::vector<Reader> saved_readers_;  // and their readers
  /// The lockset blocks made so far (the first 32), reused by content:
  /// a thread that moves between nested locksets finds its old blocks
  /// here instead of allocating one per access in every schedule.
  std::vector<std::shared_ptr<const std::vector<NameId>>> locksets_;
};

}  // namespace cs31::race
