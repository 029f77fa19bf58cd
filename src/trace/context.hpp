// The parallel runtime's single instrumentation seam. A TraceContext is
// three layers glued together:
//
//   capture   — per-thread append-only event buffers (event.hpp): a
//               bound thread records an access as one vector push_back
//               of a 32-byte POD, no locks, no strings, no detector
//               work. In the default lock-free mode, acquire/release/
//               send/recv land in the *same* per-thread buffers: the
//               capturing thread takes one global stamp (an atomic
//               fetch_add performed while the traced primitive is
//               held, so stamps respect the real synchronization
//               order) plus the object's own sequence number (a second
//               fetch_add on the primitive's counter), and appends —
//               no mutex anywhere on the sync hot path. Only the rare
//               structural edges (fork/join/barrier cycles) take the
//               serialized slow path, which they need anyway to mutate
//               the thread registry. CaptureMode::mutex_stream keeps
//               the original design — every sync event stamped and
//               appended to one global stream under stream_mutex_ — as
//               the reference implementation the differential harness
//               compares against.
//   drain     — at a barrier cycle, a join, or an explicit flush(), the
//               quiescent threads' buffers and the sync stream (the
//               fork/join/barrier edges, plus every object sync in
//               mutex_stream mode) merge into one deterministically
//               ordered stream (Event::drain_order: stamp, sync-first,
//               thread id, program order). Each source is already
//               drain-ordered, so the merge is a k-way merge of sorted
//               runs, linear in the events drained, not a sort. Drains
//               bound buffer memory and make repeated race-free runs
//               produce byte-identical certificates — in either
//               capture mode: see "Ordering" below for why the
//               lock-free merge reproduces the mutex-ordered stream
//               exactly. A drain is two steps:
//               take the covered buffers' events (a vector swap each),
//               then merge and dispatch; a barrier lets its waiters go in
//               between, so they run while the last arriver merges.
//   sinks     — every attached race::EventSink consumes the identical
//               drained stream, by id: the built-in FastTrack
//               race::Detector, the ReferenceDetector, the Eraser-style
//               LocksetDetector, a MetricsSink, anything else honouring
//               the interface. A detector that shares the context's
//               name tables gets each run of access events in one call
//               (Detector::check_accesses); any other sink gets its own
//               ids, each name interned into it on first sight. Each
//               sink sees the same events in the same order, dispatched
//               under stream_mutex_, which makes the draining thread
//               the sinks' one owner (race::EventSink).
//
// Ordering (why lock-free capture drains byte-identically):
//   1. Stamps are fetch_adds on one atomic, so they are unique and
//      totally ordered; drain_order is the same function either mode.
//   2. A sync's stamp is taken while its object is held. Two syncs on
//      the same object are ordered by the object's own mutex, and that
//      happens-before edge orders their two fetch_adds on *both*
//      atomics (RMWs on one atomic take increasing values along
//      happens-before) — so per object, stamp order == per-object seq
//      order == the real synchronization order. The drain asserts the
//      (object id, seq) pairs run 0,1,2,… per object as it dispatches;
//      a violated assertion would mean a lost or reordered record.
//      mutex_stream takes both counters under stream_mutex_, so the
//      same records carry the same numbers — Event streams, not just
//      verdicts, are comparable byte-for-byte across modes.
//   3. The dispatch-horizon machinery below is mode-independent: an
//      undrained buffer's events all carry stamps >= that buffer's
//      floor, and any *future* capture (access or sync) gets a stamp >=
//      the floor too (accesses reuse the thread's epoch, new syncs draw
//      a fresh stamp above every floor). So dispatching strictly below
//      the minimum uncovered floor — plus the floor stamp's own sync
//      event, which drain_order places before the accesses executing in
//      it — can never be contradicted by a later capture, and every
//      drain dispatches a prefix of the one global drain_order stream,
//      whatever the drain batching was.
//
// The same context serves two execution styles with one code path:
// real threads bind themselves (bind_self / a traced ThreadTeam) and
// use the calling-thread API, while a scripted emitter plays every
// thread from a single OS thread (the *_as API). The Lab 10 round is
// written once (ParallelLife's compute and swap phases, life/life.cpp)
// and takes its capture as a parameter: ParallelLife::run(traced)
// passes accesses() on each real thread. life::traced_life_check's
// replay emits in dispatch order from one thread, so it normally feeds
// its detector directly (life::SinkFeed, through a SinkBinding) and
// needs none of the buffers or drains here; only its pipelined and
// sampled forms replay through a context's accesses_as().
//
// Quiescence contract (checked by usage, not locks): a drain may only
// cover buffers whose owning threads are blocked or finished — barrier
// drains take the waiters' events while every waiter sits in the
// barrier (the caller holds the barrier mutex; the merge that follows
// touches only what was taken), join drains run after pthread_join, flush() runs
// when the caller knows all bound threads are done. Threads outside a
// partial drain must be idle between their last drain and the next one
// (the fork/join-structured teams in this kit satisfy that: the parent
// drains its own buffer when it forks, then blocks in join()).
//
// Buffer reclamation: a joined thread's buffer is *retired*, not freed
// — epoch-based reclamation (perfbook ch. 9) frees it only after a
// grace period. Retirement bumps a global reclamation epoch; each live
// buffer carries the last epoch its thread was observed quiescent at
// (drains advance it for every covered buffer — the buffer-publish
// point — and unpark advances it on the capture side); a retired
// buffer is freed once every live, unparked buffer has been quiescent
// at or after its retirement epoch. Within this kit's structured
// fork/join model the locks already exclude drain-vs-drain races, so
// the grace period is defense in depth — but it is exactly the
// discipline a capture path without those locks needs, it keeps drains
// scanning O(live threads) instead of O(threads ever forked), and it
// bounds memory for long-lived contexts with thread churn. The asan
// tier runs the churn path to prove no use-after-reclaim.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "race/detector.hpp"
#include "trace/event.hpp"

namespace cs31::trace {

class AnalysisPipeline;

/// How sync events are captured. Access events are lock-free per-thread
/// appends in both modes; the modes differ only in how acquire/release/
/// send/recv are stamped and stored. Drained streams are byte-identical
/// across modes (see the file comment's ordering argument, and
/// tests/trace_capture_diff_test.cpp for the proof-by-harness).
enum class CaptureMode : std::uint8_t {
  /// Sync events go into the capturing thread's own buffer, stamped by
  /// two atomic fetch_adds (global stamp + per-object seq) taken while
  /// the traced primitive is held. The default.
  lockfree,
  /// The original design: every sync event is stamped and appended to
  /// one global stream under stream_mutex_. Kept as the reference
  /// implementation for differential testing and the mutex-vs-lock-free
  /// teaching contrast (examples/race_detective).
  mutex_stream,
};

/// Capture-side statistics for one thread's buffer — the numbers
/// bench_race_overhead reports as per-thread high-water marks. Retired
/// (reclaimed) buffers keep reporting their final snapshot.
struct BufferStats {
  ThreadId thread = 0;
  std::uint64_t captured = 0;     ///< lifetime events recorded
  std::uint64_t high_water = 0;   ///< max buffered events seen at a drain
  std::uint64_t sampled_out = 0;  ///< access events dropped by sampling
};

/// How one sink receives a feeder's events: a context's inline sinks,
/// each AnalysisPipeline shard's detector and the Life replay's direct
/// feed (life::SinkFeed) go through the same binding, and every sink
/// takes ids. `shared` is set when the sink is a race::Detector over the
/// feeder's own name tables (the built-in detector and the pipeline's
/// shard detectors are): its ids need no translation and it takes whole
/// runs of accesses. Any other sink gets ids translated through maps
/// built lazily from the feeder's names (a name is looked up and
/// interned into the sink once, on first sight).
struct SinkBinding {
  SinkBinding(race::EventSink& sink, const std::shared_ptr<race::NameTables>& names);

  /// Hand `event` to the sink: thread ids remapped through tid_map, a
  /// BarrierCycle's waiters looked up in `waiter_sets`.
  void dispatch(const Event& event, const race::NameTables& names,
                const std::vector<std::vector<ThreadId>>& waiter_sets);
  /// A read or write event as the shared detector's access, numbered
  /// `event` when that is nonzero (Detector::Access::event).
  [[nodiscard]] race::Detector::Access access(const Event& e, std::uint64_t event = 0) const {
    return race::Detector::Access{
        tid_map[e.thread], e.kind == EventKind::Read ? race::AccessKind::Read
                                                     : race::AccessKind::Write,
        e.id, e.site, event};
  }

  race::EventSink* sink = nullptr;
  race::Detector* shared = nullptr;
  std::vector<ThreadId> tid_map{0};  ///< context tid -> sink tid; thread 0 is thread 0
  std::vector<NameId> var_map, lock_map, channel_map, site_map;
};

class TraceContext {
 public:
  struct Options {
    /// Construct and attach the built-in FastTrack race::Detector. Turn
    /// off to drive only externally attached sinks (e.g. timing the
    /// ReferenceDetector alone) or an AnalysisPipeline.
    bool own_detector = true;

    /// Sampling capture mode: keep each *access* event with this
    /// probability (sync events are always kept — dropping one would
    /// invent false races by erasing a real happens-before edge). The
    /// per-thread decision stream is a counter-free xorshift seeded by
    /// the thread's context id, so a given rate drops the *same*
    /// accesses run after run: sampled verdicts are reproducible, and
    /// rate 1.0 is bit-for-bit the unsampled capture path.
    /// bench_race_overhead quantifies the detection-probability /
    /// overhead trade-off (EXPERIMENTS.md has the curve).
    double sample_access_events = 1.0;

    /// Sync-event capture design; see CaptureMode. Verdicts, reports,
    /// certificates, and drained streams do not depend on the choice —
    /// only the capture hot path's cost does.
    CaptureMode capture = CaptureMode::lockfree;
  };

  TraceContext() : TraceContext(Options{}) {}
  explicit TraceContext(Options options);
  ~TraceContext();

  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  [[nodiscard]] CaptureMode capture_mode() const {
    return lockfree_ ? CaptureMode::lockfree : CaptureMode::mutex_stream;
  }

  // --- sinks -----------------------------------------------------------

  /// Attach an additional sink. Every sink sees the identical drained
  /// stream. Attach before the first event; the sink must outlive the
  /// context's last drain.
  void attach_sink(race::EventSink& sink);

  /// The built-in detector. Throws cs31::Error when constructed with
  /// own_detector = false. Read verdicts only after flush().
  [[nodiscard]] race::Detector& detector();
  [[nodiscard]] const race::Detector& detector() const;
  [[nodiscard]] bool has_detector() const { return detector_ != nullptr; }

  /// Route drains through `pipeline` instead of inline sinks: a drain
  /// appends its dispatched prefix to an outbox and returns; once the
  /// outbox holds kPublishEvents events it is published as one batch —
  /// analysis happens on the pipeline's threads, off the parallel hot
  /// path (see pipeline.hpp). From here on the context interns into the
  /// pipeline's name tables, which its shard detectors share, so a batch
  /// carries events and no names. Requires a context with no inline
  /// sinks (own_detector = false, nothing attached), no events and no
  /// interned name yet: attach right after construction. flush()
  /// publishes what the outbox holds and then waits for the pipeline to
  /// go idle, so "flush, then read the verdict" keeps working. The
  /// pipeline must outlive the context.
  void attach_pipeline(AnalysisPipeline& pipeline);
  [[nodiscard]] bool has_pipeline() const { return pipeline_ != nullptr; }

  // --- interning -------------------------------------------------------
  // Ids are context-owned; the drain translates them per sink (the
  // built-in detector shares the context's tables, and a pipeline's
  // shard detectors the pipeline's, which the context adopts, so their
  // ids need no translation). Safe from any thread, any time. Interning
  // a lock or channel also grows its per-object sequence counter (the
  // lock-free capture path reads the counter table without locks;
  // growth happens only here).
  [[nodiscard]] NameId intern_var(std::string_view name);
  [[nodiscard]] NameId intern_lock(std::string_view name);
  [[nodiscard]] NameId intern_channel(std::string_view name);
  [[nodiscard]] NameId intern_site(std::string_view label);

  /// Reserve `count` consecutive variable ids named `format(0)` …
  /// `format(count - 1)` and return the first (race::Interner::reserve:
  /// on a context with no variables yet no name is formatted until it
  /// is read).
  [[nodiscard]] NameId reserve_vars(std::size_t count, race::NameFormat format);

  // --- thread lifecycle ------------------------------------------------

  /// The context id bound to the calling OS thread. Throws cs31::Error
  /// when the thread was never bound.
  [[nodiscard]] ThreadId self() const;

  /// Fork hook, bound-thread form: called by the *parent* before
  /// spawning. Records the Fork edge, drains the parent's buffer, and
  /// returns the child's id for bind_self.
  [[nodiscard]] ThreadId on_thread_create();

  /// Bind the calling OS thread to `tid` — the first statement a
  /// spawned thread runs.
  void bind_self(ThreadId tid);

  /// Join hook, bound-thread form: called by the parent after joining
  /// every thread in `children` (distinct ids). Records their Join
  /// edges in the given order, then drains the children's buffers and
  /// the parent's in one drain and retires the children (each freed
  /// after a grace period; see the file comment). The dispatched stream
  /// is the one joining the children one at a time, in that order,
  /// would give (every drain dispatches a prefix of one global order,
  /// however drains are batched); it costs one merge instead of one per
  /// child, each re-merging what the children not yet joined held back.
  /// Throws cs31::Error on a repeated id, before recording anything.
  void on_team_join(const std::vector<ThreadId>& children);

  /// Scripted forms of the same edges, for replay-style emission where
  /// one OS thread plays every role (no binding involved).
  [[nodiscard]] ThreadId fork_thread(ThreadId parent);
  void join_thread(ThreadId parent, ThreadId child);
  void join_threads(ThreadId parent, const std::vector<ThreadId>& children);

  // --- capture: bound-thread API --------------------------------------
  void read(NameId var, NameId site = 0);
  void write(NameId var, NameId site = 0);
  /// `count` accesses of one kind by the calling thread to the variables
  /// `first`, `first + stride`, … at one site: read()/write() in a loop,
  /// with the buffer resolved and grown once. Sampling still decides per
  /// access.
  void accesses(race::AccessKind kind, NameId first, std::size_t count, std::size_t stride,
                NameId site = 0);
  void acquire(NameId lock);
  void release(NameId lock);
  void send(NameId channel);
  void recv(NameId channel);

  // --- capture: scripted (explicit-tid) API ---------------------------
  // The caller guarantees thread `t` is not concurrently bound and
  // running (single-threaded replay, or emission on behalf of a thread
  // the caller controls).
  void read_as(ThreadId t, NameId var, NameId site = 0);
  void write_as(ThreadId t, NameId var, NameId site = 0);
  /// `count` accesses of one kind by thread `t` to the variables
  /// `first`, `first + stride`, … at one site: read_as/write_as in a
  /// loop, with the thread's buffer looked up once. Sampling still
  /// decides per access.
  void accesses_as(ThreadId t, race::AccessKind kind, NameId first, std::size_t count,
                   std::size_t stride, NameId site = 0);
  void acquire_as(ThreadId t, NameId lock);
  void release_as(ThreadId t, NameId lock);
  void send_as(ThreadId t, NameId channel);
  void recv_as(ThreadId t, NameId channel);

  // --- barrier / drain -------------------------------------------------

  /// A completed barrier cycle over `waiters`: records the cycle edge
  /// (unless `report` is false — the "forgotten barrier" model: the
  /// real barrier still ran, the detector is not told), advances every
  /// waiter's epoch, and drains the waiters' buffers plus the sync
  /// stream. All waiters must be blocked in the barrier (or scripted).
  /// A cycle over the same waiter set as the previous one reuses its
  /// waiter-set entry, so a long run of barrier rounds does not grow
  /// the table. Throws cs31::Error on an empty waiter set.
  ///
  /// `release`, when given, runs once the cycle is recorded and the
  /// waiters' events are taken out of their buffers, before those events
  /// are merged and dispatched: parallel::Barrier lets its waiters go
  /// there (it signals them before calling this, so their wake-up
  /// overlaps the recording too), and the merge and any inline analysis
  /// overlap their run instead of delaying it. From `release` on the
  /// waiters may capture again, and the caller must not touch
  /// `waiters`.
  void barrier_cycle(const std::vector<ThreadId>& waiters, bool report = true,
                     const std::function<void()>& release = {});

  /// Drain every buffer and the sync stream. All bound threads must be
  /// quiescent. Call before reading any sink's verdict.
  void flush();

  /// Declare the calling thread dormant: drain its buffer and stop it
  /// constraining the dispatch horizon (see drain_locked) until its
  /// next capture, which un-parks it automatically. A traced ThreadTeam
  /// parks the parent after spawning — the parent then sits in join()
  /// while the workers' barrier drains dispatch every cycle instead of
  /// pooling behind the idle parent's watermark. Bound threads only;
  /// do not mix with scripted (_as) emission for the same id.
  void park_self();

  // --- metrics ---------------------------------------------------------
  [[nodiscard]] std::vector<BufferStats> buffer_stats() const;
  [[nodiscard]] std::uint64_t drains() const;
  [[nodiscard]] std::uint64_t events_captured() const;
  /// Access events dropped by the sampling capture mode (0 at rate 1.0).
  [[nodiscard]] std::uint64_t events_sampled_out() const;
  /// Joined threads' buffers freed so far (each was retired at its
  /// join and reclaimed at a later drain, after the grace period).
  [[nodiscard]] std::uint64_t buffers_reclaimed() const;

 private:
  /// A parked thread's floor: it promises no further captures until it
  /// un-parks, so it never holds back a drain.
  static constexpr std::uint64_t kParkedFloor = ~std::uint64_t{0};

  /// Destructive-interference distance on the hosts this kit targets.
  static constexpr std::size_t kCacheLine = 64;

  /// Pipelined mode publishes a batch once this many dispatched events
  /// have gathered (16 KiB of events): enough that a barrier-paced run
  /// wakes the pipeline every few cycles rather than every cycle, few
  /// enough that a batch's memory stays in a handful of recycled pages
  /// and flush() leaves little analysis to wait for.
  static constexpr std::size_t kPublishEvents = 512;

  /// One thread's capture state. Line-aligned: its owner writes it on
  /// every capture, so two threads' buffers must not share a line. The
  /// first line holds what the owner writes per capture and a drain
  /// reads or writes for every buffer it covers — the one line a drain
  /// pulls from each owner's cache; the second holds what the owner
  /// writes only when sampling and what drains write only now and then
  /// (a new high-water mark, an epoch while a buffer awaits
  /// reclamation).
  struct alignas(kCacheLine) ThreadBuffer {
    std::vector<Event> events;
    std::uint64_t seq = 0;         ///< next per-thread sequence number
    std::uint64_t epoch = 0;       ///< last observed sync stamp
    std::uint64_t captured = 0;    ///< lifetime events
    /// Smallest stamp this thread could still capture or hold
    /// undrained (guarded by stream_mutex_): its epoch as of its last
    /// drain, kParkedFloor when parked or joined. A drain may dispatch
    /// only events below every *undrained* buffer's floor — later
    /// events wait in pending_ so dispatch order always equals the
    /// global drain_order, whatever the drain batching was.
    std::uint64_t floor = 0;
    /// `events` holds an acquire/release/send/recv (lock-free mode), so
    /// a drain must read it for the per-object seq check; a run of
    /// accesses alone goes to the sinks unread.
    bool object_syncs = false;

    alignas(kCacheLine) std::uint64_t high_water = 0;  ///< max events.size() at a drain
    /// Reclamation: the last global reclamation epoch this thread was
    /// observed quiescent at (advanced by drains covering the buffer
    /// and by unpark). Retired buffers are freed only once every live
    /// unparked buffer's qepoch has reached their retirement epoch.
    std::atomic<std::uint64_t> qepoch{0};
    common::Xorshift32 rng{1};     ///< sampling decision stream (per-thread, seeded by tid)
    std::uint64_t sampled_out = 0; ///< access events dropped by sampling
  };

  /// Lock-free lookup table of per-object sync sequence counters, one
  /// per interned lock/channel id. Readers (the capture hot path) do
  /// two dependent loads and no locks; growth happens only under
  /// seq_mutex_, at intern time, by publishing whole chunks — a
  /// published chunk never moves, so a reader can never see a counter
  /// relocate mid-fetch_add.
  class SyncSeqTable {
   public:
    static constexpr std::size_t kChunkSize = 256;
    static constexpr std::size_t kMaxChunks = 1024;  ///< 256Ki objects

    SyncSeqTable() = default;
    SyncSeqTable(const SyncSeqTable&) = delete;
    SyncSeqTable& operator=(const SyncSeqTable&) = delete;
    ~SyncSeqTable();

    /// Make ids [0, count) addressable. Caller holds seq_mutex_.
    void ensure(std::size_t count);
    /// The counter for `id`. Throws cs31::Error when `id` was never
    /// interned through this context.
    [[nodiscard]] std::atomic<std::uint64_t>& counter(NameId id) const;

   private:
    /// One counter per cache line: threads syncing on different objects
    /// must not contend for one line.
    struct alignas(kCacheLine) Slot {
      std::atomic<std::uint64_t> value{0};
    };
    struct Chunk {
      std::array<Slot, kChunkSize> slots{};
    };
    std::array<std::atomic<Chunk*>, kMaxChunks> chunks_{};
  };

  /// A joined thread's buffer awaiting its grace period.
  struct RetiredBuffer {
    std::unique_ptr<ThreadBuffer> buffer;
    std::uint64_t retire_epoch = 0;
  };

  [[nodiscard]] ThreadBuffer& buffer_of_self();
  [[nodiscard]] ThreadBuffer& buffer_of(ThreadId t);
  /// buffer_of for a caller that already holds registry_mutex_.
  [[nodiscard]] ThreadBuffer& buffer_of_locked(ThreadId t);
  /// accesses()/accesses_as() on a resolved buffer; `bound` says the
  /// buffer is the calling thread's own (which may be parked).
  void append_accesses(ThreadBuffer& buf, ThreadId t, race::AccessKind kind, NameId first,
                       std::size_t count, std::size_t stride, NameId site, bool bound);
  void append_access(ThreadBuffer& buf, ThreadId t, EventKind kind, NameId id,
                     NameId site);
  /// Advance `buf`'s sampling stream one step; false means drop the
  /// access (and count it). Only called when sampling is enabled.
  [[nodiscard]] bool sample_keep(ThreadBuffer& buf);
  /// Slow path of the first capture after park_self().
  void unpark(ThreadBuffer& buf);
  // Object-sync capture (acquire/release/send/recv; the caller holds
  // the traced primitive — see the ordering argument up top). `seqs` is
  // the object category's counter table. sync_bound resolves the
  // calling thread's buffer through the TLS fast path; sync_as uses the
  // scripted registry lookup. In lock-free mode both land the record in
  // the thread's own buffer via append_sync_lockfree (stamp + per-
  // object seq, two relaxed fetch_adds, no mutex); mutex_stream mode
  // stamps under stream_mutex_ into the global stream.
  void sync_bound(EventKind kind, NameId id, const SyncSeqTable& seqs);
  void sync_as(ThreadId t, EventKind kind, NameId id, const SyncSeqTable& seqs);
  void append_sync_lockfree(ThreadBuffer& buf, ThreadId t, EventKind kind, NameId id,
                            const SyncSeqTable& seqs);
  void record_sync_stream(ThreadId t, EventKind kind, NameId id,
                          const SyncSeqTable& seqs);
  ThreadId fork_locked(ThreadId parent);
  /// Retire `child`'s buffer (caller holds stream_mutex_): snapshot its
  /// stats, unregister it, and queue it for reclamation after a grace
  /// period.
  void retire_buffer_locked(ThreadId child);

  /// Merge + dispatch the given buffers and the sync stream.
  /// `all` drains every buffer (flush); otherwise only `subset`, which
  /// is sorted.
  /// The merge hands each block of merged order to dispatch where it
  /// lies, and dispatch hands each run of access events in it to a
  /// same-ids detector in one call. The two halves are separate so a
  /// barrier can let its waiters go in between: collect_locked takes
  /// the covered buffers' events and returns the dispatch horizon;
  /// merge_locked merges what was taken with pending_ and the sync
  /// stream and dispatches up to the horizon.
  void drain_locked(const std::vector<ThreadId>& subset, bool all);
  /// A nonzero `epoch` becomes each covered buffer's epoch first (a
  /// barrier cycle's stamp).
  [[nodiscard]] std::uint64_t collect_locked(const std::vector<ThreadId>& subset, bool all,
                                             std::uint64_t epoch = 0);
  void merge_locked(std::uint64_t horizon);
  /// Grace-period bookkeeping, called inside drain_locked's registry
  /// section: advance covered buffers' quiescence epochs, then free
  /// every retired buffer whose retirement epoch all live unparked
  /// buffers have since been quiescent at.
  void advance_and_reclaim_locked(const std::vector<ThreadId>& subset, bool all);
  /// Per-object continuity check on the next dispatched events: object-
  /// sync events on each lock/channel must carry seq 0,1,2,… in dispatch
  /// order — the witness that the merge reproduced the real per-object
  /// sync order. Caller holds stream_mutex_.
  void check_object_seqs(const Event* first, const Event* last);
  /// Hand the events [first, last) to every sink, in order.
  void dispatch(const Event* first, const Event* last);
  /// Publish the outbox plus the waiter sets recorded since the last
  /// publish to the attached pipeline (may block on backpressure).
  /// Caller holds stream_mutex_.
  void publish_locked();

  const std::uint64_t generation_;  ///< thread-local cache validation
  /// Sampling threshold on the xorshift output: keep while below. ~0
  /// disables the sampling branch entirely (rate 1.0).
  const std::uint32_t sample_threshold_;
  const bool sampling_;
  const bool lockfree_;  ///< CaptureMode::lockfree
  std::unique_ptr<race::Detector> owned_detector_;
  race::Detector* detector_ = nullptr;  ///< == owned_detector_ when owned
  AnalysisPipeline* pipeline_ = nullptr;  ///< set once, before the first event

  /// The one stamp source, both modes. Lock-free capture fetch_adds it
  /// directly (while holding the traced primitive); mutex_stream and
  /// the structural edges fetch_add it under stream_mutex_.
  /// Alone on its cache line: every lock-free sync capture writes it,
  /// and the fields around it are read on the same path.
  alignas(kCacheLine) std::atomic<std::uint64_t> sync_clock_{0};
  char sync_clock_pad_[kCacheLine - sizeof(std::atomic<std::uint64_t>)] = {};

  /// Per-object sequence counters (locks and channels are separate id
  /// spaces). Grown at intern time; read lock-free on the capture path.
  SyncSeqTable lock_seqs_, channel_seqs_;

  /// Global reclamation epoch: bumped by each buffer retirement.
  std::atomic<std::uint64_t> reclaim_epoch_{0};

  /// Serializes drains and the structural sync edges (and, in
  /// mutex_stream mode, every sync capture — that serialization *is*
  /// that mode's design).
  mutable std::mutex stream_mutex_;
  /// Fork, join and barrier-cycle edges in both modes (fork_locked,
  /// join_threads, barrier_cycle), plus every object sync in
  /// mutex_stream mode.
  std::vector<Event> sync_stream_;
  std::vector<Event> pending_;  ///< sorted, beyond a past drain's horizon
  std::uint64_t structural_syncs_ = 0;  ///< fork/join/barrier edges recorded
  std::vector<std::vector<ThreadId>> waiter_sets_;  ///< BarrierCycle payloads
  std::vector<SinkBinding> sinks_;
  std::uint64_t drains_ = 0;
  /// Dispatch-side per-object continuity state (next expected seq per
  /// lock/channel id).
  std::vector<std::uint64_t> next_lock_seq_, next_channel_seq_;
  /// Events a collect took from one buffer, and whether any of them is
  /// an object sync (ThreadBuffer::object_syncs).
  struct TakenRun {
    std::vector<Event> events;
    bool object_syncs = false;
  };
  /// One sorted run being merged: the vector it lives in, its unmerged
  /// part, and whether it may hold object syncs.
  struct RunCursor {
    std::vector<Event>* run = nullptr;
    const Event* next = nullptr;
    const Event* end = nullptr;
    bool object_syncs = true;
  };
  /// Drain scratch, reused so a steady-state drain allocates nothing:
  /// the runs being merged (a heap on their next event), the previous
  /// pending_ while it is merged into the next, and the sorted thread
  /// ids of a barrier cycle's waiters or of a team join.
  std::vector<RunCursor> runs_scratch_;
  /// Events collect_locked took from covered buffers (the first
  /// taken_count_ entries), merged by the next merge_locked; emptied
  /// entries are swapped back into buffers by later collects.
  std::vector<TakenRun> taken_runs_;
  std::size_t taken_count_ = 0;
  std::vector<Event> held_scratch_;
  std::vector<ThreadId> tids_scratch_;
  /// Pipelined mode: dispatched events not yet published. Drains append
  /// here and publish once kPublishEvents have gathered (flush publishes
  /// the rest), so the pipeline's threads wake once per batch rather
  /// than once per barrier cycle.
  std::vector<Event> outbox_;
  /// Waiter sets already shipped to the pipeline (guarded by
  /// stream_mutex_; the names need no shipping, the pipeline shares
  /// them).
  std::size_t published_waiters_ = 0;

  mutable std::mutex registry_mutex_;
  std::map<std::thread::id, ThreadId> bindings_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  ///< by context tid; null = retired
  std::vector<RetiredBuffer> retired_;  ///< awaiting their grace period
  std::map<ThreadId, BufferStats> retired_stats_;  ///< final snapshots
  std::uint64_t buffers_reclaimed_ = 0;

  /// Every name the context interned, shared with the built-in detector
  /// and the race lists it hands out (each name is interned once) — or,
  /// once attach_pipeline adopted them, the pipeline's tables.
  std::shared_ptr<race::NameTables> names_;
  /// Serializes growth of the per-object sync counter tables.
  std::mutex seq_mutex_;
};

}  // namespace cs31::trace
