#include "trace/context.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "trace/pipeline.hpp"

namespace cs31::trace {

namespace {

/// Thread-local fast path: the calling thread's binding into one
/// context, validated by (context address, generation) so a context
/// reallocated at the same address can never hit a stale cache.
struct TlsBinding {
  const void* ctx = nullptr;
  std::uint64_t generation = 0;
  ThreadId tid = 0;
  void* buffer = nullptr;
  /// True when the thread may be parked (park_self, or a rebuilt cache
  /// that cannot know) — the next capture takes the unpark slow path,
  /// which is a no-op if the floor turns out not to be parked.
  bool parked = false;
};

thread_local TlsBinding tls_binding;

std::uint64_t next_generation() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Keep-threshold on the 32-bit xorshift output for a sample rate.
std::uint32_t sample_threshold_for(double rate) {
  require(rate >= 0.0 && rate <= 1.0 && !std::isnan(rate),
          "sample_access_events must be in [0, 1]");
  if (rate >= 1.0) return ~std::uint32_t{0};
  return static_cast<std::uint32_t>(rate * 4294967296.0);
}

/// Per-thread sampling stream: any fixed function of the context tid
/// keeps the decision stream deterministic per thread.
common::Xorshift32 sample_rng(ThreadId t) {
  return common::Xorshift32((static_cast<std::uint32_t>(t) + 1u) * 2654435761u);
}

}  // namespace

// --- SyncSeqTable --------------------------------------------------------

TraceContext::SyncSeqTable::~SyncSeqTable() {
  for (auto& slot : chunks_) delete slot.load(std::memory_order_relaxed);
}

void TraceContext::SyncSeqTable::ensure(std::size_t count) {
  const std::size_t chunks = (count + kChunkSize - 1) / kChunkSize;
  require(chunks <= kMaxChunks, "trace context: per-object sync counter table is full");
  for (std::size_t i = 0; i < chunks; ++i) {
    if (chunks_[i].load(std::memory_order_relaxed) == nullptr) {
      // Publish a whole zeroed chunk; it never moves afterwards, so the
      // capture path's acquire load below sees fully constructed slots.
      chunks_[i].store(new Chunk{}, std::memory_order_release);
    }
  }
}

std::atomic<std::uint64_t>& TraceContext::SyncSeqTable::counter(NameId id) const {
  Chunk* chunk = chunks_[id / kChunkSize].load(std::memory_order_acquire);
  if (chunk == nullptr) {
    throw Error("sync on lock/channel id " + std::to_string(id) +
                " that was never interned through this context");
  }
  return chunk->slots[id % kChunkSize].value;
}

// --- construction --------------------------------------------------------

TraceContext::TraceContext(Options options)
    : generation_(next_generation()),
      sample_threshold_(sample_threshold_for(options.sample_access_events)),
      sampling_(options.sample_access_events < 1.0),
      lockfree_(options.capture == CaptureMode::lockfree),
      names_(std::make_shared<race::NameTables>()) {
  if (options.own_detector) {
    owned_detector_ = std::make_unique<race::Detector>(names_);
    detector_ = owned_detector_.get();
    attach_sink(*detector_);
  }
  // Site id 0 is the empty label, so `site = 0` means "no label" on
  // every path without a special case.
  (void)names_->intern(race::NameKind::Site, "");
  // The constructing thread is context thread 0.
  auto main = std::make_unique<ThreadBuffer>();
  main->rng = sample_rng(0);
  {
    std::scoped_lock lock(registry_mutex_);
    bindings_[std::this_thread::get_id()] = 0;
    buffers_.push_back(std::move(main));
  }
  tls_binding = TlsBinding{this, generation_, 0, buffers_.front().get()};
}

TraceContext::~TraceContext() {
  if (tls_binding.ctx == this) tls_binding = TlsBinding{};
  // Everything the drains dispatched reaches the pipeline, flushed or
  // not.
  if (pipeline_ != nullptr && !outbox_.empty()) {
    std::scoped_lock lock(stream_mutex_);
    publish_locked();
  }
}

void TraceContext::attach_sink(race::EventSink& sink) {
  std::scoped_lock lock(stream_mutex_);
  require(pipeline_ == nullptr,
          "a pipelined trace context runs no inline sinks — attach them to the "
          "pipeline side instead");
  sinks_.emplace_back(sink, names_);
}

void TraceContext::attach_pipeline(AnalysisPipeline& pipeline) {
  std::scoped_lock lock(stream_mutex_);
  require(pipeline_ == nullptr, "trace context already has an analysis pipeline");
  require(detector_ == nullptr && sinks_.empty(),
          "attach_pipeline needs a context without inline sinks (own_detector = false, "
          "nothing attached)");
  require(sync_clock_.load(std::memory_order_relaxed) == 0 && drains_ == 0,
          "attach the pipeline before the first event");
  // From here on the context interns into the pipeline's tables, so a
  // name interned before now would have no id there. The constructor's
  // empty site label is the one exception: it is interned again below.
  require(names_->size(race::NameKind::Var) == 0 && names_->size(race::NameKind::Lock) == 0 &&
              names_->size(race::NameKind::Channel) == 0 &&
              names_->size(race::NameKind::Site) == 1,
          "attach the pipeline before the first name is interned");
  names_ = pipeline.names();
  require(names_->intern(race::NameKind::Site, "") == 0,
          "the pipeline's site table must start with the empty label");
  pipeline_ = &pipeline;
}

race::Detector& TraceContext::detector() {
  require(detector_ != nullptr, "trace context was built without its own detector");
  return *detector_;
}

const race::Detector& TraceContext::detector() const {
  require(detector_ != nullptr, "trace context was built without its own detector");
  return *detector_;
}

NameId TraceContext::intern_var(std::string_view name) {
  return names_->intern(race::NameKind::Var, name);
}

NameId TraceContext::intern_lock(std::string_view name) {
  const NameId id = names_->intern(race::NameKind::Lock, name);
  std::scoped_lock lock(seq_mutex_);
  lock_seqs_.ensure(std::size_t{id} + 1);
  return id;
}

NameId TraceContext::intern_channel(std::string_view name) {
  const NameId id = names_->intern(race::NameKind::Channel, name);
  std::scoped_lock lock(seq_mutex_);
  channel_seqs_.ensure(std::size_t{id} + 1);
  return id;
}

NameId TraceContext::intern_site(std::string_view label) {
  return names_->intern(race::NameKind::Site, label);
}

NameId TraceContext::reserve_vars(std::size_t count, race::NameFormat format) {
  return names_->reserve(race::NameKind::Var, count, std::move(format));
}

ThreadId TraceContext::self() const {
  if (tls_binding.ctx == this && tls_binding.generation == generation_) {
    return tls_binding.tid;
  }
  std::scoped_lock lock(registry_mutex_);
  const auto it = bindings_.find(std::this_thread::get_id());
  require(it != bindings_.end(),
          "calling thread is not bound to the trace context (spawn it through the "
          "on_thread_create/bind_self hooks or a traced ThreadTeam)");
  return it->second;
}

TraceContext::ThreadBuffer& TraceContext::buffer_of_self() {
  if (tls_binding.ctx == this && tls_binding.generation == generation_) {
    return *static_cast<ThreadBuffer*>(tls_binding.buffer);
  }
  const ThreadId tid = self();  // throws when unbound
  ThreadBuffer& buf = buffer_of(tid);
  // A rebuilt cache cannot know whether the thread parked itself, so
  // the first capture re-checks (and clears the flag either way).
  tls_binding = TlsBinding{this, generation_, tid, &buf, /*parked=*/true};
  return buf;
}

TraceContext::ThreadBuffer& TraceContext::buffer_of(ThreadId t) {
  std::scoped_lock lock(registry_mutex_);
  return buffer_of_locked(t);
}

TraceContext::ThreadBuffer& TraceContext::buffer_of_locked(ThreadId t) {
  if (t >= buffers_.size()) {
    throw Error("unknown trace thread id " + std::to_string(t));
  }
  if (buffers_[t] == nullptr) {
    throw Error("trace thread id " + std::to_string(t) +
                " was joined and its buffer retired");
  }
  return *buffers_[t];
}

void TraceContext::bind_self(ThreadId tid) {
  ThreadBuffer* buf = nullptr;
  {
    std::scoped_lock lock(registry_mutex_);
    require(tid < buffers_.size() && buffers_[tid] != nullptr,
            "bind_self: thread id was never forked (or already retired)");
    bindings_[std::this_thread::get_id()] = tid;
    buf = buffers_[tid].get();
  }
  tls_binding = TlsBinding{this, generation_, tid, buf};
}

ThreadId TraceContext::fork_locked(ThreadId parent) {
  // Caller holds stream_mutex_.
  const std::uint64_t stamp = sync_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  ThreadId child = 0;
  {
    std::scoped_lock lock(registry_mutex_);
    require(parent < buffers_.size() && buffers_[parent] != nullptr,
            "fork from unknown or retired thread id");
    child = static_cast<ThreadId>(buffers_.size());
    auto buf = std::make_unique<ThreadBuffer>();
    buf->epoch = stamp;  // the child's first epoch is the fork's
    buf->floor = stamp;  // and it cannot capture anything older
    buf->rng = sample_rng(child);
    buf->qepoch.store(reclaim_epoch_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    buffers_.push_back(std::move(buf));
    buffers_[parent]->epoch = stamp;  // the parent's next epoch too
  }
  sync_stream_.push_back(Event{EventKind::Fork, parent, child, 0, stamp, 0});
  ++structural_syncs_;
  return child;
}

ThreadId TraceContext::fork_thread(ThreadId parent) {
  std::scoped_lock lock(stream_mutex_);
  const ThreadId child = fork_locked(parent);
  // Drain the parent's buffer so pre-fork accesses are dispatched
  // before any partial (barrier) drain of the children — keeps every
  // drain a consistent prefix of the execution.
  drain_locked({parent}, /*all=*/false);
  return child;
}

ThreadId TraceContext::on_thread_create() { return fork_thread(self()); }

void TraceContext::retire_buffer_locked(ThreadId child) {
  // Caller holds stream_mutex_; the child is joined (its OS thread is
  // gone) and its buffer was just drained.
  std::scoped_lock lock(registry_mutex_);
  std::unique_ptr<ThreadBuffer>& slot = buffers_[child];
  if (slot == nullptr) return;  // already retired
  const ThreadBuffer& buf = *slot;
  retired_stats_[child] = BufferStats{
      child, buf.captured, std::max<std::uint64_t>(buf.high_water, buf.events.size()),
      buf.sampled_out};
  // Drop the dead OS thread's binding so a later std::thread reusing
  // the same native id cannot resolve to the retired tid.
  for (auto it = bindings_.begin(); it != bindings_.end();) {
    it = (it->second == child) ? bindings_.erase(it) : std::next(it);
  }
  // The grace period starts here: only when every live unparked thread
  // has been seen quiescent at (or after) this epoch may the buffer be
  // freed — see advance_and_reclaim_locked.
  const std::uint64_t epoch = reclaim_epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  retired_.push_back(RetiredBuffer{std::move(slot), epoch});
}

void TraceContext::join_thread(ThreadId parent, ThreadId child) {
  join_threads(parent, {child});
}

void TraceContext::join_threads(ThreadId parent, const std::vector<ThreadId>& children) {
  std::scoped_lock lock(stream_mutex_);
  for (const ThreadId child : children) (void)buffer_of(child);  // validate ids before recording
  ThreadBuffer& parent_buf = buffer_of(parent);
  std::vector<ThreadId>& covered = tids_scratch_;
  covered.assign(children.begin(), children.end());
  std::sort(covered.begin(), covered.end());
  require(std::adjacent_find(covered.begin(), covered.end()) == covered.end(),
          "join_threads: a thread id is joined twice");
  for (const ThreadId child : children) {
    const std::uint64_t stamp = sync_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
    parent_buf.epoch = stamp;
    sync_stream_.push_back(Event{EventKind::Join, parent, child, 0, stamp, 0});
    ++structural_syncs_;
  }
  // The children are finished: their buffers (and the stream, so the
  // Join edges themselves land) drain now, with the parent's; then each
  // buffer retires — parked forever (it must not hold back later
  // drains) and queued for reclamation after its grace period.
  covered.insert(std::upper_bound(covered.begin(), covered.end(), parent), parent);
  drain_locked(covered, /*all=*/false);
  for (const ThreadId child : children) {
    buffer_of(child).floor = kParkedFloor;
    retire_buffer_locked(child);
  }
}

void TraceContext::on_team_join(const std::vector<ThreadId>& children) {
  join_threads(self(), children);
}

void TraceContext::append_access(ThreadBuffer& buf, ThreadId t, EventKind kind, NameId id,
                                 NameId site) {
  buf.events.push_back(Event{kind, t, id, site, buf.epoch, buf.seq++});
  ++buf.captured;
}

void TraceContext::append_sync_lockfree(ThreadBuffer& buf, ThreadId t, EventKind kind,
                                        NameId id, const SyncSeqTable& seqs) {
  // The lock-free hot path: two relaxed fetch_adds and an append to the
  // capturing thread's own buffer. Relaxed suffices for the ordering
  // contract because the caller holds the traced primitive: successive
  // critical sections on one object are ordered by the object's real
  // mutex, and RMWs on a single atomic take increasing values along
  // happens-before — so per object, seq order == stamp order == the
  // real synchronization order (the drain asserts it).
  const std::uint64_t oseq = seqs.counter(id).fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t stamp = sync_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  buf.events.push_back(Event{kind, t, id, static_cast<NameId>(oseq), stamp, 0});
  buf.epoch = stamp;
  buf.object_syncs = true;
  ++buf.captured;
}

void TraceContext::record_sync_stream(ThreadId t, EventKind kind, NameId id,
                                      const SyncSeqTable& seqs) {
  // Reference mode: one global mutex-ordered stream. The per-object seq
  // is drawn under the same lock, so the same execution produces records
  // matching the lock-free mode's byte for byte.
  std::scoped_lock lock(stream_mutex_);
  const std::uint64_t oseq = seqs.counter(id).fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t stamp = sync_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  sync_stream_.push_back(Event{kind, t, id, static_cast<NameId>(oseq), stamp, 0});
  ThreadBuffer& buf = buffer_of(t);
  buf.epoch = stamp;
  ++buf.captured;
}

void TraceContext::sync_bound(EventKind kind, NameId id, const SyncSeqTable& seqs) {
  if (lockfree_) {
    ThreadBuffer& buf = buffer_of_self();
    // A sync record must not hide in a buffer whose parked floor says
    // "nothing here" — un-park first, exactly like an access.
    if (tls_binding.parked) unpark(buf);
    append_sync_lockfree(buf, tls_binding.tid, kind, id, seqs);
    return;
  }
  record_sync_stream(self(), kind, id, seqs);
}

void TraceContext::sync_as(ThreadId t, EventKind kind, NameId id,
                           const SyncSeqTable& seqs) {
  if (lockfree_) {
    append_sync_lockfree(buffer_of(t), t, kind, id, seqs);
    return;
  }
  record_sync_stream(t, kind, id, seqs);
}

// --- bound-thread capture ----------------------------------------------

void TraceContext::read(NameId var, NameId site) {
  ThreadBuffer& buf = buffer_of_self();
  if (sampling_ && !sample_keep(buf)) return;
  if (tls_binding.parked) unpark(buf);
  append_access(buf, tls_binding.tid, EventKind::Read, var, site);
}

void TraceContext::write(NameId var, NameId site) {
  ThreadBuffer& buf = buffer_of_self();
  if (sampling_ && !sample_keep(buf)) return;
  if (tls_binding.parked) unpark(buf);
  append_access(buf, tls_binding.tid, EventKind::Write, var, site);
}

bool TraceContext::sample_keep(ThreadBuffer& buf) {
  if (buf.rng.next() < sample_threshold_) return true;
  ++buf.sampled_out;
  return false;
}

void TraceContext::unpark(ThreadBuffer& buf) {
  std::scoped_lock lock(stream_mutex_);
  // The buffer is empty while parked, so re-opening the floor at the
  // current epoch covers everything this thread can capture from here.
  if (buf.floor == kParkedFloor) buf.floor = buf.epoch;
  // Returning to activity is a quiescent point: the thread holds no
  // references to any retired buffer here.
  buf.qepoch.store(reclaim_epoch_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  tls_binding.parked = false;
}

void TraceContext::park_self() {
  const ThreadId tid = self();
  std::scoped_lock lock(stream_mutex_);
  drain_locked({tid}, /*all=*/false);  // empty the buffer before going dormant
  buffer_of(tid).floor = kParkedFloor;
  if (tls_binding.ctx == this && tls_binding.generation == generation_) {
    tls_binding.parked = true;
  }
}

void TraceContext::acquire(NameId lock) {
  sync_bound(EventKind::Acquire, lock, lock_seqs_);
}

void TraceContext::release(NameId lock) {
  sync_bound(EventKind::Release, lock, lock_seqs_);
}

void TraceContext::send(NameId channel) {
  sync_bound(EventKind::ChannelSend, channel, channel_seqs_);
}

void TraceContext::recv(NameId channel) {
  sync_bound(EventKind::ChannelRecv, channel, channel_seqs_);
}

// --- scripted capture ---------------------------------------------------

void TraceContext::read_as(ThreadId t, NameId var, NameId site) {
  accesses_as(t, race::AccessKind::Read, var, 1, 1, site);
}

void TraceContext::write_as(ThreadId t, NameId var, NameId site) {
  accesses_as(t, race::AccessKind::Write, var, 1, 1, site);
}

void TraceContext::accesses_as(ThreadId t, race::AccessKind kind, NameId first,
                               std::size_t count, std::size_t stride, NameId site) {
  append_accesses(buffer_of(t), t, kind, first, count, stride, site, /*bound=*/false);
}

void TraceContext::accesses(race::AccessKind kind, NameId first, std::size_t count,
                            std::size_t stride, NameId site) {
  ThreadBuffer& buf = buffer_of_self();
  append_accesses(buf, tls_binding.tid, kind, first, count, stride, site, /*bound=*/true);
}

void TraceContext::append_accesses(ThreadBuffer& buf, ThreadId t, race::AccessKind kind,
                                   NameId first, std::size_t count, std::size_t stride,
                                   NameId site, bool bound) {
  const EventKind event = kind == race::AccessKind::Read ? EventKind::Read : EventKind::Write;
  if (sampling_) {
    for (std::size_t i = 0; i < count; ++i) {
      if (!sample_keep(buf)) continue;
      if (bound && tls_binding.parked) unpark(buf);
      append_access(buf, t, event, static_cast<NameId>(first + i * stride), site);
    }
    return;
  }
  if (count == 0) return;
  if (bound && tls_binding.parked) unpark(buf);
  std::vector<Event>& events = buf.events;
  if (events.capacity() - events.size() < count) {
    events.reserve(std::max(events.size() + count, 2 * events.capacity()));
  }
  // Epoch and sequence live in locals: an Event store may alias the
  // buffer's own counters, so reading them through `buf` would reload
  // and store them on every iteration.
  const std::uint64_t epoch = buf.epoch;
  std::uint64_t seq = buf.seq;
  for (std::size_t i = 0; i < count; ++i) {
    const auto id = static_cast<NameId>(first + i * stride);
    events.push_back(Event{event, t, id, site, epoch, seq++});
  }
  buf.seq = seq;
  buf.captured += count;
}

void TraceContext::acquire_as(ThreadId t, NameId lock) {
  sync_as(t, EventKind::Acquire, lock, lock_seqs_);
}

void TraceContext::release_as(ThreadId t, NameId lock) {
  sync_as(t, EventKind::Release, lock, lock_seqs_);
}

void TraceContext::send_as(ThreadId t, NameId channel) {
  sync_as(t, EventKind::ChannelSend, channel, channel_seqs_);
}

void TraceContext::recv_as(ThreadId t, NameId channel) {
  sync_as(t, EventKind::ChannelRecv, channel, channel_seqs_);
}

// --- barrier / drain -----------------------------------------------------

void TraceContext::barrier_cycle(const std::vector<ThreadId>& waiters, bool report,
                                 const std::function<void()>& release) {
  require(!waiters.empty(), "barrier cycle needs at least one waiter");
  std::scoped_lock lock(stream_mutex_);
  // A fixed waiter order keeps the recorded stream — and therefore the
  // certificate — independent of arrival order.
  std::vector<ThreadId>& sorted = tids_scratch_;
  sorted.assign(waiters.begin(), waiters.end());
  std::sort(sorted.begin(), sorted.end());
  // The cycle's stamp becomes every waiter's epoch as its events are
  // taken (one pass over the waiters' buffers before they wake).
  const std::uint64_t stamp =
      report ? sync_clock_.fetch_add(1, std::memory_order_relaxed) + 1 : 0;
  const std::uint64_t horizon = collect_locked(sorted, /*all=*/false, stamp);
  if (report) {
    // Rounds of one team repeat one waiter set: reuse its entry.
    if (waiter_sets_.empty() || waiter_sets_.back() != sorted) {
      waiter_sets_.push_back(sorted);
    }
    const auto set_index = static_cast<NameId>(waiter_sets_.size() - 1);
    sync_stream_.push_back(
        Event{EventKind::BarrierCycle, sorted.front(), set_index, 0, stamp, 0});
    ++structural_syncs_;
  }
  if (release) release();
  merge_locked(horizon);
}

void TraceContext::flush() {
  {
    std::scoped_lock lock(stream_mutex_);
    drain_locked({}, /*all=*/true);
    if (pipeline_ != nullptr && !outbox_.empty()) publish_locked();
  }
  // "Flush, then read the verdict" must keep holding with a pipeline:
  // wait (outside the stream mutex — the pipeline never needs it) until
  // every published event has been analyzed.
  if (pipeline_ != nullptr) pipeline_->wait_idle();
}

void TraceContext::drain_locked(const std::vector<ThreadId>& subset, bool all) {
  merge_locked(collect_locked(subset, all));
}

std::uint64_t TraceContext::collect_locked(const std::vector<ThreadId>& subset, bool all,
                                           std::uint64_t epoch) {
  // Caller holds stream_mutex_; every covered buffer's owner is
  // quiescent (see the header's contract), so taking their events is
  // safe. A covered buffer's events move out whole — its vector is
  // swapped with an emptied one from an earlier drain, which keeps its
  // capacity — so the owner may capture again the moment this returns,
  // while the taken runs are merged. Buffers outside the drain are only
  // consulted for their floor (stream_mutex_-guarded) — never their
  // events.
  //
  // The dispatch horizon: an undrained buffer may still hold — or, if
  // its thread is running, still capture — events down to its floor, so
  // nothing at or past the lowest such floor may be dispatched yet
  // (except the floor stamp's own sync event, which drain_order places
  // before every access that executed in it). Held-back events wait in
  // pending_, already sorted; the dispatched sequence is therefore a
  // prefix of the one globally ordered stream regardless of how the
  // drains were batched.
  std::uint64_t horizon = kParkedFloor;
  std::size_t taken = 0;
  std::scoped_lock lock(registry_mutex_);
  for (const ThreadId t : subset) {
    if (t >= buffers_.size() || buffers_[t] == nullptr) {
      throw Error("drain of unknown or retired trace thread id " + std::to_string(t));
    }
  }
  const auto covered = [&subset, all](ThreadId t) {
    return all || std::binary_search(subset.begin(), subset.end(), t);
  };
  for (ThreadId t = 0; t < buffers_.size(); ++t) {
    if (buffers_[t] == nullptr) continue;  // retired: no events, no constraint
    ThreadBuffer& buf = *buffers_[t];
    if (covered(t)) {
      if (buf.events.size() > buf.high_water) buf.high_water = buf.events.size();
      if (!buf.events.empty()) {
        if (taken == taken_runs_.size()) taken_runs_.emplace_back();
        TakenRun& run = taken_runs_[taken++];
        run.events.swap(buf.events);
        run.object_syncs = buf.object_syncs;
        buf.object_syncs = false;
      }
      if (epoch != 0) buf.epoch = epoch;
      if (buf.floor != kParkedFloor) buf.floor = buf.epoch;
    } else {
      horizon = std::min(horizon, buf.floor);
    }
  }
  advance_and_reclaim_locked(subset, all);
  taken_count_ = taken;
  return horizon;
}

namespace {

/// The end of the prefix of the sorted run [first, last) that precedes
/// `bound`. A run that ends before `bound` — every run of a barrier
/// drain — is taken whole after reading its last event; otherwise the
/// prefix is found by galloping: as cheap as a linear scan when it is
/// short, logarithmic when it is long. `*first` must precede `bound`.
const Event* prefix_before(const Event* first, const Event* last, const Event& bound) {
  if (drain_order(last[-1], bound)) return last;
  const auto n = static_cast<std::size_t>(last - first);
  std::size_t hi = 1;  // first[hi / 2] precedes bound
  while (hi < n && drain_order(first[hi], bound)) hi *= 2;
  return std::lower_bound(first + hi / 2, first + std::min(hi, n), bound, drain_order);
}

}  // namespace

void TraceContext::merge_locked(std::uint64_t horizon) {
  // Caller holds stream_mutex_. Every source is already a drain_order-
  // sorted run — pending_ by construction, the sync stream by stamp, and
  // each taken buffer because one thread's stamps are nondecreasing in
  // program order with seq breaking ties (and a sync precedes the
  // accesses that run in its epoch). A k-way merge over a heap of the
  // runs' next events takes, each step, the whole prefix of the
  // earliest run that precedes every other run's next event, and hands
  // that block on where it lives: runs that do not overlap — a barrier
  // drain's (each worker's epoch-stamped accesses, then the cycle's own
  // sync event) — go out as one block each, interleaved runs cost
  // O(log runs) per block, and no event is copied on its way to the
  // inline sinks — nor read, when no sink is attached and the run holds
  // no object sync to check. The dispatchable events are a prefix of
  // the merged order, so from the first block that reaches the horizon
  // on, everything is held back in pending_, still in merged order. The
  // scratch vectors keep their capacity, so a steady-state drain
  // allocates nothing.
  std::vector<Event>& held = held_scratch_;  // the last drain's pending_
  held.swap(pending_);
  std::vector<RunCursor>& heap = runs_scratch_;
  heap.clear();
  const auto add_run = [&heap](std::vector<Event>& run, bool object_syncs) {
    if (run.empty()) return;
    heap.push_back(RunCursor{&run, run.data(), run.data() + run.size(), object_syncs});
  };
  add_run(held, true);
  add_run(sync_stream_, true);
  for (std::size_t i = 0; i < taken_count_; ++i) {
    add_run(taken_runs_[i].events, taken_runs_[i].object_syncs);
  }
  taken_count_ = 0;
  const auto later = [](const RunCursor& a, const RunCursor& b) {
    return drain_order(*b.next, *a.next);
  };
  // An event is dispatchable below the horizon, and at it only as the
  // sync event that created the horizon stamp. With no undrained thread
  // left to constrain it (a barrier drain of a team whose parent is
  // parked), everything is.
  const auto dispatchable = [horizon](const Event& e) {
    return e.stamp < horizon || (e.stamp == horizon && is_sync(e.kind));
  };
  bool reached = false, dispatched = false;
  std::make_heap(heap.begin(), heap.end(), later);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    RunCursor& c = heap.back();
    const Event* const stop =
        heap.size() == 1 ? c.end : prefix_before(c.next, c.end, *heap.front().next);
    const Event* from = c.next;
    if (!reached) {
      const Event* const cut = horizon == kParkedFloor || dispatchable(stop[-1])
                                   ? stop
                                   : std::partition_point(from, stop, dispatchable);
      if (cut != from) {
        if (c.object_syncs) check_object_seqs(from, cut);
        if (pipeline_ != nullptr) {
          outbox_.insert(outbox_.end(), from, cut);
        } else {
          dispatch(from, cut);
        }
        dispatched = true;
      }
      reached = cut != stop;
      from = cut;
    }
    pending_.insert(pending_.end(), from, stop);
    c.next = stop;
    if (c.next != c.end) {
      std::push_heap(heap.begin(), heap.end(), later);
      continue;
    }
    c.run->clear();
    heap.pop_back();
  }
  if (!dispatched) return;
  ++drains_;
  if (pipeline_ != nullptr && outbox_.size() >= kPublishEvents) publish_locked();
}

void TraceContext::advance_and_reclaim_locked(const std::vector<ThreadId>& subset,
                                              bool all) {
  // Caller holds stream_mutex_ and registry_mutex_. A drain is every
  // covered thread's buffer-publish point: its owner is blocked in the
  // barrier/join/flush that triggered the drain, holding no reference
  // into any buffer — so its quiescence epoch advances to the current
  // reclamation epoch on its behalf. Quiescence epochs only gate retired
  // buffers, and a buffer retired later needs an observation made after
  // its retirement anyway, so with none retired there is nothing to do.
  if (retired_.empty()) return;
  const std::uint64_t now = reclaim_epoch_.load(std::memory_order_relaxed);
  for (ThreadId t = 0; t < buffers_.size(); ++t) {
    if (buffers_[t] != nullptr &&
        (all || std::binary_search(subset.begin(), subset.end(), t))) {
      buffers_[t]->qepoch.store(now, std::memory_order_relaxed);
    }
  }
  // Grace period: a retired buffer may be freed only once every live
  // unparked buffer has been quiescent at (or after) its retirement
  // epoch. Parked buffers promised no further captures, so they cannot
  // hold references and do not gate the grace period.
  std::uint64_t min_q = now;
  for (const auto& buf : buffers_) {
    if (buf == nullptr || buf->floor == kParkedFloor) continue;
    min_q = std::min(min_q, buf->qepoch.load(std::memory_order_relaxed));
  }
  const auto reclaimable = std::remove_if(
      retired_.begin(), retired_.end(),
      [min_q](const RetiredBuffer& r) { return r.retire_epoch <= min_q; });
  buffers_reclaimed_ += static_cast<std::uint64_t>(retired_.end() - reclaimable);
  retired_.erase(reclaimable, retired_.end());  // frees the ThreadBuffers
}

void TraceContext::check_object_seqs(const Event* first, const Event* last) {
  // The merge-integrity witness (see the header's ordering argument):
  // restricted to one lock or channel, dispatch order must walk that
  // object's per-object sequence numbers 0,1,2,… — anything else means
  // a sync record was lost, duplicated, or reordered across capture
  // modes, and a silent pass here is what makes "byte-identical to the
  // mutex-ordered stream" a checked property rather than a hope.
  for (; first != last; ++first) {
    const Event& e = *first;
    if (!is_object_sync(e.kind)) continue;
    const bool is_lock = e.kind == EventKind::Acquire || e.kind == EventKind::Release;
    std::vector<std::uint64_t>& next = is_lock ? next_lock_seq_ : next_channel_seq_;
    if (e.id >= next.size()) next.resize(e.id + 1, 0);
    const std::uint64_t expected = next[e.id]++;
    if (e.site != static_cast<NameId>(expected)) {
      throw Error("trace capture lost or reordered a sync record on " +
                  std::string(is_lock ? "lock" : "channel") + " id " +
                  std::to_string(e.id) + ": expected per-object seq " +
                  std::to_string(expected) + ", got " + std::to_string(e.site));
    }
  }
}

void TraceContext::publish_locked() {
  EventBatch batch;
  batch.events = std::move(outbox_);
  // Room for a full batch plus the drain that tops it up, so the outbox
  // never regrows between publishes.
  outbox_ = pipeline_->spare_events();
  outbox_.reserve(2 * kPublishEvents);
  // Names live in the tables the pipeline shares; only the waiter sets
  // recorded since the last publish travel with the events, so pipeline
  // threads never call back into the context.
  for (; published_waiters_ < waiter_sets_.size(); ++published_waiters_) {
    batch.new_waiter_sets.push_back(waiter_sets_[published_waiters_]);
  }
  // May block on backpressure (holding stream_mutex_): capture threads
  // trying to record sync events then wait too, which is exactly the
  // memory cap the bounded queue promises. The pipeline's consumers
  // never take stream_mutex_, so this cannot deadlock.
  pipeline_->publish(std::move(batch));
}

void TraceContext::dispatch(const Event* first, const Event* last) {
  if (sinks_.empty()) return;  // capture-only: the drain merges and discards
  while (first != last) {
    if (is_sync(first->kind)) {
      for (SinkBinding& binding : sinks_) binding.dispatch(*first, *names_, waiter_sets_);
      ++first;
      continue;
    }
    // A maximal run of accesses: no fork can remap a thread inside it,
    // so a detector on the context's own ids checks it in one call.
    const Event* const end =
        std::find_if(first, last, [](const Event& e) { return is_sync(e.kind); });
    for (SinkBinding& binding : sinks_) {
      if (binding.shared != nullptr) {
        binding.shared->check_accesses(first, end,
                                       [&binding](const Event& e) { return binding.access(e); });
      } else {
        for (const Event* e = first; e != end; ++e) {
          binding.dispatch(*e, *names_, waiter_sets_);
        }
      }
    }
    first = end;
  }
}

// --- SinkBinding ----------------------------------------------------------

SinkBinding::SinkBinding(race::EventSink& sink, const std::shared_ptr<race::NameTables>& names)
    : sink(&sink) {
  auto* detector = dynamic_cast<race::Detector*>(&sink);
  if (detector != nullptr && detector->names() == names) shared = detector;
}

void SinkBinding::dispatch(const Event& event, const race::NameTables& names,
                           const std::vector<std::vector<ThreadId>>& waiter_sets) {
  const ThreadId t = tid_map[event.thread];

  // The sink-side id of a context id: itself when the sink shares the
  // context's names, else interned into the sink on first sight.
  const auto sink_id = [&](std::vector<NameId>& map, race::NameKind kind, NameId id) {
    if (shared != nullptr) return id;
    constexpr NameId kUnset = static_cast<NameId>(-1);
    if (id >= map.size()) map.resize(id + 1, kUnset);
    if (map[id] == kUnset) {
      const std::string& name = names.name(kind, id);
      switch (kind) {
        case race::NameKind::Var: map[id] = sink->intern_var(name); break;
        case race::NameKind::Lock: map[id] = sink->intern_lock(name); break;
        case race::NameKind::Channel: map[id] = sink->intern_channel(name); break;
        case race::NameKind::Site: map[id] = sink->intern_site(name); break;
      }
    }
    return map[id];
  };

  switch (event.kind) {
    case EventKind::Read:
    case EventKind::Write: {
      const NameId var = sink_id(var_map, race::NameKind::Var, event.id);
      const NameId site = sink_id(site_map, race::NameKind::Site, event.site);
      event.kind == EventKind::Read ? sink->read(t, var, site) : sink->write(t, var, site);
      return;
    }
    case EventKind::Acquire:
    case EventKind::Release: {
      const NameId lock = sink_id(lock_map, race::NameKind::Lock, event.id);
      event.kind == EventKind::Acquire ? sink->acquire(t, lock) : sink->release(t, lock);
      return;
    }
    case EventKind::ChannelSend:
    case EventKind::ChannelRecv: {
      const NameId channel = sink_id(channel_map, race::NameKind::Channel, event.id);
      event.kind == EventKind::ChannelSend ? sink->channel_send(t, channel)
                                           : sink->channel_recv(t, channel);
      return;
    }
    case EventKind::Fork: {
      const ThreadId child = sink->fork(t);
      if (event.id >= tid_map.size()) tid_map.resize(event.id + 1, 0);
      tid_map[event.id] = child;
      return;
    }
    case EventKind::Join:
      sink->join(t, tid_map[event.id]);
      return;
    case EventKind::BarrierCycle: {
      const std::vector<ThreadId>& waiters = waiter_sets[event.id];
      std::vector<ThreadId> mapped;
      mapped.reserve(waiters.size());
      for (const ThreadId w : waiters) mapped.push_back(tid_map[w]);
      sink->barrier(mapped);
      return;
    }
  }
}

std::vector<BufferStats> TraceContext::buffer_stats() const {
  std::scoped_lock lock(registry_mutex_);
  std::vector<BufferStats> stats;
  stats.reserve(buffers_.size());
  for (ThreadId t = 0; t < buffers_.size(); ++t) {
    if (buffers_[t] == nullptr) {
      stats.push_back(retired_stats_.at(t));  // final snapshot of a retired buffer
      continue;
    }
    const ThreadBuffer& buf = *buffers_[t];
    stats.push_back(BufferStats{
        t, buf.captured, std::max<std::uint64_t>(buf.high_water, buf.events.size()),
        buf.sampled_out});
  }
  return stats;
}

std::uint64_t TraceContext::events_sampled_out() const {
  std::scoped_lock lock(registry_mutex_);
  std::uint64_t total = 0;
  for (const auto& buf : buffers_) {
    if (buf != nullptr) total += buf->sampled_out;
  }
  for (const auto& [tid, stats] : retired_stats_) total += stats.sampled_out;
  return total;
}

std::uint64_t TraceContext::drains() const {
  std::scoped_lock lock(stream_mutex_);
  return drains_;
}

std::uint64_t TraceContext::buffers_reclaimed() const {
  std::scoped_lock lock(registry_mutex_);
  return buffers_reclaimed_;
}

std::uint64_t TraceContext::events_captured() const {
  std::uint64_t total = 0;
  {
    std::scoped_lock lock(registry_mutex_);
    for (const auto& buf : buffers_) {
      if (buf != nullptr) total += buf->captured;
    }
    for (const auto& [tid, stats] : retired_stats_) total += stats.captured;
  }
  std::scoped_lock lock(stream_mutex_);
  // Object syncs are counted in their thread's `captured` (both modes);
  // only the structural fork/join/barrier edges live outside buffers.
  return total + structural_syncs_;
}

}  // namespace cs31::trace
