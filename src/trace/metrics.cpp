#include "trace/metrics.hpp"

#include <sstream>

#include "common/error.hpp"

namespace cs31::trace {

using race::ThreadId;

MetricsSink::MetricsSink() {
  std::scoped_lock lock(mutex_);
  grow_locked(1);  // the constructing context's thread 0
}

MetricsSink::~MetricsSink() {
  for (auto& slot : chunks_) delete slot.load(std::memory_order_relaxed);
}

void MetricsSink::grow_locked(std::size_t count) {
  const std::size_t chunks = (count + kRowsPerChunk - 1) / kRowsPerChunk;
  require(chunks <= kMaxChunks, "metrics: too many threads");
  for (std::size_t i = 0; i < chunks; ++i) {
    if (chunks_[i].load(std::memory_order_relaxed) == nullptr) {
      chunks_[i].store(new Chunk{}, std::memory_order_release);
    }
  }
  // Publish the count last: any thread that can name id t < count can
  // also see t's (release-published) chunk.
  thread_count_.store(count, std::memory_order_release);
}

MetricsSink::AtomicThreadMetrics& MetricsSink::row(ThreadId t) const {
  require(t < thread_count_.load(std::memory_order_acquire),
          "metrics: unknown thread id");
  Chunk* chunk = chunks_[t / kRowsPerChunk].load(std::memory_order_acquire);
  return chunk->rows[t % kRowsPerChunk];
}

ThreadMetrics MetricsSink::snapshot_row(ThreadId t) const {
  const AtomicThreadMetrics& r = row(t);
  ThreadMetrics m;
  m.reads = r.reads.load(std::memory_order_relaxed);
  m.writes = r.writes.load(std::memory_order_relaxed);
  m.acquires = r.acquires.load(std::memory_order_relaxed);
  m.releases = r.releases.load(std::memory_order_relaxed);
  m.sends = r.sends.load(std::memory_order_relaxed);
  m.recvs = r.recvs.load(std::memory_order_relaxed);
  m.barriers = r.barriers.load(std::memory_order_relaxed);
  return m;
}

ThreadId MetricsSink::register_thread() {
  std::scoped_lock lock(mutex_);
  const std::size_t count = thread_count_.load(std::memory_order_relaxed);
  grow_locked(count + 1);
  return static_cast<ThreadId>(count);
}

ThreadId MetricsSink::fork(ThreadId parent) {
  std::scoped_lock lock(mutex_);
  (void)row(parent);  // validate
  events_.add();
  const std::size_t count = thread_count_.load(std::memory_order_relaxed);
  grow_locked(count + 1);
  return static_cast<ThreadId>(count);
}

void MetricsSink::join(ThreadId parent, ThreadId child) {
  (void)row(parent);  // validate
  (void)row(child);
  events_.add();
}

void MetricsSink::acquire(ThreadId t, race::NameId lock) {
  row(t).acquires.fetch_add(1, std::memory_order_relaxed);
  events_.add();
  // Only the id->count map needs the mutex; acquires are rare next to
  // accesses, so this is off the contended path by construction.
  std::scoped_lock guard(mutex_);
  require(lock < lock_names_.size(), "metrics: acquire of a lock id that was never interned");
  if (lock >= lock_acquires_.size()) lock_acquires_.resize(lock + 1, 0);
  ++lock_acquires_[lock];
}

void MetricsSink::release(ThreadId t, race::NameId lock) {
  (void)lock;
  row(t).releases.fetch_add(1, std::memory_order_relaxed);
  events_.add();
}

void MetricsSink::barrier(const std::vector<ThreadId>& waiters) {
  require(!waiters.empty(), "metrics: barrier needs at least one waiter");
  for (const ThreadId w : waiters) {
    row(w).barriers.fetch_add(1, std::memory_order_relaxed);
  }
  events_.add();
  std::scoped_lock guard(mutex_);
  ++barrier_cycles_;
}

void MetricsSink::channel_send(ThreadId t, race::NameId channel) {
  (void)channel;
  row(t).sends.fetch_add(1, std::memory_order_relaxed);
  events_.add();
}

void MetricsSink::channel_recv(ThreadId t, race::NameId channel) {
  (void)channel;
  row(t).recvs.fetch_add(1, std::memory_order_relaxed);
  events_.add();
}

void MetricsSink::read(ThreadId t, race::NameId var, race::NameId site) {
  (void)var;
  (void)site;
  row(t).reads.fetch_add(1, std::memory_order_relaxed);
  events_.add();
}

void MetricsSink::write(ThreadId t, race::NameId var, race::NameId site) {
  (void)var;
  (void)site;
  row(t).writes.fetch_add(1, std::memory_order_relaxed);
  events_.add();
}

race::NameId MetricsSink::intern_var(std::string_view name) {
  (void)name;
  return 0;
}

race::NameId MetricsSink::intern_lock(std::string_view name) {
  std::scoped_lock guard(mutex_);
  return lock_names_.id(name);
}

race::NameId MetricsSink::intern_channel(std::string_view name) {
  (void)name;
  return 0;
}

race::NameId MetricsSink::intern_site(std::string_view label) {
  (void)label;
  return 0;
}

const std::vector<race::RaceReport>& MetricsSink::races() const {
  static const std::vector<race::RaceReport> kNone;
  return kNone;
}

std::uint64_t MetricsSink::events() const { return events_.value(); }

std::size_t MetricsSink::threads() const {
  return thread_count_.load(std::memory_order_acquire);
}

std::size_t MetricsSink::shadow_bytes() const {
  std::scoped_lock lock(mutex_);
  return thread_count_.load(std::memory_order_relaxed) * sizeof(AtomicThreadMetrics) +
         lock_acquires_.size() * sizeof(std::uint64_t);
}

std::string MetricsSink::summary() const {
  std::scoped_lock lock(mutex_);
  const std::size_t count = thread_count_.load(std::memory_order_relaxed);
  std::ostringstream out;
  out << "per-thread event mix (" << count << " threads, " << events_.value()
      << " events, " << barrier_cycles_ << " barrier cycles):\n";
  for (std::size_t t = 0; t < count; ++t) {
    const ThreadMetrics m = snapshot_row(static_cast<ThreadId>(t));
    out << "  T" << t << ": " << m.reads << " reads, " << m.writes << " writes, "
        << m.acquires << " acquires, " << m.sends << " sends, " << m.recvs
        << " recvs, " << m.barriers << " barrier waits\n";
  }
  if (lock_acquires_.empty()) {
    out << "  no locks acquired\n";
  } else {
    out << "lock acquire counts (contention proxy):\n";
    for (std::size_t id = 0; id < lock_acquires_.size(); ++id) {
      out << "  " << lock_names_.name(static_cast<race::NameId>(id)) << ": "
          << lock_acquires_[id] << "\n";
    }
  }
  return out.str();
}

std::vector<ThreadMetrics> MetricsSink::per_thread() const {
  const std::size_t count = thread_count_.load(std::memory_order_acquire);
  std::vector<ThreadMetrics> out;
  out.reserve(count);
  for (std::size_t t = 0; t < count; ++t) {
    out.push_back(snapshot_row(static_cast<ThreadId>(t)));
  }
  return out;
}

std::vector<std::pair<std::string, std::uint64_t>> MetricsSink::lock_acquires() const {
  std::scoped_lock lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(lock_acquires_.size());
  for (std::size_t id = 0; id < lock_acquires_.size(); ++id) {
    out.emplace_back(std::string(lock_names_.name(static_cast<race::NameId>(id))),
                     lock_acquires_[id]);
  }
  return out;
}

std::uint64_t MetricsSink::barrier_cycles() const {
  std::scoped_lock lock(mutex_);
  return barrier_cycles_;
}

}  // namespace cs31::trace
