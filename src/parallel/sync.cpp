#include "parallel/sync.hpp"

#include <thread>

#include "common/error.hpp"
#include "parallel/threads.hpp"
#include "trace/instrumented.hpp"

namespace cs31::parallel {

Barrier::Barrier(std::size_t count) : count_(count) {
  require(count >= 1, "barrier count must be at least 1");
}

bool Barrier::wait() {
  std::unique_lock lock(mutex_);
  const std::uint64_t my_generation = generation_;
  if (tracer_ != nullptr) cycle_waiters_.push_back(tracer_->self());
  if (++arrived_ == count_) {
    // Last arriver releases the cycle. The waiters are signalled first:
    // none can return from its wait before `release` unlocks the mutex,
    // so their wake-up overlaps whatever the tracer does before that.
    ++generation_;
    cv_.notify_all();
    const auto release = [this, &lock] {
      cycle_waiters_.clear();
      arrived_ = 0;
      lock.unlock();
    };
    if (tracer_ != nullptr) {
      // The completed cycle orders every waiter's pre-barrier work
      // before every waiter's post-barrier work — and every other
      // waiter is blocked in this barrier right now, so their buffers
      // are safe to drain (bounded capture memory). The tracer takes
      // their events, then calls `release` to let them go, and merges
      // while they run.
      try {
        tracer_->barrier_cycle(cycle_waiters_, report_edges_, release);
      } catch (...) {
        // The waiters were signalled already and leave as released;
        // reset the cycle so the barrier still works for the next one.
        if (lock.owns_lock()) release();
        throw;
      }
    } else {
      release();
    }
    return true;
  }
  cv_.wait(lock, [&] { return generation_ != my_generation; });
  return false;
}

std::uint64_t Barrier::cycles() const {
  std::scoped_lock lock(mutex_);
  return generation_;
}

void Barrier::attach_tracer(trace::TraceContext& ctx, bool report_edges) {
  std::scoped_lock lock(mutex_);
  tracer_ = &ctx;
  report_edges_ = report_edges;
}

std::uint64_t SharedCounter::run(Mode mode, unsigned threads, std::uint64_t per_thread) {
  require(threads >= 1, "need at least one thread");

  // The shared state under test. `plain` is deliberately unprotected in
  // Unsynchronized mode; volatile blocks the compiler from collapsing
  // the read-modify-write loop so the race stays observable.
  volatile std::uint64_t plain = 0;
  std::atomic<std::uint64_t> atomic{0};
  std::mutex mutex;
  std::uint64_t merged = 0;

  auto body = [&](unsigned) {
    switch (mode) {
      case Mode::Unsynchronized:
        for (std::uint64_t i = 0; i < per_thread; ++i) plain = plain + 1;
        break;
      case Mode::MutexPerIncrement:
        for (std::uint64_t i = 0; i < per_thread; ++i) {
          std::scoped_lock lock(mutex);
          plain = plain + 1;
        }
        break;
      case Mode::Atomic:
        for (std::uint64_t i = 0; i < per_thread; ++i) {
          atomic.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      case Mode::LocalThenMerge: {
        std::uint64_t local = 0;
        for (std::uint64_t i = 0; i < per_thread; ++i) ++local;
        std::scoped_lock lock(mutex);
        merged += local;
        break;
      }
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) workers.emplace_back(body, t);
  for (std::thread& w : workers) w.join();

  switch (mode) {
    case Mode::Unsynchronized:
    case Mode::MutexPerIncrement:
      return plain;
    case Mode::Atomic:
      return atomic.load();
    case Mode::LocalThenMerge:
      return merged;
  }
  return 0;
}

SharedCounter::TracedRun SharedCounter::run_traced(Mode mode, unsigned threads,
                                                  std::uint64_t per_thread) {
  require(threads >= 1, "need at least one thread");

  trace::TraceContext ctx;
  trace::TracedVar<std::uint64_t> counter("counter", ctx, 0);
  trace::TracedMutex mutex("counter_mutex", ctx);

  // The same four strategies as run(), expressed through the capture
  // layer so every logical access reaches the attached sinks.
  ThreadTeam team(threads, ctx, [&](std::size_t) {
    switch (mode) {
      case Mode::Unsynchronized:
        for (std::uint64_t i = 0; i < per_thread; ++i) {
          const std::uint64_t v = counter.load("counter = counter + 1 (no lock)");
          counter.store(v + 1, "counter = counter + 1 (no lock)");
        }
        break;
      case Mode::MutexPerIncrement:
        for (std::uint64_t i = 0; i < per_thread; ++i) {
          std::scoped_lock lock(mutex);
          const std::uint64_t v = counter.load("counter = counter + 1 (mutexed)");
          counter.store(v + 1, "counter = counter + 1 (mutexed)");
        }
        break;
      case Mode::Atomic:
        for (std::uint64_t i = 0; i < per_thread; ++i) {
          counter.fetch_add(1, "counter.fetch_add(1)");
        }
        break;
      case Mode::LocalThenMerge: {
        std::uint64_t local = 0;
        for (std::uint64_t i = 0; i < per_thread; ++i) ++local;
        std::scoped_lock lock(mutex);
        const std::uint64_t v = counter.load("merged += local (mutexed)");
        counter.store(v + local, "merged += local (mutexed)");
        break;
      }
    }
  });
  team.join();

  TracedRun result;
  // The joins order every worker before this read — never itself a race.
  result.value = counter.load("final read after join");
  ctx.flush();  // drain the main thread's tail before reading verdicts
  result.races = ctx.detector().races();
  result.race_detected = !result.races.empty();
  result.report = ctx.detector().summary();
  return result;
}

BoundedBuffer::BoundedBuffer(std::size_t capacity)
    : capacity_(capacity), ring_(capacity) {
  require(capacity >= 1, "buffer capacity must be at least 1");
}

void BoundedBuffer::put(std::int64_t item) {
  std::unique_lock lock(mutex_);
  require(!closed_, "put on a closed buffer");
  if (count_ == capacity_) {
    producer_blocks_.fetch_add(1, std::memory_order_relaxed);
    not_full_.wait(lock, [&] { return count_ < capacity_ || closed_; });
    require(!closed_, "buffer closed while a producer was blocked");
  }
  const std::size_t slot = tail_;
  ring_[tail_] = item;
  tail_ = (tail_ + 1) % capacity_;
  ++count_;
  // Recorded under the buffer mutex, so the send's stamp order is the
  // real publication order of this slot.
  if (tracer_ != nullptr) tracer_->send(slot_channels_[slot]);
  not_empty_.notify_one();
}

std::int64_t BoundedBuffer::get() {
  std::unique_lock lock(mutex_);
  if (count_ == 0) {
    consumer_blocks_.fetch_add(1, std::memory_order_relaxed);
    not_empty_.wait(lock, [&] { return count_ > 0; });
  }
  const std::size_t slot = head_;
  const std::int64_t item = ring_[head_];
  head_ = (head_ + 1) % capacity_;
  --count_;
  // Per-slot recv: ordered only after the sends through this slot.
  if (tracer_ != nullptr) tracer_->recv(slot_channels_[slot]);
  not_full_.notify_one();
  return item;
}

bool BoundedBuffer::try_put(std::int64_t item) {
  std::scoped_lock lock(mutex_);
  require(!closed_, "put on a closed buffer");
  if (count_ == capacity_) return false;
  const std::size_t slot = tail_;
  ring_[tail_] = item;
  tail_ = (tail_ + 1) % capacity_;
  ++count_;
  if (tracer_ != nullptr) tracer_->send(slot_channels_[slot]);
  not_empty_.notify_one();
  return true;
}

std::optional<std::int64_t> BoundedBuffer::try_get() {
  std::scoped_lock lock(mutex_);
  if (count_ == 0) return std::nullopt;
  const std::size_t slot = head_;
  const std::int64_t item = ring_[head_];
  head_ = (head_ + 1) % capacity_;
  --count_;
  if (tracer_ != nullptr) tracer_->recv(slot_channels_[slot]);
  not_full_.notify_one();
  return item;
}

void BoundedBuffer::close() {
  std::scoped_lock lock(mutex_);
  closed_ = true;
  // Closing publishes too: a consumer that wakes to "closed and
  // drained" is still ordered after everything the closer did.
  if (tracer_ != nullptr) tracer_->send(close_channel_);
  not_empty_.notify_all();
  not_full_.notify_all();
}

std::optional<std::int64_t> BoundedBuffer::get_until_closed() {
  std::unique_lock lock(mutex_);
  if (count_ == 0 && !closed_) {
    consumer_blocks_.fetch_add(1, std::memory_order_relaxed);
    not_empty_.wait(lock, [&] { return count_ > 0 || closed_; });
  }
  if (count_ == 0) {
    // Closed and drained: still observe the closer's publication.
    if (tracer_ != nullptr) tracer_->recv(close_channel_);
    return std::nullopt;
  }
  const std::size_t slot = head_;
  const std::int64_t item = ring_[head_];
  head_ = (head_ + 1) % capacity_;
  --count_;
  if (tracer_ != nullptr) tracer_->recv(slot_channels_[slot]);
  not_full_.notify_one();
  return item;
}

std::size_t BoundedBuffer::size() const {
  std::scoped_lock lock(mutex_);
  return count_;
}

void BoundedBuffer::attach_tracer(trace::TraceContext& ctx, std::string channel_name) {
  std::scoped_lock lock(mutex_);
  tracer_ = &ctx;
  channel_name_ = std::move(channel_name);
  // One channel per ring slot (plus one for close()): interned up front
  // so put/get fire id-based events only.
  slot_channels_.clear();
  slot_channels_.reserve(capacity_);
  for (std::size_t s = 0; s < capacity_; ++s) {
    slot_channels_.push_back(ctx.intern_channel(channel_name_ + "[" + std::to_string(s) + "]"));
  }
  close_channel_ = ctx.intern_channel(channel_name_ + "[closed]");
}

}  // namespace cs31::parallel
