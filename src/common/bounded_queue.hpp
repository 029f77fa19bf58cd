// The kit's backpressure primitive: a bounded FIFO with a blocking
// push, shared by every producer/consumer stage that must cap its
// memory no matter how far the consumer falls behind. Extracted from
// trace::AnalysisPipeline (which pioneered it as the batch and
// per-shard chunk queue) so cs31::grader's per-worker queues are the
// same implementation, not a copy.
//
// Semantics:
//   push          blocks while the queue is full — that block IS the
//                 backpressure; `waits` counts how often it happened.
//                 Throws cs31::Error after close().
//   pop           blocks until an item or close (`pop_waits` counts the
//                 blocks); returns false only when closed AND drained,
//                 so a closed queue still delivers everything it holds.
//                 Marks the consumer busy until done().
//   done          the consumer finished a popped item. wait_drained
//                 needs this: "empty" alone would declare a queue
//                 drained while a consumer still chews the last item.
//   wait_drained  blocks until the queue is empty and every consumer is
//                 idle — the building block for a stage-ordered
//                 wait_idle across a multi-queue topology.
//   close         wakes everyone; pending items still drain.
//
// Wake-ups come in batches (perfbook: amortize the handoff). push wakes
// consumers only when the queue goes from empty to non-empty; pop wakes
// producers only at or below half the capacity, so a producer blocked on
// a full queue sleeps once per ~capacity/2 items (at capacity 1 and 2,
// once per item); done wakes wait_drained only at the state it awaits.
//
// Any number of pushers. Consumers: `consumers_active` counts every
// popped-but-not-done() item, so wait_drained stays honest for any
// number of poppers; today the pipeline and the grader each run one
// consumer thread per queue.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>

#include "common/error.hpp"

namespace cs31::common {

template <typename T>
struct BoundedQueue {
  mutable std::mutex mutex;
  std::condition_variable not_full, not_empty, drained;
  std::deque<T> items;
  std::size_t capacity = 8;
  bool closed = false;
  std::size_t consumers_active = 0;  ///< popped items not yet done()
  std::uint64_t waits = 0;       ///< producer blocks on full
  std::uint64_t pop_waits = 0;   ///< consumer blocks on empty
  std::uint64_t high_water = 0;  ///< max queue depth observed

  BoundedQueue() = default;
  explicit BoundedQueue(std::size_t cap) : capacity(cap) {}

  void push(T item) {
    std::unique_lock lock(mutex);
    require(!closed, "bounded queue: push after close");
    if (items.size() >= capacity) {
      ++waits;
      not_full.wait(lock, [&] { return items.size() < capacity || closed; });
      require(!closed, "bounded queue: push after close");
    }
    items.push_back(std::move(item));
    high_water = std::max<std::uint64_t>(high_water, items.size());
    if (items.size() == 1) not_empty.notify_all();
  }

  /// False when closed and drained; counts the consumer as busy while
  /// the item is out (cleared by done()).
  bool pop(T& out) {
    std::unique_lock lock(mutex);
    if (items.empty() && !closed) ++pop_waits;
    not_empty.wait(lock, [&] { return !items.empty() || closed; });
    if (items.empty()) return false;
    out = std::move(items.front());
    items.pop_front();
    ++consumers_active;
    if (items.size() <= capacity / 2) not_full.notify_all();
    return true;
  }

  void done() {
    std::scoped_lock lock(mutex);
    if (consumers_active > 0) --consumers_active;
    if (items.empty() && consumers_active == 0) drained.notify_all();
  }

  void close() {
    std::scoped_lock lock(mutex);
    closed = true;
    not_empty.notify_all();
    not_full.notify_all();
  }

  void wait_drained() {
    std::unique_lock lock(mutex);
    drained.wait(lock, [&] { return items.empty() && consumers_active == 0; });
  }
};

}  // namespace cs31::common
