// TracedCondVar: the signal -> waiter happens-before edge. The manual
// pair isolates the channel edge (no mutex events at all), the
// real-thread pairs run the producer/consumer unit both ways: correct
// wait/notify discipline comes back race-free, the spin-on-a-flag
// "missed wakeup" version is flagged. The same two programs run raw
// under ThreadSanitizer via tests/tsan_crosscheck.cpp (cv-buggy /
// cv-clean modes), and the verdicts must agree.
//
// BoundedQueue: the kit's own bounded buffer (common/bounded_queue.hpp)
// and its batched wake rule — producers woken at the low-water mark,
// wait_drained at the last done(), everyone at close.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/bounded_queue.hpp"
#include "common/error.hpp"
#include "parallel/threads.hpp"
#include "trace/condvar.hpp"
#include "trace/context.hpp"
#include "trace/instrumented.hpp"

namespace cs31::trace {
namespace {

bool mentions_variable(const std::vector<race::RaceReport>& races, const std::string& var) {
  for (const auto& r : races) {
    if (r.variable == var) return true;
  }
  return false;
}

TEST(CondVar, ChannelEdgeAloneOrdersAHandoff) {
  // The deterministic core of the condvar contract, with *no* mutex
  // events: the send/recv pair is the only thing ordering the payload.
  TraceContext ctx;
  const NameId payload = ctx.intern_var("payload");
  const NameId ch = ctx.intern_channel("cv:items");
  const ThreadId producer = ctx.fork_thread(0);
  const ThreadId consumer = ctx.fork_thread(0);
  ctx.write_as(producer, payload, ctx.intern_site("produce"));
  ctx.send_as(producer, ch);
  ctx.recv_as(consumer, ch);
  ctx.read_as(consumer, payload, ctx.intern_site("consume"));
  ctx.join_thread(0, producer);
  ctx.join_thread(0, consumer);
  ctx.flush();
  EXPECT_TRUE(ctx.detector().race_free());
}

TEST(CondVar, WithoutTheEdgeTheSameHandoffRaces) {
  TraceContext ctx;
  const NameId payload = ctx.intern_var("payload");
  const ThreadId producer = ctx.fork_thread(0);
  const ThreadId consumer = ctx.fork_thread(0);
  ctx.write_as(producer, payload, ctx.intern_site("produce"));
  ctx.read_as(consumer, payload, ctx.intern_site("consume"));
  ctx.join_thread(0, producer);
  ctx.join_thread(0, consumer);
  ctx.flush();
  EXPECT_TRUE(mentions_variable(ctx.detector().races(), "payload"));
}

TEST(CondVar, WaitNotifyProducerConsumerIsClean) {
  TraceContext ctx;
  TracedVar<int> payload("payload", ctx);
  TracedMutex mutex("cv_mutex", ctx);
  TracedCondVar cv("cv:ready", ctx);
  bool ready = false;  // protected by `mutex`; invisible to the trace
  int got = 0;
  parallel::ThreadTeam team(2, ctx, [&](std::size_t id) {
    if (id == 0) {
      payload.store(42, "produce");
      std::unique_lock<TracedMutex> lock(mutex);
      ready = true;
      cv.notify_one();  // publish state, then notify, as the course teaches
    } else {
      std::unique_lock<TracedMutex> lock(mutex);
      cv.wait(lock, [&] { return ready; });
      got = payload.load("consume");
    }
  });
  team.join();
  ctx.flush();
  EXPECT_EQ(got, 42);
  EXPECT_TRUE(ctx.detector().race_free());
}

TEST(CondVar, NotifyAllReleasesEveryWaiter) {
  TraceContext ctx;
  TracedVar<int> payload("payload", ctx);
  TracedMutex mutex("cv_mutex", ctx);
  TracedCondVar cv("cv:ready", ctx);
  bool ready = false;
  int sum = 0;
  TracedVar<int> tally("tally", ctx);
  parallel::ThreadTeam team(3, ctx, [&](std::size_t id) {
    if (id == 0) {
      payload.store(21, "produce");
      std::unique_lock<TracedMutex> lock(mutex);
      ready = true;
      cv.notify_all();
    } else {
      std::unique_lock<TracedMutex> lock(mutex);
      cv.wait(lock, [&] { return ready; });
      // Still holding the mutex: both waiters fold into the tally.
      tally.store(tally.load() + payload.load("consume"));
    }
  });
  team.join();
  sum = tally.load();
  ctx.flush();
  EXPECT_EQ(sum, 42);
  EXPECT_TRUE(ctx.detector().race_free());
}

TEST(CondVar, MissedWakeupSpinPairIsFlagged) {
  // The buggy contrast: the same handoff through a bare flag, no
  // wait/notify. TracedVar's hidden guard keeps the run well-defined,
  // but no happens-before edge exists and the detector must say so.
  TraceContext ctx;
  TracedVar<int> payload("payload", ctx);
  TracedVar<int> flag("ready_flag", ctx);
  parallel::ThreadTeam team(2, ctx, [&](std::size_t id) {
    if (id == 0) {
      payload.store(42, "produce");
      flag.store(1, "publish flag");
    } else {
      int spins = 0;
      while (flag.load("poll flag") == 0 && spins < 200000) {
        ++spins;
        std::this_thread::yield();
      }
      (void)payload.load("consume");
    }
  });
  team.join();
  ctx.flush();
  ASSERT_FALSE(ctx.detector().race_free());
  EXPECT_TRUE(mentions_variable(ctx.detector().races(), "payload"));
}

// --- BoundedQueue ------------------------------------------------------

using Queue = common::BoundedQueue<int>;

/// Poll `ready` for up to 10 s; false if it never held.
bool eventually(const std::function<bool()>& ready) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!ready()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Long enough for a woken thread to act on a lightly loaded host.
void settle() { std::this_thread::sleep_for(std::chrono::milliseconds(20)); }

std::size_t depth(const Queue& q) {
  std::scoped_lock lock(q.mutex);
  return q.items.size();
}

std::uint64_t producer_waits(const Queue& q) {
  std::scoped_lock lock(q.mutex);
  return q.waits;
}

int pop_one(Queue& q) {
  int item = -1;
  EXPECT_TRUE(q.pop(item));
  q.done();
  return item;
}

/// A pushing thread. A test that fails early ends with the producer
/// still blocked on a full queue, so leaving scope closes the queue
/// (its push then throws) before joining, and a failure cannot hang.
class Producer {
 public:
  Producer(Queue& q, std::function<void()> pushes)
      : q_(q), thread_([pushes = std::move(pushes)] {
          try {
            pushes();
          } catch (const Error&) {
          }
        }) {}
  Producer(const Producer&) = delete;
  Producer& operator=(const Producer&) = delete;
  ~Producer() {
    if (!thread_.joinable()) return;
    q_.close();
    thread_.join();
  }
  void join() { thread_.join(); }

 private:
  Queue& q_;
  std::thread thread_;
};

TEST(BoundedQueue, BlockedProducerWakesAtTheLowWaterMark) {
  constexpr int kCap = 8;
  Queue q(kCap);
  for (int i = 0; i < kCap; ++i) q.push(i);
  Producer producer(q, [&] { q.push(kCap); });
  ASSERT_TRUE(eventually([&] { return producer_waits(q) == 1; }));
  // Above half the capacity a pop leaves the producer asleep, though
  // there is room for its item.
  for (int i = 0; i < kCap / 2 - 1; ++i) EXPECT_EQ(pop_one(q), i);
  settle();
  EXPECT_EQ(depth(q), static_cast<std::size_t>(kCap / 2 + 1)) << "woken above the mark";
  // The pop that reaches the mark wakes it.
  EXPECT_EQ(pop_one(q), kCap / 2 - 1);
  ASSERT_TRUE(eventually([&] { return depth(q) == static_cast<std::size_t>(kCap / 2 + 1); }))
      << "not woken at the mark";
  producer.join();
  EXPECT_EQ(producer_waits(q), 1u);
  for (int i = kCap / 2; i <= kCap; ++i) EXPECT_EQ(pop_one(q), i);
}

TEST(BoundedQueue, WaitDrainedReturnsAtTheLastDone) {
  Queue q(4);
  // A consumer that finds the queue empty sleeps and is counted.
  int first = -1;
  std::thread consumer([&] { EXPECT_TRUE(q.pop(first)); });
  ASSERT_TRUE(eventually([&] {
    std::scoped_lock lock(q.mutex);
    return q.pop_waits == 1;
  }));
  q.push(7);
  consumer.join();
  EXPECT_EQ(first, 7);
  q.push(8);
  q.push(9);
  int item = 0;
  ASSERT_TRUE(q.pop(item));
  ASSERT_TRUE(q.pop(item));
  std::atomic<bool> drained{false};
  std::thread waiter([&] {
    q.wait_drained();
    drained = true;
  });
  q.done();
  q.done();
  settle();
  EXPECT_FALSE(drained) << "drained while a consumer still held an item";
  q.done();
  EXPECT_TRUE(eventually([&] { return drained.load(); })) << "not woken by the last done()";
  q.drained.notify_all();  // releases a waiter the wake rule failed to wake
  waiter.join();
}

TEST(BoundedQueue, CloseWakesABlockedProducerAndHeldItemsDrain) {
  Queue q(2);
  q.push(1);
  q.push(2);
  std::atomic<bool> refused{false};
  Producer producer(q, [&] {
    try {
      q.push(3);
    } catch (const Error&) {
      refused = true;
    }
  });
  ASSERT_TRUE(eventually([&] { return producer_waits(q) == 1; }));
  q.close();
  producer.join();
  EXPECT_TRUE(refused);
  EXPECT_EQ(pop_one(q), 1);
  EXPECT_EQ(pop_one(q), 2);
  int item = 0;
  EXPECT_FALSE(q.pop(item));
}

TEST(BoundedQueue, CapacityOneAndTwoHandOffItemByItem) {
  for (const int cap : {1, 2}) {
    SCOPED_TRACE(cap);
    constexpr int kExtra = 6;
    Queue q(static_cast<std::size_t>(cap));
    for (int i = 0; i < cap; ++i) q.push(i);
    Producer producer(q, [&] {
      for (int i = cap; i < cap + kExtra; ++i) q.push(i);
    });
    // Every pop wakes the producer, which refills the queue before the
    // next pop.
    for (int i = 0; i < kExtra; ++i) {
      ASSERT_TRUE(eventually([&] { return producer_waits(q) == static_cast<unsigned>(i + 1); }));
      EXPECT_EQ(pop_one(q), i);
      ASSERT_TRUE(eventually([&] { return depth(q) == static_cast<std::size_t>(cap); }));
    }
    producer.join();
    for (int i = kExtra; i < cap + kExtra; ++i) EXPECT_EQ(pop_one(q), i);
  }
}

TEST(BoundedQueue, TwoProducersOneConsumerKeepEachProducersOrder) {
  constexpr int kPerProducer = 10000;
  common::BoundedQueue<std::pair<int, int>> q(64);
  std::vector<int> next(2, 0);
  bool ordered = true;
  std::thread consumer([&] {
    std::pair<int, int> item;
    while (q.pop(item)) {
      ordered = ordered && item.second == next[static_cast<std::size_t>(item.first)];
      ++next[static_cast<std::size_t>(item.first)];
      q.done();
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) q.push({p, i});
    });
  }
  for (auto& t : producers) t.join();
  q.wait_drained();
  q.close();
  consumer.join();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(next, std::vector<int>(2, kPerProducer));
}

}  // namespace
}  // namespace cs31::trace
