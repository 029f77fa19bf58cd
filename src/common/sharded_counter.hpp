// Per-shard statistical counter (McKenney, *Is Parallel Programming
// Hard*, ch. 5): writers bump a cache-line-private shard chosen by
// thread identity — one uncontended relaxed fetch_add, no mutex, no
// shared cache line — and readers sum the shards. The classic trade:
// updates are exact and fast, reads are *eventually* exact (a read
// concurrent with updates may miss in-flight increments, but every
// increment is counted once and a read after the writers quiesce is
// exact). That is precisely the contract statistics want and the one
// thing a mutex'd counter also cannot improve on — a mutex'd reader
// still races the *next* increment.
//
// User in this kit: trace::MetricsSink's event totals (satellite of
// the lock-free capture refactor — the sink used to take its mutex on
// every drained event).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace cs31::common {

/// Monotonic statistical counter, sharded to keep concurrent writers
/// off each other's cache lines. Shard choice hashes a per-thread slot
/// (assigned once per thread, round-robin), so a thread always hits the
/// same shard and two threads rarely share one.
class ShardedCounter {
 public:
  static constexpr std::size_t kShards = 16;

  ShardedCounter() = default;
  ShardedCounter(const ShardedCounter&) = delete;
  ShardedCounter& operator=(const ShardedCounter&) = delete;

  void add(std::uint64_t delta = 1) {
    shards_[this_thread_shard()].count.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Sum of all shards. Exact once writers are quiescent; a read
  /// concurrent with updates may miss increments still in flight but
  /// never counts one twice.
  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.count.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  // One shard per cache line; 64 covers every target this kit builds on
  // (std::hardware_destructive_interference_size draws a GCC warning
  // about ABI stability, so the constant is spelled out).
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
  };

  static std::size_t this_thread_shard() {
    static std::atomic<std::size_t> next_slot{0};
    thread_local const std::size_t slot =
        next_slot.fetch_add(1, std::memory_order_relaxed);
    return slot % kShards;
  }

  std::array<Shard, kShards> shards_{};
};

}  // namespace cs31::common
