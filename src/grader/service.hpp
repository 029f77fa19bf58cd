// The batch grading service: the course toolchain as a high-throughput
// backend, partitioned by content hash. `hash % workers` is the one
// partitioning decision, and everything downstream of it is owned by a
// single thread (perfbook's partitioning and data ownership):
//
//   submit  — stamps each submission with an arrival sequence number
//             and its content hash, reserves its report slot, and pushes
//             it straight onto worker `hash % workers`'s bounded queue
//             (any number of front-end threads). A full queue BLOCKS the
//             submitter — backpressure, so a burst can never balloon
//             memory — until the worker has drained it to half, so a
//             submitter ahead of its worker wakes once per ~capacity/2
//             jobs, not once per job (bounded_queue.hpp). Routing by content hash (not round-robin) means
//             identical bodies always land on the same worker, so a
//             duplicate storm serializes behind one toolchain run on one
//             worker while every other worker keeps grading distinct work.
//   grade   — N workers, each popping its own queue, grading through its
//             own VerdictCache (each verdict rendered once, as JSON), and
//             writing the report line (envelope, then those bytes, in one
//             buffer) into the arrival-numbered slot. Every copy of a body reaches the
//             worker that owns its hash, which grades one job at a time,
//             so a private, lock-free cache still runs the toolchain once
//             per distinct body, service-wide. A worker never dies:
//             toolchain verdicts absorb submission defects, the cache
//             absorbs toolchain exceptions, and a last-resort catch turns
//             anything else into a "grader_error" report.
//   merge   — report_stream() reads the slots in arrival order. Because
//             a verdict is a pure function of (kind, body) and the
//             envelope (id, kind, hash) rides with the submission, the
//             stream is BYTE-IDENTICAL for any worker count and any queue
//             capacity — only wall-clock changes.
//
// A service with W workers runs exactly W threads. Lifecycle: submit
// from any threads, wait_idle(), then read reports and stats (the same
// flush-then-read rule as the analysis pipeline). The destructor drains
// gracefully: everything submitted is graded.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.hpp"
#include "grader/cache.hpp"
#include "grader/submission.hpp"
#include "grader/toolchain.hpp"

namespace cs31::grader {

class GraderService {
 public:
  struct Options {
    std::size_t workers = 2;          ///< grading workers (>= 1)
    std::size_t queue_capacity = 64;  ///< per-worker queue bound (>= 1)
    ToolchainLimits limits;           ///< per-execution resource budget
  };

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t graded = 0;
    std::uint64_t toolchain_runs = 0;  ///< actual compiles/executions: one per cache miss
    VerdictCache::Stats cache;         ///< summed over the workers' caches
    std::uint64_t publish_waits = 0;   ///< submit blocks on full worker queues
    std::uint64_t worker_waits = 0;    ///< worker blocks on empty queues
    std::vector<std::uint64_t> graded_per_worker;
  };

  GraderService() : GraderService(Options{}) {}
  explicit GraderService(Options options);
  ~GraderService();

  GraderService(const GraderService&) = delete;
  GraderService& operator=(const GraderService&) = delete;

  /// Enqueue one submission on its worker. Blocks while that worker's
  /// queue is full.
  void submit(Submission submission);

  /// Convenience: submit a whole batch in order.
  void submit_all(std::vector<Submission> submissions);

  /// Block until every submitted report is finished.
  void wait_idle();

  // --- results (valid while idle) --------------------------------------

  /// One JSON report line per submission, in arrival order — the
  /// deterministic merge (see file comment).
  [[nodiscard]] std::string report_stream() const;

  /// The same lines, unjoined (tests index into them).
  [[nodiscard]] std::vector<std::string> report_lines() const;

  [[nodiscard]] Stats stats() const;

 private:
  struct Job {
    std::uint64_t seq = 0;  ///< arrival number; indexes the report slot
    ContentHash hash = 0;
    Submission submission;
  };

  struct Worker {
    explicit Worker(std::size_t cap) : queue(cap) {}
    common::BoundedQueue<Job> queue;
    // Worker-thread private until idle; the queue lock orders reads after.
    VerdictCache cache;
    std::uint64_t graded = 0;
    std::thread thread;
  };

  void worker_main(Worker& worker);
  void finish(const Job& job, const std::string& verdict_json);

  const Options options_;
  std::vector<std::unique_ptr<Worker>> workers_;

  std::atomic<std::uint64_t> next_seq_{0};

  mutable std::mutex reports_mutex_;
  std::vector<std::string> reports_;  ///< indexed by seq
};

}  // namespace cs31::grader
