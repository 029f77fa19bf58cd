// Thread-team management and data partitioning in the pthreads idiom of
// CS 31's shared-memory module: spawn N workers with ids, join them all,
// and split 1-D ranges or 2-D grids into the per-thread blocks students
// compute by hand in Lab 10 (vertical or horizontal grid partitioning).
#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "trace/context.hpp"

namespace cs31::parallel {

/// Half-open index range [begin, end) owned by one thread.
struct Range {
  std::size_t begin = 0;
  std::size_t end = 0;
  [[nodiscard]] std::size_t size() const { return end - begin; }
  friend bool operator==(const Range&, const Range&) = default;
};

/// Split [0, n) into `parts` contiguous blocks whose sizes differ by at
/// most one (the first n % parts blocks get the extra element) — the
/// partitioning rule Lab 10 asks students to derive. Throws cs31::Error
/// when parts == 0.
[[nodiscard]] std::vector<Range> block_partition(std::size_t n, std::size_t parts);

/// 2-D grid partition: split rows (Horizontal) or columns (Vertical)
/// among threads; each thread gets a band of complete rows/columns.
enum class GridSplit { Horizontal, Vertical };

struct GridRegion {
  Range rows;
  Range cols;
  friend bool operator==(const GridRegion&, const GridRegion&) = default;
};

[[nodiscard]] std::vector<GridRegion> grid_partition(std::size_t rows, std::size_t cols,
                                                     std::size_t parts, GridSplit split);

/// pthread_create/pthread_join in miniature: run `body(thread_id)` on
/// `count` threads and join them all. The destructor joins any threads
/// still running (RAII; no detached threads in the kit).
class ThreadTeam {
 public:
  /// Throws cs31::Error when count == 0.
  ThreadTeam(std::size_t count, const std::function<void(std::size_t)>& body);

  /// Traced variant: the spawning thread records a Fork edge per worker
  /// (happens-before edge parent -> child, and the parent's buffer is
  /// drained so a drain is always a consistent prefix), each worker
  /// binds its OS thread to its trace id before running `body`, and
  /// join() records the Join edges (child -> parent) in worker order
  /// and then drains every child's buffer, with the parent's, in one
  /// team drain (TraceContext::on_team_join). Everything `body`
  /// captures through `ctx` is then ordered correctly for every
  /// attached sink.
  ThreadTeam(std::size_t count, trace::TraceContext& ctx,
             const std::function<void(std::size_t)>& body);

  ~ThreadTeam();

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  /// Join all workers (idempotent: a second call is a no-op, as is a
  /// destructor after an explicit join).
  void join();

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// The trace id of worker `t` (traced teams only; empty otherwise) —
  /// lets a traced body name itself without calling ctx.self().
  [[nodiscard]] const std::vector<trace::ThreadId>& traced_ids() const {
    return traced_ids_;
  }

 private:
  std::vector<std::thread> workers_;
  trace::TraceContext* tracer_ = nullptr;
  std::vector<trace::ThreadId> traced_ids_;
  bool trace_joined_ = false;
};

/// Fork-join parallel loop: split [0, n) into `threads` blocks and run
/// `body(range, thread_id)` on real threads, joining before returning.
/// Pass a TraceContext to run the same loop traced: fork/join edges are
/// recorded and whatever `body` captures through the context is
/// correctly ordered for race detection (`ctx == nullptr` is the plain
/// untraced loop).
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(Range, std::size_t)>& body,
                  trace::TraceContext* ctx = nullptr);

}  // namespace cs31::parallel
