// Conway's Game of Life, the application spine of CS 31's programming
// labs: Lab 6 builds the sequential simulation (2-D grid allocation,
// file-driven initial state); Lab 10 parallelizes it with pthreads —
// partition the grid into per-thread bands, barrier between rounds, and
// a mutex protecting shared statistics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "parallel/threads.hpp"

namespace cs31::life {

/// Edge behaviour: Bounded treats outside as dead; Torus wraps (both
/// appear in course offerings).
enum class EdgeRule { Bounded, Torus };

/// The game grid. Cells are stored row-major, matching the C labs'
/// one-big-malloc layout discussion.
class Grid {
 public:
  /// Dead grid of the given size. Throws cs31::Error on zero dimensions.
  Grid(std::size_t rows, std::size_t cols);

  /// Parse the lab's file format:
  ///   line 1: rows cols
  ///   line 2: number of coordinate pairs that follow
  ///   then one "row col" pair per line for each live cell.
  /// Throws cs31::Error on malformed input or out-of-range coordinates.
  static Grid parse(const std::string& text);

  /// A deterministic pseudo-random soup with the given live-cell
  /// fraction, for benchmarks.
  static Grid random(std::size_t rows, std::size_t cols, double fill, std::uint32_t seed);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool alive(std::size_t r, std::size_t c) const;
  void set(std::size_t r, std::size_t c, bool alive);
  [[nodiscard]] std::size_t population() const;

  /// Live neighbors of (r, c) under the edge rule.
  [[nodiscard]] int neighbors(std::size_t r, std::size_t c, EdgeRule rule) const;

  friend bool operator==(const Grid&, const Grid&) = default;

 private:
  std::size_t rows_, cols_;
  std::vector<std::uint8_t> cells_;
};

/// Lab 6: the sequential engine.
class SerialLife {
 public:
  explicit SerialLife(Grid initial, EdgeRule rule = EdgeRule::Torus);

  /// Advance one generation.
  void step();

  /// Advance `n` generations.
  void run(std::size_t n);

  [[nodiscard]] const Grid& grid() const { return current_; }
  [[nodiscard]] std::size_t generation() const { return generation_; }

 private:
  Grid current_;
  Grid next_;
  EdgeRule rule_;
  std::size_t generation_ = 0;
};

/// One Life generation applied to a region (shared by both engines and
/// unit-testable on its own). Returns (births, deaths) in that region.
struct RegionDelta {
  std::uint64_t births = 0;
  std::uint64_t deaths = 0;
};
RegionDelta step_region(const Grid& current, Grid& next, const parallel::GridRegion& region,
                        EdgeRule rule);

/// Cross-generation statistics that the parallel engine's threads all
/// update — the shared state Lab 10 protects with a mutex.
struct LifeStats {
  std::uint64_t births = 0;
  std::uint64_t deaths = 0;
  std::uint64_t max_population = 0;
};

/// How finely a traced ParallelLife::run captures grid accesses. Row
/// traces one variable per band line (per row for a horizontal split) —
/// cheap enough for real-thread overhead budgets; Cell traces every
/// cell ("cur[r,c]"), the granularity life::traced_life_check replays
/// at, so the real-thread certificate is directly comparable to its.
enum class TraceGranularity { Row, Cell };

/// Tracing options for ParallelLife::run. `ctx == nullptr` runs
/// untraced.
struct LifeTraceOptions {
  trace::TraceContext* ctx = nullptr;
  /// false is the "forgotten barrier" teaching mode: the real barrier
  /// still runs every round (the execution stays well-defined — the
  /// same trick TracedVar plays with its hidden guard), but its
  /// happens-before edge is withheld from the sinks, so the detector
  /// reports — deterministically — the races the program would have if
  /// the student had forgotten the barrier.
  bool report_barrier = true;
  TraceGranularity granularity = TraceGranularity::Row;
};

/// Lab 10: the pthreads engine. Threads own grid bands (horizontal or
/// vertical), synchronize each round on a barrier, and merge per-round
/// statistics under a mutex.
class ParallelLife {
 public:
  /// Throws cs31::Error when threads == 0 or exceeds the band dimension.
  ParallelLife(Grid initial, std::size_t threads,
               parallel::GridSplit split = parallel::GridSplit::Horizontal,
               EdgeRule rule = EdgeRule::Torus);

  /// Run `n` generations with real threads (one team for the whole run,
  /// barrier-synchronized per round, as the lab requires). Thread 0 is
  /// the serial thread that publishes each generation between the two
  /// barrier crossings — a fixed choice, so traced runs are
  /// reproducible run to run.
  void run(std::size_t n);

  /// The same run, captured through a TraceContext: workers record
  /// their halo reads and band writes, thread 0 records the swap's
  /// writes, the per-round barrier records its cycles (and drains the
  /// buffers, bounding capture memory). The per-round statistics mutex
  /// is deliberately *not* traced: the grid certificate then depends
  /// only on the grid access pattern, the one life::traced_life_check
  /// replays through the same round. Call options.ctx->flush() after
  /// run() before reading any sink's verdict.
  void run(std::size_t n, const LifeTraceOptions& options);

  [[nodiscard]] const Grid& grid() const { return current_; }
  [[nodiscard]] std::size_t generation() const { return generation_; }
  [[nodiscard]] const LifeStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t threads() const { return regions_.size(); }

  /// Which thread owns cell (r, c) — feeds the ParaVis region coloring.
  [[nodiscard]] int owner(std::size_t r, std::size_t c) const;

 private:
  /// life/traced.cpp: the one caller of replay().
  friend struct LifeReplay;

  /// The ids a traced round names its accesses with (life.cpp), interned
  /// through `names`: a TraceContext, or the replay's SinkFeed.
  struct TraceIds;
  template <class Names>
  [[nodiscard]] TraceIds intern_trace_ids(Names& names, TraceGranularity granularity) const;

  // The Lab 10 round, written once. compute_phase is band `id`'s step:
  // its halo reads and band writes, then step_region. swap_phase is the
  // serial thread's publish of the new generation. Each emits its
  // accesses through `capture` (TraceContext::accesses' arguments) when
  // `ids` is set: run() passes the bound ctx->accesses, replay() a
  // scripted worker's feed.accesses_as.
  template <class Capture>
  RegionDelta compute_phase(std::size_t id, const TraceIds* ids, const Capture& capture);
  template <class Capture>
  void swap_phase(const TraceIds* ids, const Capture& capture);

  /// run(n) replayed from the calling OS thread at Cell granularity —
  /// life::traced_life_check's engine — through `feed`'s scripted API
  /// (fork_thread, accesses_as, flush, barrier_cycle, join_threads):
  /// a life::SinkFeed, which hands each event to its sink as it is
  /// emitted, or a TraceContext, for pipelined or sampled analysis.
  /// Flushes after every band and after the swap (a context then
  /// dispatches in emission order), records both barrier cycles only
  /// when `use_barrier` is set, joins the workers, and hands back the
  /// final grid. Instantiated in life.cpp for those two feeds.
  template <class Feed>
  [[nodiscard]] Grid replay(Feed& feed, std::size_t n, bool use_barrier) &&;

  Grid current_;
  Grid next_;
  EdgeRule rule_;
  parallel::GridSplit split_;
  std::vector<parallel::GridRegion> regions_;
  std::size_t generation_ = 0;
  LifeStats stats_;
};

/// The names of both grids' cells, interleaved, on a grid `cols` wide:
/// index 2·(r·cols + c) is cur[r,c] ("cur[2,5]") and the index after it
/// next[r,c].
[[nodiscard]] race::NameFormat cell_names(std::size_t cols);

/// Reserve the traced names of both grids' cells as one block of
/// variable ids through `names` (a TraceContext, or the replay's
/// SinkFeed), in cell_names' order: cur[r,c] is base + 2·(r·cols + c)
/// and next[r,c] the id after it. Returns base. A traced round names
/// cells through this (ParallelLife::run at Cell granularity, and the
/// replay); a name is formatted only when a report (or a string lookup)
/// reads it.
template <class Names>
[[nodiscard]] trace::NameId reserve_cell_names(Names& names, std::size_t rows,
                                               std::size_t cols) {
  return names.reserve_vars(2 * rows * cols, cell_names(cols));
}

}  // namespace cs31::life
