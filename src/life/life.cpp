#include "life/life.hpp"

#include <algorithm>
#include <mutex>
#include <sstream>

#include "common/error.hpp"
#include "life/traced.hpp"
#include "parallel/sync.hpp"

namespace cs31::life {

Grid::Grid(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), cells_(rows * cols, 0) {
  require(rows > 0 && cols > 0, "grid must have nonzero dimensions");
}

Grid Grid::parse(const std::string& text) {
  std::istringstream in(text);
  std::size_t rows = 0, cols = 0, pairs = 0;
  require(static_cast<bool>(in >> rows >> cols), "grid file: missing dimensions");
  require(rows > 0 && cols > 0, "grid file: dimensions must be positive");
  require(static_cast<bool>(in >> pairs), "grid file: missing live-cell count");
  Grid grid(rows, cols);
  for (std::size_t i = 0; i < pairs; ++i) {
    std::size_t r = 0, c = 0;
    if (!(in >> r >> c)) {
      throw Error("grid file: expected " + std::to_string(pairs) + " coordinate pairs");
    }
    if (r >= rows || c >= cols) {
      throw Error("grid file: cell (" + std::to_string(r) + ", " + std::to_string(c) +
                  ") out of range");
    }
    grid.set(r, c, true);
  }
  return grid;
}

Grid Grid::random(std::size_t rows, std::size_t cols, double fill, std::uint32_t seed) {
  require(fill >= 0.0 && fill <= 1.0, "fill fraction must be in [0, 1]");
  Grid grid(rows, cols);
  std::uint32_t state = seed | 1u;
  const auto threshold = static_cast<std::uint32_t>(fill * 4294967295.0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      state = state * 1664525u + 1013904223u;
      if (state <= threshold) grid.set(r, c, true);
    }
  }
  return grid;
}

bool Grid::alive(std::size_t r, std::size_t c) const {
  require(r < rows_ && c < cols_, "cell out of range");
  return cells_[r * cols_ + c] != 0;
}

void Grid::set(std::size_t r, std::size_t c, bool alive) {
  require(r < rows_ && c < cols_, "cell out of range");
  cells_[r * cols_ + c] = alive ? 1 : 0;
}

std::size_t Grid::population() const {
  std::size_t n = 0;
  for (const std::uint8_t cell : cells_) n += cell;
  return n;
}

namespace {

/// The indices one step either side of `i` in a dimension of size `n`,
/// with `i` itself in the middle: wrapped under Torus, dropped at the
/// edge under Bounded. Neighbours are at most one step away, so a
/// compare does the wrap. Returns how many were written (2 or 3).
std::size_t around(std::size_t i, std::size_t n, EdgeRule rule, std::size_t (&out)[3]) {
  std::size_t k = 0;
  if (i > 0) {
    out[k++] = i - 1;
  } else if (rule == EdgeRule::Torus) {
    out[k++] = n - 1;
  }
  out[k++] = i;
  if (i + 1 < n) {
    out[k++] = i + 1;
  } else if (rule == EdgeRule::Torus) {
    out[k++] = 0;
  }
  return k;
}

}  // namespace

int Grid::neighbors(std::size_t r, std::size_t c, EdgeRule rule) const {
  require(r < rows_ && c < cols_, "cell out of range");
  // Every (row, column) pair of the 3x3 window, the cell itself taken
  // back out. On a 1- or 2-wide torus a neighbour index repeats, and the
  // window counts it once per step that lands on it, as the modular
  // wrap does.
  std::size_t rows_at[3], cols_at[3];
  const std::size_t nr = around(r, rows_, rule, rows_at);
  const std::size_t nc = around(c, cols_, rule, cols_at);
  int count = -static_cast<int>(cells_[r * cols_ + c]);
  for (std::size_t i = 0; i < nr; ++i) {
    const std::uint8_t* row = &cells_[rows_at[i] * cols_];
    for (std::size_t j = 0; j < nc; ++j) count += row[cols_at[j]];
  }
  return count;
}

RegionDelta step_region(const Grid& current, Grid& next, const parallel::GridRegion& region,
                        EdgeRule rule) {
  RegionDelta delta;
  for (std::size_t r = region.rows.begin; r < region.rows.end; ++r) {
    for (std::size_t c = region.cols.begin; c < region.cols.end; ++c) {
      const int n = current.neighbors(r, c, rule);
      const bool was = current.alive(r, c);
      const bool now = was ? (n == 2 || n == 3) : (n == 3);
      next.set(r, c, now);
      if (now && !was) ++delta.births;
      if (was && !now) ++delta.deaths;
    }
  }
  return delta;
}

SerialLife::SerialLife(Grid initial, EdgeRule rule)
    : current_(std::move(initial)), next_(current_.rows(), current_.cols()), rule_(rule) {}

void SerialLife::step() {
  const parallel::GridRegion whole{{0, current_.rows()}, {0, current_.cols()}};
  step_region(current_, next_, whole, rule_);
  std::swap(current_, next_);
  ++generation_;
}

void SerialLife::run(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) step();
}

namespace {

/// The engine's bands, once the thread count is known to fit the grid.
std::vector<parallel::GridRegion> bands(std::size_t rows, std::size_t cols, std::size_t threads,
                                        parallel::GridSplit split) {
  require(threads >= 1, "need at least one thread");
  require(threads <= (split == parallel::GridSplit::Horizontal ? rows : cols),
          "more threads than grid bands");
  return parallel::grid_partition(rows, cols, threads, split);
}

}  // namespace

ParallelLife::ParallelLife(Grid initial, std::size_t threads, parallel::GridSplit split,
                           EdgeRule rule)
    : current_(std::move(initial)),
      next_(current_.rows(), current_.cols()),
      rule_(rule),
      split_(split),
      regions_(bands(current_.rows(), current_.cols(), threads, split)) {}

void ParallelLife::run(std::size_t n) { run(n, LifeTraceOptions{}); }

race::NameFormat cell_names(std::size_t cols) {
  return [cols](std::size_t k) {
    const std::size_t cell = k / 2;
    return (k % 2 == 0 ? "cur[" : "next[") + std::to_string(cell / cols) + ',' +
           std::to_string(cell % cols) + ']';
  };
}

/// Interned ids a traced round fires per access: one id per band line
/// (Row granularity) or per cell (Cell granularity) of each grid,
/// interleaved in one reserved block, plus the site labels. Both
/// engines name their accesses through this, so their certificates name
/// the same cells and sites.
struct ParallelLife::TraceIds {
  trace::NameId grids = 0;  ///< item k (line, or cell r*cols+c) of cur; next is +1
  std::size_t items = 0;    ///< items per grid
  std::vector<trace::NameId> band_sites;
  trace::NameId swap_site = 0;
  std::size_t rows = 0, cols = 0;
  bool horizontal = true;
  bool cell = false;

  [[nodiscard]] trace::NameId cur(std::size_t k) const {
    return static_cast<trace::NameId>(grids + 2 * k);
  }
  [[nodiscard]] trace::NameId next(std::size_t k) const { return cur(k) + 1; }

  /// The accesses to lines [line, line + n) of one grid, in line order
  /// and, within a line, in cell order — one capture call per run of
  /// consecutive ids.
  template <class Capture>
  void lines(const Capture& capture, race::AccessKind kind, bool next_grid, std::size_t line,
             std::size_t n, trace::NameId site) const {
    const auto id = [&](std::size_t k) { return next_grid ? next(k) : cur(k); };
    if (!cell) {
      capture(kind, id(line), n, std::size_t{2}, site);
    } else if (horizontal) {
      capture(kind, id(line * cols), n * cols, std::size_t{2}, site);
    } else {
      for (std::size_t l = line; l < line + n; ++l) capture(kind, id(l), rows, 2 * cols, site);
    }
  }
};

template <class Names>
ParallelLife::TraceIds ParallelLife::intern_trace_ids(Names& names,
                                                      TraceGranularity granularity) const {
  TraceIds ids;
  ids.rows = current_.rows();
  ids.cols = current_.cols();
  ids.horizontal = split_ == parallel::GridSplit::Horizontal;
  ids.cell = granularity == TraceGranularity::Cell;
  ids.items = ids.cell ? ids.rows * ids.cols : ids.horizontal ? ids.rows : ids.cols;
  if (ids.cell) {
    ids.grids = reserve_cell_names(names, ids.rows, ids.cols);
  } else {
    ids.grids = names.reserve_vars(2 * ids.items, [](std::size_t k) {
      return (k % 2 == 0 ? "cur[" : "next[") + std::to_string(k / 2) + ']';
    });
  }
  // Site labels deliberately carry no round number: the race between the
  // serial thread's swap and band t's halo access is the same bug in
  // every round, and the per-(variable, site pair) report dedup then
  // keeps it to one report per run instead of one per round
  // (TracedLife.BarrierlessRaceSetStableAcrossRounds).
  ids.band_sites.reserve(regions_.size());
  for (std::size_t t = 0; t < regions_.size(); ++t) {
    ids.band_sites.push_back(names.intern_site("step_region band " + std::to_string(t)));
  }
  ids.swap_site = names.intern_site("swap grids (serial thread)");
  return ids;
}

template <class Capture>
RegionDelta ParallelLife::compute_phase(std::size_t id, const TraceIds* ids,
                                        const Capture& capture) {
  const parallel::GridRegion& region = regions_[id];
  if (ids != nullptr) {
    // What band `id` reads: the band plus a one-line halo on each side in
    // the split dimension (wrapping under Torus), mirroring the neighbour
    // reads step_region performs; then what it writes, its band of the
    // next grid.
    const parallel::Range band = ids->horizontal ? region.rows : region.cols;
    const trace::NameId site = ids->band_sites[id];
    const auto n_lines = static_cast<std::int64_t>(ids->horizontal ? ids->rows : ids->cols);
    const std::int64_t lo = static_cast<std::int64_t>(band.begin) - 1;
    const std::int64_t hi = static_cast<std::int64_t>(band.end);  // inclusive halo
    // The halo lines in order, as runs of consecutive lines: a wrapped
    // line (Torus) starts a run of its own; an off-grid one is skipped.
    std::int64_t ll = lo;
    while (ll <= hi) {
      if (rule_ != EdgeRule::Torus && (ll < 0 || ll >= n_lines)) {
        ++ll;
        continue;
      }
      const std::int64_t first = (ll + n_lines) % n_lines;
      // An in-grid line runs on to the last in-grid halo line; a
      // wrapped one stands alone.
      const std::int64_t end = first == ll ? std::min(hi, n_lines - 1) + 1 : ll + 1;
      ids->lines(capture, race::AccessKind::Read, false, static_cast<std::size_t>(first),
                 static_cast<std::size_t>(end - ll), site);
      ll = end;
    }
    ids->lines(capture, race::AccessKind::Write, true, band.begin, band.size(), site);
  }
  return step_region(current_, next_, region, rule_);
}

template <class Capture>
void ParallelLife::swap_phase(const TraceIds* ids, const Capture& capture) {
  // The swap rebinds every cell of both grids: a write to all of them by
  // the serial thread (cur and next ids interleave, so the whole block in
  // id order).
  if (ids != nullptr) {
    capture(race::AccessKind::Write, ids->cur(0), 2 * ids->items, std::size_t{1},
            ids->swap_site);
  }
  std::swap(current_, next_);
  ++generation_;
}

void ParallelLife::run(std::size_t n, const LifeTraceOptions& options) {
  if (n == 0) return;
  const std::size_t t = regions_.size();
  trace::TraceContext* ctx = options.ctx;
  parallel::Barrier barrier(t);
  // The lab's shared-statistics mutex. Deliberately untraced even when
  // ctx is set: the grid certificate then depends only on the grid
  // access pattern (and matches the replay's, which has no stats
  // events); the mutex still really protects the merge.
  std::mutex stats_mutex;

  TraceIds ids;
  if (ctx != nullptr) {
    barrier.attach_tracer(*ctx, options.report_barrier);
    ids = intern_trace_ids(*ctx, options.granularity);
  }
  const TraceIds* traced = ctx != nullptr ? &ids : nullptr;
  // The calling thread's accesses, through its bound buffer.
  const auto capture = [ctx](auto... access) { ctx->accesses(access...); };

  // One thread team for the whole run; rounds are separated by two
  // barrier crossings (compute -> swap -> next round), with thread 0 as
  // the serial thread doing the swap while the others wait — the Lab 10
  // structure, with a fixed (not last-arriver) serial thread so traced
  // runs are reproducible.
  const auto body = [&](std::size_t id) {
    for (std::size_t round = 0; round < n; ++round) {
      const RegionDelta delta = compute_phase(id, traced, capture);
      {
        // The mutex-protected shared statistics of the lab.
        std::scoped_lock lock(stats_mutex);
        stats_.births += delta.births;
        stats_.deaths += delta.deaths;
      }
      barrier.wait();
      if (id == 0) {
        // Serial thread of this cycle: publish the new generation.
        swap_phase(traced, capture);
        stats_.max_population = std::max<std::uint64_t>(stats_.max_population,
                                                        current_.population());
      }
      barrier.wait();  // everyone sees the swapped grid before continuing
    }
  };

  if (ctx != nullptr) {
    parallel::ThreadTeam team(t, *ctx, body);
    team.join();
  } else {
    parallel::ThreadTeam team(t, body);
    team.join();
  }
}

template <class Feed>
Grid ParallelLife::replay(Feed& feed, std::size_t n, bool use_barrier) && {
  const TraceIds ids = intern_trace_ids(feed, TraceGranularity::Cell);
  // Main (trace thread 0) forks one worker per band, like the ThreadTeam
  // in run(). The first worker steps its first band before main forks
  // the rest, and those forks are flushed before the next band. A
  // TraceContext dispatches a fork-first script in that order anyway
  // (the first band runs in the first fork's epoch, which sorts before
  // every later fork), and the pinned replay streams hold it; emitting
  // it so gives a SinkFeed's sink the same stream.
  std::vector<trace::ThreadId> workers;
  workers.reserve(regions_.size());
  const auto fork_rest = [&] {
    while (workers.size() < regions_.size()) workers.push_back(feed.fork_thread(0));
    feed.flush();
  };
  workers.push_back(feed.fork_thread(0));
  // Worker `t`'s accesses, emitted on its behalf.
  const auto as = [&feed](trace::ThreadId t) {
    return [&feed, t](auto... access) { feed.accesses_as(t, access...); };
  };
  for (std::size_t round = 0; round < n; ++round) {
    for (std::size_t t = 0; t < regions_.size(); ++t) {
      if (t == workers.size()) fork_rest();
      (void)compute_phase(t, &ids, as(workers[t]));
      feed.flush();
    }
    if (use_barrier) feed.barrier_cycle(workers);
    swap_phase(&ids, as(workers[0]));
    feed.flush();
    if (use_barrier) feed.barrier_cycle(workers);
  }
  if (workers.size() < regions_.size()) fork_rest();
  feed.join_threads(0, workers);
  return std::move(current_);
}

template Grid ParallelLife::replay(trace::TraceContext&, std::size_t, bool) &&;
template Grid ParallelLife::replay(SinkFeed&, std::size_t, bool) &&;

int ParallelLife::owner(std::size_t r, std::size_t c) const {
  for (std::size_t t = 0; t < regions_.size(); ++t) {
    const parallel::GridRegion& region = regions_[t];
    if (r >= region.rows.begin && r < region.rows.end && c >= region.cols.begin &&
        c < region.cols.end) {
      return static_cast<int>(t);
    }
  }
  return -1;
}

}  // namespace cs31::life
