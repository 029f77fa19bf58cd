// Game of Life tests (Labs 6 & 10): rules on the classic patterns, the
// lab file format, serial/parallel equivalence across thread counts and
// split directions, shared statistics, and ParaVis rendering.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "common/error.hpp"
#include "life/life.hpp"
#include "paravis/paravis.hpp"

namespace cs31::life {
namespace {

Grid blinker() {
  Grid g(5, 5);
  g.set(2, 1, true);
  g.set(2, 2, true);
  g.set(2, 3, true);
  return g;
}

TEST(Grid, ParseLabFileFormat) {
  const Grid g = Grid::parse("4 6\n3\n0 0\n1 2\n3 5\n");
  EXPECT_EQ(g.rows(), 4u);
  EXPECT_EQ(g.cols(), 6u);
  EXPECT_EQ(g.population(), 3u);
  EXPECT_TRUE(g.alive(1, 2));
  EXPECT_FALSE(g.alive(0, 1));
}

TEST(Grid, ParseDiagnosesMalformedFiles) {
  EXPECT_THROW(Grid::parse(""), Error);
  EXPECT_THROW(Grid::parse("4"), Error);
  EXPECT_THROW(Grid::parse("4 4\n2\n0 0\n"), Error);       // missing pair
  EXPECT_THROW(Grid::parse("4 4\n1\n9 9\n"), Error);       // out of range
  EXPECT_THROW(Grid::parse("0 4\n0\n"), Error);            // zero dimension
}

TEST(Grid, NeighborsBoundedVsTorus) {
  Grid g(3, 3);
  g.set(0, 0, true);
  g.set(2, 2, true);
  // Bounded: corners don't see each other.
  EXPECT_EQ(g.neighbors(1, 1, EdgeRule::Bounded), 2);
  EXPECT_EQ(g.neighbors(0, 1, EdgeRule::Bounded), 1);
  // Torus: (0,0) and (2,2) are diagonal neighbors across the wrap.
  EXPECT_EQ(g.neighbors(0, 0, EdgeRule::Torus), 1);
  EXPECT_EQ(g.neighbors(2, 2, EdgeRule::Torus), 1);
}

/// The modular-arithmetic neighbour count: every (dr, dc) step but
/// (0, 0), wrapped with % under Torus, dropped off the edge when
/// Bounded. Grid::neighbors must agree with it on every grid shape.
int modular_neighbors(const Grid& g, std::size_t r, std::size_t c, EdgeRule rule) {
  const auto rows = static_cast<std::int64_t>(g.rows());
  const auto cols = static_cast<std::int64_t>(g.cols());
  int count = 0;
  for (int dr = -1; dr <= 1; ++dr) {
    for (int dc = -1; dc <= 1; ++dc) {
      if (dr == 0 && dc == 0) continue;
      std::int64_t nr = static_cast<std::int64_t>(r) + dr;
      std::int64_t nc = static_cast<std::int64_t>(c) + dc;
      if (rule == EdgeRule::Torus) {
        nr = (nr + rows) % rows;
        nc = (nc + cols) % cols;
      } else if (nr < 0 || nc < 0 || nr >= rows || nc >= cols) {
        continue;
      }
      count += g.alive(static_cast<std::size_t>(nr), static_cast<std::size_t>(nc)) ? 1 : 0;
    }
  }
  return count;
}

TEST(Grid, NeighborsMatchModularWrapOnEveryShape) {
  // 1-row and 1-column grids are the edge cases: there a torus step
  // lands on the cell itself, and on a 2-wide torus both steps land on
  // the same neighbour; each landing counts.
  for (std::size_t rows = 1; rows <= 5; ++rows) {
    for (std::size_t cols = 1; cols <= 5; ++cols) {
      for (const std::uint32_t seed : {3u, 11u, 29u}) {
        const Grid g = Grid::random(rows, cols, 0.5, seed);
        for (const EdgeRule rule : {EdgeRule::Torus, EdgeRule::Bounded}) {
          for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t c = 0; c < cols; ++c) {
              EXPECT_EQ(g.neighbors(r, c, rule), modular_neighbors(g, r, c, rule))
                  << rows << "x" << cols << " seed " << seed << " cell (" << r << ", " << c
                  << ") torus=" << (rule == EdgeRule::Torus);
            }
          }
        }
      }
    }
  }
  Grid single(1, 1);
  single.set(0, 0, true);
  EXPECT_EQ(single.neighbors(0, 0, EdgeRule::Torus), 8) << "every step wraps to itself";
  EXPECT_EQ(single.neighbors(0, 0, EdgeRule::Bounded), 0);
}

TEST(Grid, OutOfRangeThrows) {
  Grid g(3, 3);
  EXPECT_THROW((void)g.alive(3, 0), Error);
  EXPECT_THROW(g.set(0, 3, true), Error);
  EXPECT_THROW((void)g.neighbors(3, 3, EdgeRule::Torus), Error);
}

TEST(SerialLife, BlinkerOscillatesWithPeriodTwo) {
  SerialLife sim(blinker(), EdgeRule::Bounded);
  const Grid start = sim.grid();
  sim.step();
  EXPECT_TRUE(sim.grid().alive(1, 2));
  EXPECT_TRUE(sim.grid().alive(2, 2));
  EXPECT_TRUE(sim.grid().alive(3, 2));
  EXPECT_FALSE(sim.grid().alive(2, 1));
  sim.step();
  EXPECT_EQ(sim.grid(), start);
  EXPECT_EQ(sim.generation(), 2u);
}

TEST(SerialLife, BlockIsStill) {
  Grid g(4, 4);
  g.set(1, 1, true);
  g.set(1, 2, true);
  g.set(2, 1, true);
  g.set(2, 2, true);
  SerialLife sim(g, EdgeRule::Bounded);
  sim.run(5);
  EXPECT_EQ(sim.grid(), g);
}

TEST(SerialLife, GliderTranslatesOnTorus) {
  Grid g(8, 8);
  // Standard glider.
  g.set(0, 1, true);
  g.set(1, 2, true);
  g.set(2, 0, true);
  g.set(2, 1, true);
  g.set(2, 2, true);
  SerialLife sim(g, EdgeRule::Torus);
  sim.run(4);  // a glider shifts (+1, +1) every 4 generations
  Grid expected(8, 8);
  expected.set(1, 2, true);
  expected.set(2, 3, true);
  expected.set(3, 1, true);
  expected.set(3, 2, true);
  expected.set(3, 3, true);
  EXPECT_EQ(sim.grid(), expected);
  EXPECT_EQ(sim.grid().population(), 5u);
}

TEST(SerialLife, EmptyGridStaysEmpty) {
  SerialLife sim(Grid(10, 10));
  sim.run(3);
  EXPECT_EQ(sim.grid().population(), 0u);
}

// Lab 10's correctness requirement: the parallel result equals the
// serial result, for every thread count, split direction, and edge rule.
class ParallelEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, parallel::GridSplit, EdgeRule>> {
};

TEST_P(ParallelEquivalence, MatchesSerialAfterManyGenerations) {
  const auto [threads, split, rule] = GetParam();
  const Grid initial = Grid::random(32, 48, 0.35, 1234);
  SerialLife serial(initial, rule);
  ParallelLife parallel_sim(initial, threads, split, rule);
  serial.run(12);
  parallel_sim.run(12);
  EXPECT_EQ(parallel_sim.grid(), serial.grid());
  EXPECT_EQ(parallel_sim.generation(), 12u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),
                       ::testing::Values(parallel::GridSplit::Horizontal,
                                         parallel::GridSplit::Vertical),
                       ::testing::Values(EdgeRule::Torus, EdgeRule::Bounded)));

TEST(ParallelLife, StatsAccumulateUnderMutex) {
  const Grid initial = Grid::random(24, 24, 0.4, 99);
  ParallelLife par(initial, 4);
  par.run(10);
  SerialLife ser(initial);
  // Count serial births/deaths for comparison.
  std::uint64_t births = 0, deaths = 0;
  Grid prev = initial;
  for (int i = 0; i < 10; ++i) {
    ser.step();
    for (std::size_t r = 0; r < prev.rows(); ++r) {
      for (std::size_t c = 0; c < prev.cols(); ++c) {
        if (ser.grid().alive(r, c) && !prev.alive(r, c)) ++births;
        if (!ser.grid().alive(r, c) && prev.alive(r, c)) ++deaths;
      }
    }
    prev = ser.grid();
  }
  EXPECT_EQ(par.stats().births, births);
  EXPECT_EQ(par.stats().deaths, deaths);
  EXPECT_GT(par.stats().max_population, 0u);
}

TEST(ParallelLife, OwnerMapsCellsToThreadBands) {
  ParallelLife par(Grid(16, 16), 4, parallel::GridSplit::Horizontal);
  EXPECT_EQ(par.owner(0, 0), 0);
  EXPECT_EQ(par.owner(5, 3), 1);
  EXPECT_EQ(par.owner(15, 15), 3);
  ParallelLife vert(Grid(16, 16), 4, parallel::GridSplit::Vertical);
  EXPECT_EQ(vert.owner(3, 5), 1);
}

TEST(ParallelLife, RejectsMoreThreadsThanBands) {
  EXPECT_THROW(ParallelLife(Grid(4, 100), 5, parallel::GridSplit::Horizontal), Error);
  EXPECT_NO_THROW(ParallelLife(Grid(4, 100), 5, parallel::GridSplit::Vertical));
}

TEST(ParallelLife, RejectsZeroThreadsWithItsOwnMessage) {
  // The thread count is checked before the grid is partitioned, so the
  // message names the engine's requirement, not the partitioner's.
  for (const auto split : {parallel::GridSplit::Horizontal, parallel::GridSplit::Vertical}) {
    try {
      ParallelLife(Grid(4, 4), 0, split);
      ADD_FAILURE() << "zero threads accepted";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "need at least one thread");
    }
  }
}

TEST(ParaVis, RendersCellsAndNewlines) {
  Grid g(2, 3);
  g.set(0, 0, true);
  g.set(1, 2, true);
  paravis::FrameSource frame{
      2, 3, [&](std::size_t r, std::size_t c) { return g.alive(r, c); }, nullptr};
  EXPECT_EQ(paravis::render(frame), "@..\n..@\n");
}

TEST(ParaVis, AnsiModeColorsThreadRegions) {
  ParallelLife par(Grid(4, 4), 2);
  paravis::FrameSource frame{
      4, 4, [&](std::size_t r, std::size_t c) { return par.grid().alive(r, c); },
      [&](std::size_t r, std::size_t c) { return par.owner(r, c); }};
  paravis::VisConfig cfg;
  cfg.ansi_colors = true;
  const std::string out = paravis::render(frame, cfg);
  EXPECT_NE(out.find("\x1b[41m"), std::string::npos) << "thread 0 color";
  EXPECT_NE(out.find("\x1b[42m"), std::string::npos) << "thread 1 color";
  EXPECT_NE(out.find("\x1b[0m"), std::string::npos) << "reset per line";
}

TEST(ParaVis, RegionColorCyclesAndValidation) {
  EXPECT_EQ(paravis::region_color(0), 41);
  EXPECT_EQ(paravis::region_color(8), 41);
  EXPECT_EQ(paravis::region_color(-1), 49);
  paravis::FrameSource bad{0, 0, nullptr, nullptr};
  EXPECT_THROW((void)paravis::render(bad), Error);
}

TEST(ParaVis, RecorderCapturesEvolution) {
  SerialLife sim(blinker(), EdgeRule::Bounded);
  paravis::Recorder recorder;
  for (int i = 0; i < 3; ++i) {
    paravis::FrameSource frame{
        sim.grid().rows(), sim.grid().cols(),
        [&](std::size_t r, std::size_t c) { return sim.grid().alive(r, c); }, nullptr};
    recorder.record(frame);
    sim.step();
  }
  ASSERT_EQ(recorder.frame_count(), 3u);
  EXPECT_EQ(recorder.frames()[0], recorder.frames()[2]) << "period-2 oscillator";
  EXPECT_NE(recorder.frames()[0], recorder.frames()[1]);
}

}  // namespace
}  // namespace cs31::life
