// Detector-guided DPOR exploration tests. The load-bearing tier is
// DiffExplore.*: on an exhaustively-enumerable corpus the explorer's
// distinct-race verdict must be SET-IDENTICAL to replaying every
// interleaving, and the full result must be BYTE-IDENTICAL across
// {1,2,4,8} replay workers (and batch/queue shapes) — the same
// determinism contract the grader and trace pipelines honour.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "race/explore.hpp"
#include "race/replay.hpp"

namespace cs31::race {
namespace {

std::set<RacePairKey> key_set(const std::vector<RaceReport>& races) {
  std::set<RacePairKey> keys;
  for (const RaceReport& r : races) {
    keys.insert(race_pair_key(r.variable, r.first, r.second));
  }
  return keys;
}

/// Every observable byte of a result, for cross-worker identity checks:
/// the summary line (counts, totals, first racy schedule), the walk
/// statistics, and each distinct race rendered in emission order.
std::string fingerprint(const ExploreResult& r) {
  std::ostringstream out;
  out << r.summary() << '\n'
      << "walk " << r.nodes_visited << ' ' << r.sleep_pruned << ' '
      << r.backtrack_points << '\n';
  for (const RaceReport& race : r.races) out << race.to_string() << '\n';
  return out.str();
}

/// The race_detective Act 7 script: mostly-independent threads (a and b
/// are thread-private) around one under-synchronized shared z.
std::vector<std::vector<std::string>> act7_script() {
  return {
      {"read a", "write a", "lock m", "write z", "unlock m", "read a", "write a"},
      {"read b", "write b", "read z", "write z", "read b", "write b", "write b"},
  };
}

// ---------------------------------------------------------------------
// The differential tier (ctest name: explore_diff_smoke)
// ---------------------------------------------------------------------

TEST(DiffExplore, SeededCorpusMatchesExhaustiveReplay) {
  struct Case {
    std::uint64_t seed;
    ScriptGenConfig cfg;
  };
  std::vector<Case> corpus;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    corpus.push_back({seed, {.threads = 2, .ops_per_thread = 5}});
  }
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    corpus.push_back({seed, {.threads = 3, .ops_per_thread = 3}});
  }
  for (std::uint64_t seed = 21; seed <= 22; ++seed) {
    corpus.push_back({seed, {.threads = 2, .ops_per_thread = 4, .barriers = true}});
  }
  corpus.push_back({31, {.threads = 3, .ops_per_thread = 2, .barriers = true}});

  for (const Case& c : corpus) {
    const auto scripts = generate_script(c.seed, c.cfg);
    const auto exhaustive = replay_all_interleavings(scripts, 200000);
    const auto exhaustive_keys = key_set(distinct_races(exhaustive));

    const ExploreResult res = explore_races(scripts);
    EXPECT_TRUE(res.complete) << "seed " << c.seed;
    EXPECT_FALSE(res.total_saturated) << "seed " << c.seed;
    EXPECT_EQ(res.interleavings_total, exhaustive.size()) << "seed " << c.seed;
    EXPECT_LE(res.schedules_replayed, exhaustive.size()) << "seed " << c.seed;
    EXPECT_EQ(key_set(res.races), exhaustive_keys)
        << "seed " << c.seed << ": DPOR verdict diverged from the exhaustive sweep";
  }
}

TEST(DiffExplore, ByteIdenticalAcrossWorkerCounts) {
  struct Variant {
    std::vector<std::vector<std::string>> scripts;
    ExploreOptions base;
  };
  std::vector<Variant> variants;
  variants.push_back({act7_script(), {}});
  variants.push_back(
      {generate_script(7, {.threads = 3, .ops_per_thread = 3, .barriers = true}), {}});
  {
    // Budgeted + guided + a tight settle window, so mid-run
    // reprioritization actually interleaves with emission.
    ExploreOptions budgeted;
    budgeted.max_schedules = 40;
    budgeted.settle_window = 8;
    RaceReport hint;
    hint.variable = "z";
    hint.first.where = "t0 write z";
    hint.second.where = "t1 write z";
    budgeted.hints.push_back(hint);
    variants.push_back({act7_script(), budgeted});
  }

  for (std::size_t v = 0; v < variants.size(); ++v) {
    ExploreOptions baseline = variants[v].base;
    baseline.workers = 1;
    const std::string expected = fingerprint(explore_races(variants[v].scripts, baseline));
    for (const std::size_t workers : {2u, 4u, 8u}) {
      for (const std::size_t batch : {1u, 8u}) {
        ExploreOptions opts = variants[v].base;
        opts.workers = workers;
        opts.batch = batch;
        opts.queue_capacity = workers == 4 ? 1 : 4;
        EXPECT_EQ(fingerprint(explore_races(variants[v].scripts, opts)), expected)
            << "variant " << v << " workers " << workers << " batch " << batch;
      }
    }
  }
}

TEST(DiffExplore, Act7VerdictMatchesExhaustiveAtAFractionOfTheSchedules) {
  const auto scripts = act7_script();
  const auto exhaustive = replay_all_interleavings(scripts, 10000);
  ASSERT_EQ(exhaustive.size(), 3432u);  // C(14,7)
  const auto exhaustive_keys = key_set(distinct_races(exhaustive));
  ASSERT_EQ(exhaustive_keys.size(), 2u);  // write/read z and write/write z

  const ExploreResult res = explore_races(scripts);
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(key_set(res.races), exhaustive_keys);
  // The reduction floor the bench asserts precisely; 10x is the loose
  // tier-1 version (measured: far fewer).
  EXPECT_LE(res.schedules_replayed * 10, exhaustive.size());
}

// ---------------------------------------------------------------------
// Budgets: honest partial coverage instead of a throw
// ---------------------------------------------------------------------

TEST(Explore, ScheduleBudgetBindsHonestly) {
  // Every op writes the same variable, so every interleaving is its own
  // equivalence class: DPOR cannot prune, and only the budget stops it.
  const std::vector<std::vector<std::string>> scripts(
      3, std::vector<std::string>(4, "write z0"));
  ExploreOptions opts;
  opts.max_schedules = 50;
  const ExploreResult res = explore_races(scripts, opts);
  EXPECT_FALSE(res.complete);
  EXPECT_EQ(res.schedules_replayed, 50u);
  EXPECT_EQ(res.interleavings_total, 34650u);  // 12!/(4!4!4!)
  EXPECT_FALSE(res.total_saturated);
  EXPECT_NE(res.summary().find("budget hit"), std::string::npos);
  EXPECT_NE(res.summary().find("explored 50 of 34650"), std::string::npos);
  EXPECT_FALSE(res.races.empty());
}

TEST(Explore, EventBudgetBindsAtScheduleGranularity) {
  const std::vector<std::vector<std::string>> scripts(
      3, std::vector<std::string>(4, "write z0"));
  ExploreOptions opts;
  opts.max_events = 120;  // 12 ops per schedule -> exactly 10 schedules
  const ExploreResult res = explore_races(scripts, opts);
  EXPECT_FALSE(res.complete);
  EXPECT_EQ(res.schedules_replayed, 10u);
}

TEST(Explore, SaturatedSpaceStillCompletesWhenMostOpsAreIndependent) {
  // 4 threads x 40 thread-private ops: the interleaving count overflows
  // uint64 (the old enumerate-then-replay path could never even start),
  // but only one write/write pair is dependent, so the reduced tree is
  // a handful of schedules and the explorer finishes UNBUDGETED.
  std::vector<std::vector<std::string>> scripts(4);
  for (std::size_t t = 0; t < 4; ++t) {
    for (int i = 0; i < 40; ++i) {
      scripts[t].push_back("write p" + std::to_string(t));
    }
  }
  scripts[0].insert(scripts[0].begin() + 20, "write shared");
  scripts[1].insert(scripts[1].begin() + 20, "write shared");

  const ExploreResult res = explore_races(scripts);
  EXPECT_TRUE(res.total_saturated);
  EXPECT_TRUE(res.complete);
  EXPECT_NE(res.summary().find(">1.8e19 (count saturated)"), std::string::npos);
  EXPECT_GE(res.schedules_replayed, 2u);
  EXPECT_LE(res.schedules_replayed, 10u);
  ASSERT_EQ(res.races.size(), 1u);
  EXPECT_EQ(res.races[0].variable, "shared");
}

// ---------------------------------------------------------------------
// Guidance
// ---------------------------------------------------------------------

TEST(Explore, HintSteersTheFirstScheduleOntoAKnownRace) {
  // The race needs t1's recv to precede t0's send (otherwise the
  // channel edge orders the two writes). Unguided exploration runs t0
  // to completion first — schedule 0 is race-free. A hint on the write
  // pair pulls t1 forward, so the guided schedule 0 exposes the race.
  const std::vector<std::vector<std::string>> scripts = {
      {"write z", "send q", "lock m", "unlock m", "lock m", "unlock m"},
      {"lock m", "unlock m", "lock m", "unlock m", "recv q", "write z"},
  };

  ExploreOptions blind;
  blind.max_schedules = 1;
  const ExploreResult blind_res = explore_races(scripts, blind);
  EXPECT_EQ(blind_res.schedules_replayed, 1u);
  EXPECT_TRUE(blind_res.races.empty());
  EXPECT_EQ(blind_res.first_race_at, ExploreResult::kNoRace);

  ExploreOptions guided;
  guided.max_schedules = 1;
  RaceReport hint;
  hint.variable = "z";
  hint.first.where = "t0 write z";
  hint.second.where = "t1 write z";
  guided.hints.push_back(hint);
  const ExploreResult guided_res = explore_races(scripts, guided);
  EXPECT_EQ(guided_res.schedules_replayed, 1u);
  ASSERT_EQ(guided_res.races.size(), 1u);
  EXPECT_EQ(guided_res.races[0].variable, "z");
  EXPECT_EQ(guided_res.first_race_at, 0u);

  // Guidance prunes nothing: the complete runs agree with each other.
  const ExploreResult full_blind = explore_races(scripts);
  ExploreOptions full_guided_opts;
  full_guided_opts.hints = guided.hints;
  const ExploreResult full_guided = explore_races(scripts, full_guided_opts);
  EXPECT_TRUE(full_blind.complete);
  EXPECT_TRUE(full_guided.complete);
  EXPECT_EQ(key_set(full_blind.races), key_set(full_guided.races));
}

TEST(Explore, ReprioritizationTogglePreservesTheCompleteVerdict) {
  const auto scripts = generate_script(3, {.threads = 3, .ops_per_thread = 3});
  ExploreOptions off;
  off.reprioritize_on_discovery = false;
  const ExploreResult with_feedback = explore_races(scripts);
  const ExploreResult without_feedback = explore_races(scripts, off);
  EXPECT_TRUE(with_feedback.complete);
  EXPECT_TRUE(without_feedback.complete);
  EXPECT_EQ(key_set(with_feedback.races), key_set(without_feedback.races));
}

// ---------------------------------------------------------------------
// Reduction shape, edges, validation
// ---------------------------------------------------------------------

TEST(Explore, FullyIndependentThreadsCollapseToOneSchedule) {
  const std::vector<std::vector<std::string>> scripts = {
      {"write a", "write a", "read a"},
      {"write b", "read b", "write b"},
  };
  const ExploreResult res = explore_races(scripts);
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.interleavings_total, 20u);
  EXPECT_EQ(res.schedules_replayed, 1u);  // one Mazurkiewicz class
  EXPECT_TRUE(res.races.empty());
  EXPECT_EQ(res.backtrack_points, 0u);
}

TEST(Explore, TrivialScriptsExploreTheirSingleSchedule) {
  const ExploreResult empty = explore_races({});
  EXPECT_TRUE(empty.complete);
  EXPECT_EQ(empty.schedules_replayed, 1u);
  EXPECT_EQ(empty.interleavings_total, 1u);
  EXPECT_TRUE(empty.races.empty());

  const ExploreResult solo = explore_races({{"write x", "read x"}});
  EXPECT_TRUE(solo.complete);
  EXPECT_EQ(solo.schedules_replayed, 1u);
  EXPECT_TRUE(solo.races.empty());
}

TEST(Explore, ConstructorRejectsMalformedScripts) {
  const auto make = [](std::vector<std::vector<std::string>> scripts) {
    return Explorer(std::move(scripts));
  };
  EXPECT_THROW(make({{"unlock m"}}), Error);
  EXPECT_THROW(make({{"lock m0", "unlock m1"}}), Error);
  EXPECT_THROW(make({{"frobnicate x"}}), Error);
  EXPECT_THROW(make({{"read"}}), Error);
  EXPECT_NO_THROW(make({{"lock m0", "write x", "unlock m0"}}));
}

TEST(Explore, GeneratedScriptsAreStructurallyValidAndDeterministic) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const ScriptGenConfig cfg{.threads = 3, .ops_per_thread = 5, .barriers = seed % 2 == 0};
    const auto scripts = generate_script(seed, cfg);
    ASSERT_EQ(scripts.size(), 3u);
    EXPECT_NO_THROW((void)Explorer{scripts}) << "seed " << seed;
    EXPECT_EQ(scripts, generate_script(seed, cfg)) << "seed " << seed;
  }
  EXPECT_NE(generate_script(1), generate_script(2));
}

}  // namespace
}  // namespace cs31::race
