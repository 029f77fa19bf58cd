// Detector-guided DPOR exploration tests. The load-bearing tier is
// DiffExplore.*: on an exhaustively-enumerable corpus the explorer's
// distinct-race verdict must be SET-IDENTICAL to replaying every
// interleaving, and the full result over a seeded corpus, Act 7 and
// the saturated-space bench script must match a pinned digest byte for
// byte.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/checks_script.hpp"
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

/// Every observable byte of a result: the summary line (counts,
/// totals, first racy schedule, deadlock counts), the walk statistics,
/// each distinct race in emission order (sites, event numbers, held
/// locks, explanation), and each stuck state with its witness.
std::string fingerprint(const ExploreResult& r) {
  std::ostringstream out;
  out << r.summary() << '\n'
      << "walk " << r.nodes_visited << ' ' << r.sleep_pruned << ' '
      << r.backtrack_points << '\n';
  for (const RaceReport& race : r.races) out << race.to_string() << '\n';
  for (const DeadlockState& d : r.deadlocks) {
    out << d.to_string() << "\n  witness:";
    for (const std::string& op : d.witness) out << ' ' << op << ';';
    out << '\n';
  }
  return out.str();
}

/// FNV-1a 64 over a run of fingerprints, so a whole corpus pins to one
/// number.
struct Digest {
  std::uint64_t value = 0xcbf29ce484222325ull;

  void add(const std::string& bytes) {
    for (const unsigned char c : bytes) {
      value ^= c;
      value *= 0x100000001b3ull;
    }
  }
};

/// The race_detective Act 7 script: mostly-independent threads (a and b
/// are thread-private) around one under-synchronized shared z.
std::vector<std::vector<std::string>> act7_script() {
  return {
      {"read a", "write a", "lock m", "write z", "unlock m", "read a", "write a"},
      {"read b", "write b", "read z", "write z", "read b", "write b", "write b"},
  };
}

/// bench_replay_explore's saturated-space script: 4 threads, ~40 ops
/// each, mostly thread-private, one shared guarded section per thread
/// and an unprotected write pair on `racy` in threads 0 and 1.
std::vector<std::vector<std::string>> monster_script() {
  std::vector<std::vector<std::string>> scripts(4);
  for (std::size_t t = 0; t < 4; ++t) {
    const std::string p = "write p" + std::to_string(t);
    for (int i = 0; i < 20; ++i) scripts[t].push_back(p);
    scripts[t].push_back("lock m0");
    scripts[t].push_back("write guarded");
    scripts[t].push_back("unlock m0");
    if (t < 2) scripts[t].push_back("write racy");
    for (int i = 0; i < 20; ++i) scripts[t].push_back(p);
  }
  return scripts;
}

/// The option sets every pinned script runs under: the defaults, the
/// static analyzer's seed (blocking semantics, independence pruning,
/// candidate hints — what the grader runs), and a tight schedule budget
/// steered by the default run's own races.
std::vector<ExploreOptions> pinned_option_sets(
    const std::vector<std::vector<std::string>>& scripts) {
  ExploreOptions budgeted;
  budgeted.max_schedules = 48;
  budgeted.hints = explore_races(scripts).races;
  return {ExploreOptions{}, analyze::seed_explore_options(analyze::analyze_scripts(scripts)),
          budgeted};
}

// ---------------------------------------------------------------------
// The differential tier (ctest name: explore_diff_smoke)
// ---------------------------------------------------------------------

// The explorer's whole output, pinned. Guidance feedback folds into the
// priority only once a result is merged, and the merge trails emission
// by a fixed window, so every byte below depends on that window as well
// as on the walk. The 3x5 group is the one where the window binds:
// nearly every run emits more schedules than the window, and turning
// reprioritize_on_discovery off changes the output, which the counts at
// the end assert.
TEST(DiffExplore, OutputIsPinnedByDigest) {
  struct Group {
    const char* name;
    std::uint64_t first_seed;
    std::uint64_t seeds;
    ScriptGenConfig cfg;
    std::uint64_t digest;
    bool toggle_feedback = false;  ///< also run with reprioritize_on_discovery off
  };
  const std::vector<Group> groups = {
      {"plain", 1000, 50, {.threads = 3, .ops_per_thread = 4}, 0xba286668b060f07aull},
      {"barrier",
       2000,
       50,
       {.threads = 3, .ops_per_thread = 2, .barriers = true},
       0x7fad41bb11973d4full},
      {"lock-cycle",
       3000,
       50,
       {.threads = 3, .ops_per_thread = 3, .locks = 2, .lock_cycles = true},
       0x02ece7f84114fb98ull},
      {"channel-misuse",
       4000,
       50,
       {.threads = 2, .ops_per_thread = 5, .channel_misuse = true},
       0xd10613b27c8bc484ull},
      {"lock-discipline",
       5000,
       50,
       {.threads = 3,
        .ops_per_thread = 3,
        .locks = 2,
        .channels = 0,
        .lock_discipline = true},
       0x3dac925deeaa56faull},
      {"3x5", 6000, 20, {.threads = 3, .ops_per_thread = 5}, 0xb6597fb7ac1758f2ull, true},
  };

  std::size_t long_runs = 0;
  std::size_t feedback_visible = 0;
  for (const Group& g : groups) {
    Digest digest;
    for (std::uint64_t seed = g.first_seed; seed < g.first_seed + g.seeds; ++seed) {
      const auto scripts = generate_script(seed, g.cfg);
      for (const ExploreOptions& options : pinned_option_sets(scripts)) {
        digest.add(fingerprint(explore_races(scripts, options)));
      }
      if (g.toggle_feedback) {
        ExploreOptions no_feedback;
        no_feedback.reprioritize_on_discovery = false;
        const ExploreResult with = explore_races(scripts);
        const ExploreResult without = explore_races(scripts, no_feedback);
        digest.add(fingerprint(without));
        if (with.schedules_replayed > 32) ++long_runs;
        if (fingerprint(with) != fingerprint(without)) ++feedback_visible;
      }
    }
    EXPECT_EQ(digest.value, g.digest) << g.name;
  }
  EXPECT_GE(long_runs, 18u) << "3x5 runs must outgrow the settle window";
  EXPECT_GE(feedback_visible, 15u) << "3x5 runs must show mid-run reprioritization";

  Digest act7;
  for (const ExploreOptions& options : pinned_option_sets(act7_script())) {
    act7.add(fingerprint(explore_races(act7_script(), options)));
  }
  EXPECT_EQ(act7.value, 0x0bd8cdc71e821df1ull);

  ExploreOptions monster_options;
  monster_options.max_schedules = 200;
  RaceReport hint;
  hint.variable = "racy";
  hint.first.where = "t0 write racy";
  hint.second.where = "t1 write racy";
  monster_options.hints.push_back(hint);
  Digest monster;
  monster.add(fingerprint(explore_races(monster_script(), monster_options)));
  EXPECT_EQ(monster.value, 0xdf97028dd69b554bull);
}

// The pinned corpus above stays shallow (about 15 ops deep). These
// walks go deeper, where the per-object last-access tables and the
// explicit stack do most of their work: generated scripts of 2x16 and
// 3x8 ops under the grader's options (the static seed plus its schedule
// and event budgets) and under plain options with the same budgets, the
// 2x256 private-write body at the grader's op cap, and a 2x256
// dependent-write body cut by an event budget.
TEST(DiffExplore, DeepWalksPinnedByDigest) {
  const auto budgeted = [](ExploreOptions options) {
    options.max_schedules = 4096;
    options.max_events = 200000;
    return options;
  };
  const auto grader_options = [&](const std::vector<std::vector<std::string>>& scripts) {
    return budgeted(analyze::seed_explore_options(analyze::analyze_scripts(scripts)));
  };

  struct Group {
    const char* name;
    std::uint64_t first_seed;
    ScriptGenConfig cfg;
    std::uint64_t digest;
  };
  const std::vector<Group> groups = {
      {"2x16", 7000, {.threads = 2, .ops_per_thread = 16}, 0x40ab8409d3f131b5ull},
      {"3x8", 7100, {.threads = 3, .ops_per_thread = 8}, 0x734050ab0a5c63e0ull},
      {"3x8-barrier",
       7200,
       {.threads = 3, .ops_per_thread = 8, .barriers = true},
       0xb5b83d533aa3deaaull},
      {"3x8-lock-cycle",
       7300,
       {.threads = 3, .ops_per_thread = 8, .locks = 2, .lock_cycles = true},
       0x02b0f3bd4bd9c8caull},
      {"2x16-channel-misuse",
       7400,
       {.threads = 2, .ops_per_thread = 16, .channel_misuse = true},
       0x4637225548d38f32ull},
  };
  for (const Group& g : groups) {
    Digest digest;
    for (std::uint64_t seed = g.first_seed; seed < g.first_seed + 6; ++seed) {
      const auto scripts = generate_script(seed, g.cfg);
      digest.add(fingerprint(explore_races(scripts, grader_options(scripts))));
      digest.add(fingerprint(explore_races(scripts, budgeted({}))));
    }
    EXPECT_EQ(digest.value, g.digest) << g.name;
  }

  // 2 x 256 ops, the grader's cap: thread-private writes collapse to one
  // schedule 512 events deep.
  std::vector<std::vector<std::string>> private_writes = {
      std::vector<std::string>(256, "write a"), std::vector<std::string>(256, "write b")};
  Digest at_cap;
  at_cap.add(fingerprint(explore_races(private_writes, grader_options(private_writes))));
  at_cap.add(fingerprint(explore_races(private_writes)));
  EXPECT_EQ(at_cap.value, 0x475b3a0a5c9dfda5ull);

  // 2 x 256 writes of one variable: every reordering is its own class,
  // so only the event budget stops the walk.
  const std::vector<std::string> writes(256, "write z");
  const std::vector<std::vector<std::string>> dependent_writes = {writes, writes};
  ExploreOptions event_budget;
  event_budget.max_events = 20000;
  Digest dependent;
  dependent.add(fingerprint(explore_races(dependent_writes, event_budget)));
  ExploreOptions graded = grader_options(dependent_writes);
  graded.max_events = 20000;
  dependent.add(fingerprint(explore_races(dependent_writes, graded)));
  EXPECT_EQ(dependent.value, 0x3c4dc89d35132935ull);
}

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
