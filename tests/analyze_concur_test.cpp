// Static concurrency analysis tests. The load-bearing tier is
// ConcurDiff.* (ctest name: concur_diff_smoke): on a 1000-seed
// generate_script corpus spanning every shape — plain, barriers,
// lock-order cycles, channel misuse, lock-disciplined — the static
// over-approximation must COVER the dynamic tier (every race the
// blocking-aware Explorer finds is a static candidate, every stuck
// state find_deadlocks reaches implies a static deadlock candidate),
// guaranteed candidates must be dynamically confirmed, and pruned
// exploration (analyze::seed_explore_options) must keep race AND
// deadlock verdicts set-identical to unpruned while replaying at
// least 2x fewer schedules on the lock-disciplined subset.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analyze/checks_script.hpp"
#include "analyze/concur.hpp"
#include "common/error.hpp"
#include "race/explore.hpp"
#include "race/replay.hpp"

namespace cs31::analyze {
namespace {

using race::DeadlockState;
using race::ExploreOptions;
using race::ExploreResult;
using race::explore_races;
using race::find_deadlocks;
using race::generate_script;
using race::RaceReport;
using race::ReplayOptions;
using race::ScriptGenConfig;

std::set<race::RacePairKey> race_keys(const std::vector<RaceReport>& races) {
  std::set<race::RacePairKey> keys;
  for (const RaceReport& r : races) {
    keys.insert(race_pair_key(r.variable, r.first, r.second));
  }
  return keys;
}

/// A stuck state's identity for cross-run set comparison: who waits on
/// what (multiset — distinct position vectors can render alike).
std::multiset<std::string> stuck_states(const std::vector<DeadlockState>& deadlocks) {
  std::multiset<std::string> out;
  for (const DeadlockState& d : deadlocks) {
    std::string key;
    for (std::size_t i = 0; i < d.waiting.size(); ++i) {
      key += d.waiting[i] + "->" + d.resources[i] + ";";
    }
    out.insert(std::move(key));
  }
  return out;
}

ExploreOptions blocking() {
  ExploreOptions options;
  options.model_blocking = true;
  return options;
}

const Diagnostic* find_pass(const ConcurSummary& summary, const std::string& pass) {
  for (const Diagnostic& d : summary.diagnostics) {
    if (d.pass == pass) return &d;
  }
  return nullptr;
}

// ---------------------------------------------------------------------
// The differential tier (ctest name: concur_diff_smoke)
// ---------------------------------------------------------------------

struct Case {
  std::uint64_t seed;
  ScriptGenConfig cfg;
};

/// 1000 seeded cases across every generator shape. Kept small per case
/// (2-3 threads, 3-4 ops) so two full blocking explorations per case
/// stay exhaustively cheap.
std::vector<Case> corpus() {
  std::vector<Case> cases;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    cases.push_back({seed, {.threads = 2, .ops_per_thread = 4}});
  }
  for (std::uint64_t seed = 200; seed < 400; ++seed) {
    cases.push_back({seed, {.threads = 3, .ops_per_thread = 3}});
  }
  for (std::uint64_t seed = 400; seed < 550; ++seed) {
    cases.push_back({seed, {.threads = 2, .ops_per_thread = 3, .barriers = true}});
  }
  for (std::uint64_t seed = 550; seed < 700; ++seed) {
    cases.push_back(
        {seed, {.threads = 3, .ops_per_thread = 3, .locks = 2, .lock_cycles = true}});
  }
  for (std::uint64_t seed = 700; seed < 850; ++seed) {
    cases.push_back({seed, {.threads = 2, .ops_per_thread = 4, .channel_misuse = true}});
  }
  for (std::uint64_t seed = 850; seed < 1000; ++seed) {
    cases.push_back({seed,
                     {.threads = 2,
                      .ops_per_thread = 4,
                      .locks = 2,
                      .channels = 0,
                      .lock_discipline = true}});
  }
  return cases;
}

TEST(ConcurDiff, ThousandSeedStaticCoversDynamic) {
  std::size_t dynamic_races = 0;
  std::size_t dynamic_deadlocks = 0;
  std::size_t guaranteed = 0;
  for (const Case& c : corpus()) {
    const auto scripts = generate_script(c.seed, c.cfg);
    const ConcurSummary summary = analyze_scripts(scripts);

    // (a) Soundness of the race over-approximation: every race the
    // blocking-aware Explorer reports maps onto a static candidate.
    const ExploreResult dynamic =
        explore_races(scripts, blocking());
    ASSERT_TRUE(dynamic.complete) << "seed " << c.seed;
    for (const RaceReport& r : dynamic.races) {
      ++dynamic_races;
      EXPECT_TRUE(summary.covers_race(r.variable, r.first.where, r.second.where))
          << "seed " << c.seed << ": dynamic race not a static candidate: "
          << r.to_string();
    }

    // (b) Every reachable stuck state implies a static deadlock
    // candidate, and every GUARANTEED candidate (recv imbalance,
    // self-relock, barrier starvation) is dynamically confirmed. Each
    // witness must replay cleanly under blocking semantics.
    const auto search = find_deadlocks(scripts);
    ASSERT_TRUE(search.complete) << "seed " << c.seed;
    if (!search.deadlocks.empty()) {
      dynamic_deadlocks += search.deadlocks.size();
      EXPECT_TRUE(summary.may_deadlock())
          << "seed " << c.seed << ": reachable deadlock with no static candidate: "
          << search.deadlocks.front().to_string();
      const auto& witness = search.deadlocks.front().witness;
      const auto replayed = race::replay(witness, ReplayOptions{true});
      EXPECT_TRUE(replayed.feasible) << "seed " << c.seed;
      EXPECT_EQ(replayed.executed, witness.size()) << "seed " << c.seed;
    }
    for (const StaticDeadlock& d : summary.deadlocks) {
      if (!d.guaranteed) continue;
      ++guaranteed;
      EXPECT_FALSE(search.deadlock_free())
          << "seed " << c.seed
          << ": guaranteed candidate not confirmed: " << d.to_string();
    }

    // The Explorer's own stuck-state census agrees with the exact
    // position-vector search.
    EXPECT_EQ(stuck_states(dynamic.deadlocks), stuck_states(search.deadlocks))
        << "seed " << c.seed;
  }
  // The corpus must actually exercise the claims.
  EXPECT_GT(dynamic_races, 100u);
  EXPECT_GT(dynamic_deadlocks, 50u);
  EXPECT_GT(guaranteed, 20u);
}

TEST(ConcurDiff, PrunedVerdictsSetIdenticalWithFewerSchedules) {
  std::uint64_t unpruned_total = 0;
  std::uint64_t pruned_total = 0;
  std::uint64_t disciplined_unpruned = 0;
  std::uint64_t disciplined_pruned = 0;
  for (const Case& c : corpus()) {
    const auto scripts = generate_script(c.seed, c.cfg);
    const ConcurSummary summary = analyze_scripts(scripts);

    const ExploreResult unpruned =
        explore_races(scripts, blocking());
    const ExploreOptions seeded =
        seed_explore_options(summary, blocking());
    const ExploreResult pruned = explore_races(scripts, seeded);

    ASSERT_TRUE(unpruned.complete && pruned.complete) << "seed " << c.seed;
    EXPECT_EQ(race_keys(pruned.races), race_keys(unpruned.races))
        << "seed " << c.seed << ": pruning changed the race verdict";
    EXPECT_EQ(stuck_states(pruned.deadlocks), stuck_states(unpruned.deadlocks))
        << "seed " << c.seed << ": pruning changed the deadlock verdict";
    // No per-case <= assertion: the seeded options also carry hints,
    // and re-prioritising the DPOR walk can legitimately move a few
    // schedules either way on un-disciplined scripts. The aggregate
    // bounds below are the contract.

    unpruned_total += unpruned.schedules_replayed;
    pruned_total += pruned.schedules_replayed;
    if (c.cfg.lock_discipline) {
      disciplined_unpruned += unpruned.schedules_replayed;
      disciplined_pruned += pruned.schedules_replayed;
    }
  }
  // The acceptance floor: >= 2x fewer schedules on the lock-disciplined
  // subset, and never more overall.
  EXPECT_GE(disciplined_unpruned, 2 * disciplined_pruned)
      << "lock-disciplined subset: " << disciplined_unpruned << " unpruned vs "
      << disciplined_pruned << " pruned";
  EXPECT_LE(pruned_total, unpruned_total);
}

// ---------------------------------------------------------------------
// Diagnostic pinning: each check's text and op attribution
// ---------------------------------------------------------------------

TEST(ConcurChecks, StaticRaceCandidateTextAndAttribution) {
  const ConcurSummary summary = analyze_scripts({{"write z"}, {"read z"}});
  ASSERT_EQ(summary.races.size(), 1u);
  EXPECT_TRUE(summary.may_race());
  EXPECT_TRUE(summary.covers_race("z", "t0 write z", "t1 read z"));
  EXPECT_TRUE(summary.covers_race("z", "t1 read z", "t0 write z"));  // unordered
  const Diagnostic* d = find_pass(summary, "static-race");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->to_string(),
            "warning[static-race] line 1 in 't0': 'z' may race: 't0 write z' and "
            "'t1 read z' can run unordered; locksets {} vs {} share no lock and no "
            "barrier orders the pair\n"
            "    note: second access: 't1 read z' (t1 op 1)");
}

TEST(ConcurChecks, ReadReadIsNotACandidate) {
  const ConcurSummary summary = analyze_scripts({{"read z"}, {"read z"}});
  EXPECT_FALSE(summary.may_race());
}

TEST(ConcurChecks, ConsistentGuardRemovesCandidateAndIsRecorded) {
  const ConcurSummary summary = analyze_scripts({
      {"lock m", "write z", "unlock m"},
      {"lock m", "read z", "unlock m"},
  });
  EXPECT_FALSE(summary.may_race());
  ASSERT_EQ(summary.guarded_vars.count("z"), 1u);
  EXPECT_EQ(summary.guarded_vars.at("z"), "m");
  const Diagnostic* note = find_pass(summary, "guarded-by");
  ASSERT_NE(note, nullptr);
  EXPECT_EQ(note->severity, Severity::Note);
  EXPECT_EQ(note->message,
            "'z' is consistently guarded by 'm' (never a race candidate under "
            "blocking semantics)");
}

TEST(ConcurChecks, OneSidedLockIsStillACandidate) {
  const ConcurSummary summary = analyze_scripts({
      {"lock m", "write z", "unlock m"},
      {"write z"},
  });
  ASSERT_EQ(summary.races.size(), 1u);
  EXPECT_EQ(summary.races.front().explanation,
            "locksets {m} vs {} share no lock and no barrier orders the pair");
  EXPECT_TRUE(summary.guarded_vars.empty());
}

TEST(ConcurChecks, BarrierOrdersAccessesAcrossEpochs) {
  const ConcurSummary ordered = analyze_scripts({
      {"write z", "barrier"},
      {"barrier", "read z"},
  });
  EXPECT_FALSE(ordered.may_race());

  // Same epoch on both sides: the barrier does NOT order them.
  const ConcurSummary same_epoch = analyze_scripts({
      {"write z", "barrier"},
      {"read z", "barrier"},
  });
  EXPECT_TRUE(same_epoch.may_race());

  // A starved barrier cannot order anything: the separating cycle
  // never completes (and the starvation itself is reported).
  const ConcurSummary starved = analyze_scripts({
      {"write z", "barrier"},
      {"barrier", "read z"},
      {"write p"},
  });
  EXPECT_TRUE(starved.may_race());
}

TEST(ConcurChecks, SendRecvNeverOrdersAccesses) {
  // A recv-after-send "segment" still races: some schedule runs the
  // reader's access before the writer's send.
  const ConcurSummary summary = analyze_scripts({
      {"write z", "send q"},
      {"recv q", "read z"},
  });
  EXPECT_TRUE(summary.may_race());
}

TEST(ConcurChecks, LockOrderCycleDetectedAndReachable) {
  const std::vector<std::vector<std::string>> abba = {
      {"lock a", "lock b", "write z", "unlock b", "unlock a"},
      {"lock b", "lock a", "write z", "unlock a", "unlock b"},
  };
  const ConcurSummary summary = analyze_scripts(abba);
  ASSERT_EQ(summary.deadlocks.size(), 1u);
  const StaticDeadlock& d = summary.deadlocks.front();
  EXPECT_EQ(d.kind, "lock-order-cycle");
  EXPECT_EQ(d.resources, (std::vector<std::string>{"mutex a", "mutex b"}));
  EXPECT_FALSE(d.guaranteed);
  const Diagnostic* diag = find_pass(summary, "lock-order-cycle");
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->message,
            "lock-order cycle through mutex a, mutex b: threads acquire these in "
            "conflicting orders, so some schedule deadlocks");

  // Dynamically reachable: the exact search finds the ABBA stuck state.
  const auto search = find_deadlocks(abba);
  ASSERT_EQ(search.deadlocks.size(), 1u);
  EXPECT_EQ(search.deadlocks.front().resources,
            (std::vector<std::string>{"mutex b", "mutex a"}));
  EXPECT_EQ(search.deadlocks.front().waiting,
            (std::vector<std::string>{"t0 lock b", "t1 lock a"}));
}

TEST(ConcurChecks, ConsistentLockOrderHasNoCycle) {
  const ConcurSummary summary = analyze_scripts({
      {"lock a", "lock b", "write z", "unlock b", "unlock a"},
      {"lock a", "lock b", "write z", "unlock b", "unlock a"},
  });
  EXPECT_FALSE(summary.may_deadlock());
}

TEST(ConcurChecks, ChannelWaitCycleDetected) {
  // t0 recvs while holding the mutex the sender needs.
  const std::vector<std::vector<std::string>> scripts = {
      {"lock m", "recv q", "unlock m"},
      {"lock m", "send q", "unlock m"},
  };
  const ConcurSummary summary = analyze_scripts(scripts);
  ASSERT_EQ(summary.deadlocks.size(), 1u);
  EXPECT_EQ(summary.deadlocks.front().kind, "channel-wait-cycle");
  EXPECT_EQ(summary.deadlocks.front().resources,
            (std::vector<std::string>{"channel q", "mutex m"}));
  const Diagnostic* diag = find_pass(summary, "channel-wait-cycle");
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->message,
            "wait-order cycle through channel q, mutex m: progress on each resource "
            "requires the others, so some schedule deadlocks");

  // Reachable: t0 takes m first, then recv blocks and t1 can't send.
  EXPECT_FALSE(find_deadlocks(scripts).deadlock_free());
}

TEST(ConcurChecks, SelfDeadlockIsGuaranteedAndConfirmed) {
  const std::vector<std::vector<std::string>> scripts = {{"lock m", "lock m"}};
  const ConcurSummary summary = analyze_scripts(scripts);
  ASSERT_EQ(summary.deadlocks.size(), 1u);
  EXPECT_EQ(summary.deadlocks.front().kind, "self-deadlock");
  EXPECT_TRUE(summary.deadlocks.front().guaranteed);
  const Diagnostic* diag = find_pass(summary, "self-deadlock");
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->to_string(),
            "error[self-deadlock] line 2 in 't0': re-lock of held mutex 'm': this "
            "thread blocks on itself in every schedule that reaches this op");
  EXPECT_FALSE(find_deadlocks(scripts).deadlock_free());
}

TEST(ConcurChecks, UnlockWithoutLockReported) {
  const ConcurSummary summary = analyze_scripts({{"unlock m"}});
  const Diagnostic* diag = find_pass(summary, "unlock-without-lock");
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->to_string(),
            "error[unlock-without-lock] line 1 in 't0': unlock of 'm' without a "
            "matching program-order lock (the dynamic tier rejects this script)");
  // Not a deadlock candidate: nothing blocks, the op is just invalid.
  EXPECT_FALSE(summary.may_deadlock());
}

TEST(ConcurChecks, RecvNoSendIsGuaranteedAndConfirmed) {
  const std::vector<std::vector<std::string>> scripts = {
      {"send q", "recv q"},
      {"recv q"},
  };
  const ConcurSummary summary = analyze_scripts(scripts);
  ASSERT_EQ(summary.deadlocks.size(), 1u);
  EXPECT_EQ(summary.deadlocks.front().kind, "recv-no-send");
  EXPECT_TRUE(summary.deadlocks.front().guaranteed);
  const Diagnostic* diag = find_pass(summary, "recv-no-send");
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->message,
            "channel 'q' receives 2 time(s) but is sent only 1 time(s): a recv waits "
            "forever in every complete schedule");
  EXPECT_FALSE(find_deadlocks(scripts).deadlock_free());
}

TEST(ConcurChecks, BarrierStarvationIsGuaranteedAndConfirmed) {
  const std::vector<std::vector<std::string>> scripts = {
      {"barrier", "barrier", "write z"},
      {"barrier", "write z"},
  };
  const ConcurSummary summary = analyze_scripts(scripts);
  ASSERT_EQ(summary.deadlocks.size(), 1u);
  EXPECT_EQ(summary.deadlocks.front().kind, "barrier-starvation");
  EXPECT_TRUE(summary.deadlocks.front().guaranteed);
  const Diagnostic* diag = find_pass(summary, "barrier-starvation");
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->to_string(),
            "error[barrier-starvation] line 2 in 't0': barrier arrival 2 can never "
            "complete: t1 arrive(s) only 1 time(s)");
  EXPECT_FALSE(find_deadlocks(scripts).deadlock_free());
}

TEST(ConcurChecks, ThreadLocalVarsAndJson) {
  const ConcurSummary summary = analyze_scripts({
      {"write p0", "lock m", "write z", "unlock m"},
      {"lock m", "read z", "unlock m"},
  });
  EXPECT_EQ(summary.thread_local_vars, (std::vector<std::string>{"p0"}));
  const std::string json = summary.to_json();
  EXPECT_NE(json.find("\"race_candidates\":[]"), std::string::npos);
  EXPECT_NE(json.find("\"thread_local\":[\"p0\"]"), std::string::npos);
  EXPECT_NE(json.find("\"guarded\":{\"z\":\"m\"}"), std::string::npos);
}

TEST(ConcurChecks, MalformedOpsThrow) {
  EXPECT_THROW((void)analyze_scripts({{"mangle z"}}), Error);
  EXPECT_THROW((void)analyze_scripts({{"read"}}), Error);
}

TEST(ConcurChecks, JsonEscapesControlCharacters) {
  const std::string json = analyze_scripts({{"write a\001b"}, {"write a\001b"}}).to_json();
  EXPECT_EQ(json.find('\001'), std::string::npos) << json;
  EXPECT_NE(json.find("\"variable\":\"a\\u0001b\""), std::string::npos) << json;
}

// ---------------------------------------------------------------------
// One grammar: every entry point rejects the same ops, the same way
// ---------------------------------------------------------------------

/// The message `run` throws, or "" when it does not throw.
template <typename Run>
std::string thrown(Run run) {
  try {
    run();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(ScriptGrammar, EveryEntryPointRejectsMalformedOpsAlike) {
  const std::vector<std::pair<std::string, std::string>> table = {
      {"spin c", "unknown verb 'spin'"},
      {"", "missing a verb"},
      {"read", "'read' needs a variable"},
      {"unlock", "'unlock' needs a mutex"},
      {"recv", "'recv' needs a channel"},
      {"write x y z", "unexpected token 'y'"},
      {"barrier junk", "unexpected token 'junk'"},
  };
  for (const auto& [op, problem] : table) {
    const std::string expected = "script op 't0 " + op + "': " + problem;
    const std::vector<std::vector<std::string>> scripts = {{op}};
    EXPECT_EQ(thrown([&] { (void)race::replay({"t0 " + op}); }), expected);
    EXPECT_EQ(thrown([&] { (void)find_deadlocks(scripts); }), expected);
    EXPECT_EQ(thrown([&] { (void)race::Explorer(scripts); }), expected);
    EXPECT_EQ(thrown([&] { (void)analyze_scripts(scripts); }), expected);
  }
}

TEST(ScriptGrammar, UnlockWithoutLockHasOneMessage) {
  const std::string expected =
      "script op 't0 unlock m': unlock without a matching program-order lock";
  EXPECT_EQ(thrown([] { (void)race::replay({"t0 unlock m"}); }), expected);
  EXPECT_EQ(thrown([] { (void)find_deadlocks({{"unlock m"}}); }), expected);
  EXPECT_EQ(thrown([] { (void)race::Explorer({{"unlock m"}}); }), expected);
  // The static tier records it instead of throwing.
  EXPECT_NE(find_pass(analyze_scripts({{"unlock m"}}), "unlock-without-lock"), nullptr);
}

TEST(ScriptGrammar, WhitespaceSeparatesTokens) {
  const auto summary = analyze_scripts({{"write\tz "}, {"  read z"}});
  ASSERT_EQ(summary.races.size(), 1u);
  EXPECT_EQ(summary.races.front().variable, "z");
  EXPECT_EQ(summary.races.front().first, "t0 write\tz ");
}

TEST(ConcurChecks, CycleComponentsFindsSccsAndSelfLoops) {
  // Resources a, b, c, d as 1, 2, 3, 4.
  std::vector<OrderEdge> edges;
  edges.push_back({1, 2, nullptr});
  edges.push_back({2, 1, nullptr});
  edges.push_back({2, 3, nullptr});  // c: no cycle
  edges.push_back({4, 4, nullptr});  // self-loop
  const auto components = cycle_components(edges);
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0], (std::vector<Resource>{1, 2}));
  EXPECT_EQ(components[1], (std::vector<Resource>{4}));
}

TEST(ConcurChecks, SeedExploreOptionsWiresGuidanceAndPruning) {
  const ConcurSummary summary = analyze_scripts({
      {"write p0", "lock m", "write z", "unlock m", "write y"},
      {"lock m", "read z", "unlock m", "read y"},
  });
  const ExploreOptions options = seed_explore_options(summary);
  EXPECT_TRUE(options.model_blocking);
  ASSERT_EQ(options.hints.size(), summary.races.size());
  EXPECT_FALSE(options.hints.empty());  // y races
  EXPECT_EQ(options.hints.front().variable, "y");
  EXPECT_EQ(options.independent_vars, (std::vector<std::string>{"p0", "z"}));
  // m's critical sections touch only m-guarded z: a pure guard.
  EXPECT_EQ(options.independent_mutexes, (std::vector<std::string>{"m"}));
}

TEST(ConcurChecks, ImpureGuardsAreNotReduced) {
  // t1 reads y (unguarded elsewhere) inside its m-section: m's
  // release/acquire edges could mask the y race in one lock order, so
  // m must stay fully dependent in the explorer.
  const ConcurSummary straddle = analyze_scripts({
      {"lock m", "write z", "unlock m", "write y"},
      {"lock m", "read z", "read y", "unlock m"},
  });
  EXPECT_TRUE(straddle.independent_mutexes.empty());

  // A nested lock disqualifies the holder (the inner, empty section is
  // still pure); a channel op or a section left open disqualify too.
  EXPECT_EQ(analyze_scripts({{"lock a", "lock b", "unlock b", "unlock a"}})
                .independent_mutexes,
            (std::vector<std::string>{"b"}));
  EXPECT_TRUE(analyze_scripts({{"lock m", "send q", "unlock m"}, {"recv q"}})
                  .independent_mutexes.empty());
  EXPECT_TRUE(analyze_scripts({{"lock m", "write z"}, {"read z"}})
                  .independent_mutexes.empty());
}

// ---------------------------------------------------------------------
// Blocking-aware replay + exploration
// ---------------------------------------------------------------------

TEST(BlockingReplay, InfeasibleScheduleStopsAtBlockedOp) {
  const std::vector<std::string> schedule = {"t0 lock m", "t1 lock m", "t1 write z"};
  const auto blocking = race::replay(schedule, ReplayOptions{true});
  EXPECT_FALSE(blocking.feasible);
  EXPECT_EQ(blocking.executed, 1u);

  // Non-blocking replay of the same schedule runs it all (and that
  // over-approximation is the default, unchanged).
  const auto loose = race::replay(schedule);
  EXPECT_TRUE(loose.feasible);
  EXPECT_EQ(loose.executed, schedule.size());
}

TEST(BlockingReplay, RecvBlocksUntilSend) {
  EXPECT_FALSE(race::replay({"t0 recv q", "t1 send q"}, ReplayOptions{true}).feasible);
  EXPECT_TRUE(race::replay({"t1 send q", "t0 recv q"}, ReplayOptions{true}).feasible);
}

TEST(BlockingReplay, ParkedBarrierThreadCannotRun) {
  const auto parked =
      race::replay({"t0 barrier", "t0 write z", "t1 barrier"}, ReplayOptions{true});
  EXPECT_FALSE(parked.feasible);
  EXPECT_EQ(parked.executed, 1u);
  EXPECT_TRUE(race::replay({"t0 barrier", "t1 barrier", "t0 write z"},
                           ReplayOptions{true})
                  .feasible);
}

TEST(BlockingReplay, FindDeadlocksBoundsAndCompleteness) {
  const auto none = find_deadlocks({{"lock m", "write z", "unlock m"},
                                    {"lock m", "write z", "unlock m"}});
  EXPECT_TRUE(none.complete);
  EXPECT_TRUE(none.deadlock_free());
  EXPECT_GT(none.states_visited, 0u);

  const auto bounded = find_deadlocks({{"write a", "write b"}, {"write c"}}, 2);
  EXPECT_FALSE(bounded.complete);
}

TEST(BlockingReplay, FindDeadlocksValidatesScripts) {
  EXPECT_THROW((void)find_deadlocks({{"unlock m"}}), Error);
  EXPECT_THROW((void)find_deadlocks({{"mangle z"}}), Error);
}

TEST(BlockingExplore, ReachesDeadlocks) {
  const std::vector<std::vector<std::string>> abba = {
      {"lock a", "lock b", "write z", "unlock b", "unlock a"},
      {"lock b", "lock a", "write z", "unlock a", "unlock b"},
  };
  const ExploreResult result = explore_races(abba, blocking());
  EXPECT_GE(result.deadlocked_schedules, 1u);
  ASSERT_EQ(result.deadlocks.size(), 1u);
  EXPECT_EQ(result.deadlocks.front().waiting,
            (std::vector<std::string>{"t0 lock b", "t1 lock a"}));
}

TEST(BlockingExplore, BlockingRemovesCriticalSectionFalseRaces) {
  // The Act 3 talking point, resolved: without blocking the enumerator
  // interleaves two critical sections and the guarded increment
  // "races"; with blocking it cannot.
  const std::vector<std::vector<std::string>> guarded = {
      {"lock m", "read z", "write z", "unlock m"},
      {"lock m", "read z", "write z", "unlock m"},
  };
  const ExploreResult loose = explore_races(guarded);
  EXPECT_FALSE(loose.races.empty());
  const ExploreResult strict = explore_races(guarded, blocking());
  EXPECT_TRUE(strict.races.empty());
  EXPECT_EQ(strict.deadlocked_schedules, 0u);
}

TEST(BlockingExplore, PruningRequiresBlocking) {
  ExploreOptions options;
  options.independent_vars = {"z"};
  EXPECT_THROW((void)explore_races({{"write z"}, {"write z"}}, options), Error);

  // With blocking the claim is accepted; pruning cuts the explored
  // tree (the vouched-for pair is never backtracked, so only one of
  // the two orders replays), not the detector's verdict inside a
  // replayed schedule — the caller's claim here is a lie, and the one
  // schedule that does run still reports the race.
  options.model_blocking = true;
  const ExploreResult pruned = explore_races({{"write z"}, {"write z"}}, options);
  EXPECT_EQ(pruned.schedules_replayed, 1u);
  EXPECT_EQ(race_keys(pruned.races),
            race_keys(explore_races({{"write z"}, {"write z"}}, blocking()).races));
}

}  // namespace
}  // namespace cs31::analyze
