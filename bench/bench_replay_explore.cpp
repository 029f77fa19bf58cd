// Exhaustive replay vs detector-guided DPOR exploration: the
// measurement behind race::Explorer's reason to exist.
//
//   (a) head-to-head     the race_detective Act 7 script (C(14,7) =
//                        3432 interleavings, 2 distinct races): replay
//                        every schedule, then let the explorer replay
//                        one representative per equivalence class.
//                        Same verdict required; the schedule ratio is
//                        the reduction the perf-smoke floor guards.
//   (b) corpus           seeded generated scripts (the differential
//                        tier's generator): per-seed reduction table
//                        with verdict equality asserted on every row.
//   (c) over the wall    a 4-thread script whose interleaving count
//                        saturates uint64 (far beyond 10^9 — the
//                        exhaustive path could not even start). The
//                        explorer, budgeted and hint-guided, finds the
//                        planted race in a handful of schedules and
//                        reports its partial coverage honestly.
//   (d) cost by depth    time per replayed event when two threads write
//                        one variable 16 and 256 times each, under one
//                        event budget: the walk's per-node work is
//                        independent of the depth, so the two should sit
//                        close. Reported only; no floor.
//
// Usage: bench_replay_explore [--perf-smoke] [--json[=DIR]] [--timestamp=T]
//   --perf-smoke   assert the >=10x schedule-reduction floor at equal
//                  distinct-race coverage, and that the budgeted
//                  monster run finds the planted race; nonzero exit on
//                  violation (the tier-1 ctest entry).
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "race/explore.hpp"
#include "race/replay.hpp"

namespace {

using cs31::race::ExploreOptions;
using cs31::race::ExploreResult;
using cs31::race::RaceReport;
using cs31::race::ReplayResult;
using cs31::bench::Clock;
using cs31::bench::seconds_since;
using cs31::race::ScriptGenConfig;

std::set<cs31::race::RacePairKey> key_set(const std::vector<RaceReport>& races) {
  std::set<cs31::race::RacePairKey> keys;
  for (const RaceReport& r : races) {
    keys.insert(cs31::race::race_pair_key(r.variable, r.first, r.second));
  }
  return keys;
}

std::vector<std::vector<std::string>> act7_script() {
  return {
      {"read a", "write a", "lock m", "write z", "unlock m", "read a", "write a"},
      {"read b", "write b", "read z", "write z", "read b", "write b", "write b"},
  };
}

/// 4 threads, ~40 ops each, almost all thread-private, plus a shared
/// lock-protected section per thread and one UNPROTECTED write pair on
/// `racy` in threads 0 and 1. The interleaving count saturates uint64.
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

}  // namespace

int main(int argc, char** argv) {
  cs31::bench::JsonReport json("replay_explore", argc, argv);
  json.workload(
      "exhaustive interleaving replay vs DPOR exploration: schedule reduction at equal "
      "distinct-race coverage, a budgeted saturated-space run, and the time per replayed "
      "event at two depths");

  const bool perf_smoke = json.perf_smoke();
  json.config("perf_smoke", perf_smoke);

  bool equal_verdicts = true;

  // (a) head-to-head on the Act 7 script ----------------------------------
  const auto act7 = act7_script();
  auto begin = Clock::now();
  const std::vector<ReplayResult> exhaustive = cs31::race::replay_all_interleavings(act7, 10000);
  const double exhaustive_s = seconds_since(begin);
  std::uint64_t exhaustive_events = 0;
  for (const ReplayResult& r : exhaustive) exhaustive_events += r.events;
  const auto exhaustive_keys = key_set(cs31::race::distinct_races(exhaustive));

  const ExploreOptions opts;
  begin = Clock::now();
  const ExploreResult explored = cs31::race::explore_races(act7, opts);
  const double explored_s = seconds_since(begin);
  equal_verdicts = equal_verdicts && key_set(explored.races) == exhaustive_keys;

  const double ratio = static_cast<double>(exhaustive.size()) /
                       static_cast<double>(explored.schedules_replayed);
  std::printf("(a) Act 7 head-to-head (%zu interleavings, %zu distinct races)\n",
              exhaustive.size(), exhaustive_keys.size());
  std::printf("    exhaustive %6zu schedules  %9.0f events/s\n", exhaustive.size(),
              static_cast<double>(exhaustive_events) / exhaustive_s);
  std::printf("    explorer   %6" PRIu64 " schedules  %9.0f events/s   (%s)\n",
              explored.schedules_replayed,
              static_cast<double>(explored.events_replayed) / explored_s,
              explored.summary().c_str());
  std::printf("    reduction  %.0fx fewer schedules, verdicts %s\n\n", ratio,
              equal_verdicts ? "identical" : "DIVERGED");
  json.metric("act7_exhaustive_schedules", static_cast<std::uint64_t>(exhaustive.size()));
  json.metric("act7_explorer_schedules", explored.schedules_replayed);
  json.metric("act7_reduction_ratio", ratio);
  json.metric("act7_exhaustive_events_per_s",
              static_cast<double>(exhaustive_events) / exhaustive_s);
  json.metric("act7_explorer_events_per_s",
              static_cast<double>(explored.events_replayed) / explored_s);

  // (b) seeded corpus reduction table --------------------------------------
  struct Row {
    std::uint64_t seed;
    ScriptGenConfig cfg;
  };
  std::vector<Row> rows;
  for (std::uint64_t seed = 1; seed <= (perf_smoke ? 4u : 8u); ++seed) {
    rows.push_back({seed, {.threads = 2, .ops_per_thread = 5}});
  }
  for (std::uint64_t seed = 11; seed <= (perf_smoke ? 12u : 14u); ++seed) {
    rows.push_back({seed, {.threads = 3, .ops_per_thread = 3}});
  }
  std::uint64_t corpus_exhaustive = 0;
  std::uint64_t corpus_explored = 0;
  std::printf("(b) seeded corpus (threads x ops): exhaustive vs DPOR schedules\n");
  for (const Row& row : rows) {
    const auto scripts = cs31::race::generate_script(row.seed, row.cfg);
    const auto full = cs31::race::replay_all_interleavings(scripts, 200000);
    const ExploreResult res = cs31::race::explore_races(scripts, opts);
    const bool same = key_set(res.races) == key_set(cs31::race::distinct_races(full));
    equal_verdicts = equal_verdicts && same;
    corpus_exhaustive += full.size();
    corpus_explored += res.schedules_replayed;
    std::printf("    seed %2" PRIu64 " (%zux%zu)  %6zu -> %4" PRIu64
                "  (%zu race(s), verdicts %s)\n",
                row.seed, row.cfg.threads, row.cfg.ops_per_thread, full.size(),
                res.schedules_replayed, res.races.size(), same ? "identical" : "DIVERGED");
  }
  const double corpus_ratio =
      static_cast<double>(corpus_exhaustive) / static_cast<double>(corpus_explored);
  std::printf("    total %" PRIu64 " -> %" PRIu64 " schedules (%.0fx reduction)\n\n",
              corpus_exhaustive, corpus_explored, corpus_ratio);
  json.metric("corpus_exhaustive_schedules", corpus_exhaustive);
  json.metric("corpus_explorer_schedules", corpus_explored);
  json.metric("corpus_reduction_ratio", corpus_ratio);
  json.metric("equal_verdicts", equal_verdicts);

  // (c) the saturated space, budgeted and guided ---------------------------
  const auto monster = monster_script();
  ExploreOptions budgeted = opts;
  budgeted.max_schedules = 200;
  RaceReport hint;
  hint.variable = "racy";
  hint.first.where = "t0 write racy";
  hint.second.where = "t1 write racy";
  budgeted.hints.push_back(hint);
  begin = Clock::now();
  const ExploreResult big = cs31::race::explore_races(monster, budgeted);
  const double big_s = seconds_since(begin);
  bool found_planted = false;
  for (const RaceReport& r : big.races) found_planted = found_planted || r.variable == "racy";
  std::printf("(c) saturated space under budget (4 threads, %zu ops, hinted)\n",
              monster[0].size() + monster[1].size() + monster[2].size() + monster[3].size());
  std::printf("    %s\n", big.summary().c_str());
  std::printf("    planted race %s in %.3fs, %9.0f events/s\n\n",
              found_planted ? "FOUND" : "MISSED", big_s,
              static_cast<double>(big.events_replayed) / big_s);
  json.metric("monster_schedules", big.schedules_replayed);
  json.metric("monster_total_saturated", big.total_saturated);
  json.metric("monster_found_planted_race", found_planted);
  json.metric("monster_events_per_s", static_cast<double>(big.events_replayed) / big_s);

  // (d) per-event cost at two depths ---------------------------------------
  const auto dependent_writes = [](std::size_t per_thread) {
    const std::vector<std::string> writes(per_thread, "write z");
    return std::vector<std::vector<std::string>>{writes, writes};
  };
  const auto shallow = dependent_writes(16);
  const auto deep = dependent_writes(256);
  ExploreOptions event_budget;
  event_budget.max_events = 16384;
  std::uint64_t shallow_events = 0;
  std::uint64_t deep_events = 0;
  const auto events_of = [&](const std::vector<std::vector<std::string>>& scripts) {
    return cs31::race::explore_races(scripts, event_budget).events_replayed;
  };
  const auto [shallow_time, deep_time] =
      cs31::bench::measure([&] { shallow_events = events_of(shallow); },
                           [&] { deep_events = events_of(deep); });
  const double shallow_ns = shallow_time.min() * 1e9 / static_cast<double>(shallow_events);
  const double deep_ns = deep_time.min() * 1e9 / static_cast<double>(deep_events);
  std::printf("(d) per-event cost by depth (2 threads writing one variable, %" PRIu64
              "-event budget)\n",
              event_budget.max_events);
  std::printf("    2x16   %6.1f ns/event over %" PRIu64 " events\n", shallow_ns,
              shallow_events);
  std::printf("    2x256  %6.1f ns/event over %" PRIu64
              " events  (%.2fx the 2x16 cost)\n\n",
              deep_ns, deep_events, deep_ns / shallow_ns);
  json.metric("depth_event_budget", event_budget.max_events);
  json.metric("depth_2x16_ns_per_event", shallow_ns);
  json.metric("depth_2x256_ns_per_event", deep_ns);
  json.metric("depth_cost_ratio", deep_ns / shallow_ns);

  // Floors (always reported; enforced in the smoke so tier-1 catches a
  // pruning or guidance regression).
  bool ok = true;
  if (!equal_verdicts) {
    std::fprintf(stderr, "FAIL: explorer verdict diverged from the exhaustive sweep\n");
    ok = false;
  }
  if (ratio < 10.0 || corpus_ratio < 10.0) {
    std::fprintf(stderr, "FAIL: reduction %.1fx (act7) / %.1fx (corpus) below the 10x floor\n",
                 ratio, corpus_ratio);
    ok = false;
  }
  if (!found_planted || !big.total_saturated) {
    std::fprintf(stderr, "FAIL: budgeted saturated-space run missed the planted race\n");
    ok = false;
  }
  if (perf_smoke && !ok) return 1;
  std::printf("floors: reduction >= 10x %s, verdict parity %s, saturated-space race %s\n",
              ratio >= 10.0 && corpus_ratio >= 10.0 ? "PASS" : "FAIL",
              equal_verdicts ? "PASS" : "FAIL", found_planted ? "PASS" : "FAIL");
  return 0;
}
