// race_detective — the lecture's buggy/fixed program pairs, run through
// the cs31::race happens-before detector.
//
// The CS 31 synchronization module teaches races by *showing* them:
// the shared counter that "usually returns less", the Game of Life
// that corrupts without its barrier, the fork-homework's "which outputs
// are possible?". Statistically observing a race is flaky (a fast or
// single-core machine can hide it for a whole demo); the detector makes
// the verdict deterministic — it follows from the happens-before
// structure, not the scheduler's mood. Each act below runs a buggy
// variant and its fix and prints the detector's reports.
//
// Usage: race_detective            (runs all eight acts)
#include <chrono>
#include <cstddef>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analyze/checks_script.hpp"
#include "life/life.hpp"
#include "life/traced.hpp"
#include "parallel/sync.hpp"
#include "parallel/threads.hpp"
#include "race/explore.hpp"
#include "race/lockset.hpp"
#include "race/replay.hpp"
#include "trace/context.hpp"
#include "trace/instrumented.hpp"
#include "trace/pipeline.hpp"

namespace {

void heading(const std::string& title) {
  std::cout << '\n' << std::string(66, '=') << '\n' << title << '\n'
            << std::string(66, '=') << '\n';
}

void act1_shared_counter() {
  using cs31::parallel::SharedCounter;
  heading("Act 1 — the shared counter (two threads, 1000 increments each)");

  std::cout << "\n[buggy] counter = counter + 1, no lock:\n";
  const auto buggy = SharedCounter::run_traced(SharedCounter::Mode::Unsynchronized, 2, 1000);
  std::cout << "  final count: " << buggy.value << " (exact would be 2000)\n"
            << buggy.report << '\n';

  std::cout << "\n[fixed] same loop with a mutex around the increment:\n";
  const auto fixed =
      SharedCounter::run_traced(SharedCounter::Mode::MutexPerIncrement, 2, 1000);
  std::cout << "  final count: " << fixed.value << '\n' << "  " << fixed.report << '\n';
}

void act2_game_of_life() {
  heading("Act 2 — parallel Game of Life (3 bands, 3 generations)");
  const cs31::life::Grid initial = cs31::life::Grid::random(12, 12, 0.3, 2022);

  std::cout << "\n[fixed] Lab 10 structure: compute, barrier, serial swap, barrier:\n";
  const auto good = cs31::life::traced_life_check(initial, 3, 3, /*use_barrier=*/true);
  std::cout << "  " << good.report() << '\n';

  std::cout << "\n[buggy] same run with the barriers deleted:\n";
  const auto bad = cs31::life::traced_life_check(initial, 3, 3, /*use_barrier=*/false);
  std::cout << "  " << bad.races.size() << " distinct races; the first:\n"
            << bad.races.front().to_string() << '\n';
}

void act3_replay() {
  using namespace cs31::race;
  heading("Act 3 — every schedule of the homework's two processes");

  const std::vector<std::vector<std::string>> unlocked = {
      {"read balance", "write balance"},
      {"read balance", "write balance"},
  };
  const auto racy = summarize(replay_all_interleavings(unlocked));
  std::cout << "\n[buggy] both threads: read balance; write balance (no lock)\n"
            << "  " << racy.racy << " of " << racy.schedules
            << " schedules expose a race — the \"possible outputs\" homework\n"
            << "  and race detection are the same question.\n";

  // Show one flagged schedule end to end.
  const auto results = replay_all_interleavings(unlocked);
  for (const auto& r : results) {
    if (r.race_free()) continue;
    std::cout << "  one racy schedule:\n";
    for (const auto& op : r.schedule) std::cout << "    " << op << '\n';
    std::cout << r.races.front().to_string() << '\n';
    break;
  }

  const std::vector<std::vector<std::string>> locked = {
      {"lock m", "read balance", "write balance", "unlock m"},
      {"lock m", "read balance", "write balance", "unlock m"},
  };
  const auto clean = summarize(replay_all_interleavings(locked));
  std::cout << "\n[fixed] with lock m around each section:\n"
            << "  " << clean.clean() << " of " << clean.schedules
            << " schedules are race-free — exactly the two the mutex permits\n"
            << "  (the other " << clean.racy
            << " interleave inside the critical sections, which a real\n"
            << "  mutex forbids: the enumerator over-approximates, and the\n"
            << "  detector shows why those schedules must be excluded).\n";
}

// Two detectives on the same evidence. Everything above used the
// happens-before detector; Eraser's lockset algorithm is the other
// classic, and the TraceContext lets both consume the identical
// real-thread event stream. Where the program's discipline is "one lock
// per shared variable" they agree; where the discipline is a barrier,
// lockset cries wolf — it has no notion of ordering, only of locks —
// and happens-before correctly stays quiet. That false positive *is*
// the lecture point: the two algorithms check different invariants.
void act4_two_detectives() {
  using cs31::parallel::ThreadTeam;
  using cs31::race::LocksetDetector;
  using cs31::trace::TraceContext;
  using cs31::trace::TracedMutex;
  using cs31::trace::TracedVar;
  heading("Act 4 — two detectives on real threads: happens-before vs lockset");

  const auto verdicts = [](const TraceContext& ctx, const LocksetDetector& lockset) {
    std::cout << "    happens-before: "
              << (ctx.detector().race_free()
                      ? "race-free"
                      : std::to_string(ctx.detector().races().size()) + " race(s)")
              << "\n    lockset:        "
              << (lockset.race_free()
                      ? "race-free"
                      : std::to_string(lockset.races().size()) + " report(s)")
              << '\n';
  };

  std::cout << "\n[agree: buggy] 2 real threads, counter = counter + 1, no lock:\n";
  {
    TraceContext ctx;
    LocksetDetector lockset;
    ctx.attach_sink(lockset);
    TracedVar<int> counter("counter", ctx);
    ThreadTeam team(2, ctx, [&](std::size_t) {
      for (int i = 0; i < 50; ++i) counter.store(counter.load() + 1);
    });
    team.join();
    ctx.flush();
    verdicts(ctx, lockset);
  }

  std::cout << "\n[agree: fixed] same loop with a mutex around the increment:\n";
  {
    TraceContext ctx;
    LocksetDetector lockset;
    ctx.attach_sink(lockset);
    TracedVar<int> counter("counter", ctx);
    TracedMutex mutex("counter_lock", ctx);
    ThreadTeam team(2, ctx, [&](std::size_t) {
      for (int i = 0; i < 50; ++i) {
        std::scoped_lock hold(mutex);
        counter.store(counter.load() + 1);
      }
    });
    team.join();
    ctx.flush();
    verdicts(ctx, lockset);
  }

  std::cout << "\n[disagree] barrier-synchronized Life, 3 real threads, 2 rounds:\n";
  {
    TraceContext ctx;
    LocksetDetector lockset;
    ctx.attach_sink(lockset);
    cs31::life::ParallelLife life(cs31::life::Grid::random(12, 12, 0.3, 2022), 3);
    life.run(2, {.ctx = &ctx});
    ctx.flush();
    verdicts(ctx, lockset);
    std::cout << "  lockset's first report (a FALSE positive — the barrier is the\n"
                 "  synchronization, but Eraser only understands locks):\n"
              << lockset.races().front().to_string() << '\n';
  }
}

// The detective's back office. Acts 1-4 ran analysis *inline*: the
// draining thread replayed every event through the detector while the
// workers waited. Act 5 moves the detective off the critical path — the
// drain publishes batches to a bounded queue, a router broadcasts sync
// events and shards accesses by variable, and N workers analyze private
// slices of FastTrack shadow state. Partitioning the work is the
// McKenney lesson; the punchline is that the verdict is byte-identical
// to the inline one, whatever the shard count.
void act5_pipelined_analysis() {
  using cs31::life::TracedLifeOptions;
  using cs31::trace::AnalysisPipeline;
  heading("Act 5 — the off-critical-path detective (sharded pipeline)");
  const cs31::life::Grid initial = cs31::life::Grid::random(12, 12, 0.3, 2022);

  const auto inline_verdict = cs31::life::traced_life_check(initial, 3, 3, false);
  std::cout << "\n[inline]   barrier-less Life: " << inline_verdict.races.size()
            << " distinct races over " << inline_verdict.events << " events\n";

  for (const std::size_t shards : {1, 2, 4}) {
    AnalysisPipeline pipeline(
        AnalysisPipeline::Options{.shards = shards, .queue_capacity = 4});
    TracedLifeOptions options;
    options.use_barrier = false;
    options.pipeline = &pipeline;
    const auto piped = cs31::life::traced_life_check(initial, 3, 3, options);
    std::cout << "[" << shards << " shard" << (shards == 1 ? "] " : "s]")
              << " same run, analyzed off-thread: " << piped.races.size()
              << " races, report " << (piped.report() == inline_verdict.report()
                                           ? "byte-identical to inline"
                                           : "DIFFERS (bug!)")
              << '\n';
  }
  std::cout << "  the shards never share mutable state: sync events broadcast so\n"
               "  every shard holds the same happens-before clocks; each variable's\n"
               "  shadow state lives on exactly one shard; the merge re-sorts\n"
               "  reports into inline detection order.\n";
}

// Act 6 turns the detective on itself. Recording an event must not
// reorder the program being watched — but the original capture design
// pushed every sync event through ONE mutex-ordered stream, so four
// threads that never share a lock still queued up behind the recorder.
// The lock-free design records each sync into its thread's own buffer,
// stamped from an atomic counter while the traced primitive is held; a
// drain-time merge rebuilds the exact total order. Same verdict bytes,
// no recorder-induced serialization — measured here, live.
void act6_lockfree_capture() {
  using cs31::trace::CaptureMode;
  using cs31::trace::TraceContext;
  heading("Act 6 — the detective's own lock: mutex-stream vs lock-free capture");
  constexpr std::size_t kThreads = 4;
  constexpr int kIters = 20000;

  std::cout << "\n" << kThreads << " threads, each locking its OWN mutex " << kIters
            << " times — zero real contention,\nso any serialization is the recorder's "
               "fault:\n\n";

  std::string summaries[2];
  for (const CaptureMode mode : {CaptureMode::mutex_stream, CaptureMode::lockfree}) {
    const auto start = std::chrono::steady_clock::now();
    TraceContext ctx(TraceContext::Options{.capture = mode});
    std::vector<std::unique_ptr<cs31::trace::TracedMutex>> mutexes;
    for (std::size_t t = 0; t < kThreads; ++t) {
      std::string name = "m";
      name += std::to_string(t);
      mutexes.push_back(std::make_unique<cs31::trace::TracedMutex>(name, ctx));
    }
    cs31::parallel::ThreadTeam team(kThreads, ctx, [&](std::size_t who) {
      for (int i = 0; i < kIters; ++i) {
        mutexes[who]->lock();
        mutexes[who]->unlock();
      }
    });
    team.join();
    ctx.flush();
    const double ms =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() *
        1e3;
    const bool lockfree = mode == CaptureMode::lockfree;
    summaries[lockfree ? 1 : 0] = ctx.detector().summary();
    std::cout << (lockfree ? "[lock-free]    " : "[mutex-stream] ") << std::fixed
              << std::setprecision(1) << ms << " ms for "
              << ctx.events_captured() << " sync events"
              << (lockfree ? "  (per-thread buffers + atomic stamps)\n"
                           : "  (every sync through one global mutex)\n");
  }
  std::cout << "  verdicts "
            << (summaries[0] == summaries[1] ? "byte-identical" : "DIFFER (bug!)")
            << ": the merge reconstructs the mutex-stream's exact total order\n"
               "  from (stamp, per-object seq) pairs — the certificate cannot tell\n"
               "  the designs apart, only the threads' wall clock can.\n";
}

// Act 3 replayed every interleaving, which stops scaling almost
// immediately (2 threads x 10 ops each is already 184756 schedules).
// Act 7 is the escape hatch: swapping two adjacent INDEPENDENT ops
// cannot change the verdict, so the DPOR explorer replays one
// representative per equivalence class — same distinct races, a
// vanishing fraction of the schedules — and keeps an honest budget for
// spaces too big to ever finish.
void act7_explorer() {
  using namespace cs31::race;
  heading("Act 7 — exploring without enumerating (detector-guided DPOR)");

  // Two mostly-independent threads (a and b are thread-private) around
  // one under-synchronized shared z: C(14,7) = 3432 interleavings.
  const std::vector<std::vector<std::string>> scripts = {
      {"read a", "write a", "lock m", "write z", "unlock m", "read a", "write a"},
      {"read b", "write b", "read z", "write z", "read b", "write b", "write b"},
  };
  const auto exhaustive = summarize(replay_all_interleavings(scripts, 10000));
  const auto reduced = explore_races(scripts);
  std::cout << "\n[exhaustive] " << exhaustive.schedules << " schedules replayed, "
            << exhaustive.distinct << " distinct races\n"
            << "[explorer]   " << reduced.summary() << '\n'
            << "  same " << reduced.races.size() << " races, "
            << reduced.schedules_replayed << " of " << exhaustive.schedules
            << " schedules replayed: every skipped schedule only reorders\n"
            << "  independent ops, so it could not have changed the verdict.\n";

  // The space the exhaustive path can never touch: 4 threads x ~40 ops,
  // interleaving count past uint64. Budgeted + hinted, the explorer
  // confirms the planted race in the FIRST schedule it replays and
  // reports its coverage honestly instead of pretending.
  std::vector<std::vector<std::string>> monster(4);
  for (std::size_t t = 0; t < 4; ++t) {
    std::string private_op = "write p";
    private_op += std::to_string(t);
    for (int i = 0; i < 20; ++i) monster[t].push_back(private_op);
    monster[t].push_back("lock m0");
    monster[t].push_back("write guarded");
    monster[t].push_back("unlock m0");
    if (t < 2) monster[t].push_back("write shared_total");
    for (int i = 0; i < 20; ++i) monster[t].push_back(private_op);
  }
  ExploreOptions budget;
  budget.max_schedules = 25;
  RaceReport hint;  // "yesterday's report": re-confirm it cheaply today
  hint.variable = "shared_total";
  hint.first.where = "t0 write shared_total";
  hint.second.where = "t1 write shared_total";
  budget.hints.push_back(hint);
  const auto big = explore_races(monster, budget);
  std::cout << "\n[over the wall] 4 threads, 174 ops, hinted by a prior report:\n"
            << "  " << big.summary() << '\n'
            << "  the hint steered schedule 0 straight onto the known race;\n"
            << "  \"budget hit\" says the sweep is partial — no false confidence.\n";
}

// Act 4's lockset detective was DYNAMIC — Eraser watched one execution
// and checked which locks were held at each access. Act 8's detective
// never runs the program at all: analyze_scripts abstractly interprets
// the script text, computes the MUST-HOLD lockset at every access (plus
// barrier epochs and a wait-order graph), and predicts the races and
// deadlocks before a single schedule is replayed. Then the dynamic tier
// confirms each prediction — and the static facts (guarded variables,
// pure-guard mutexes) feed back to prune the exploration itself.
void act8_static_first() {
  using namespace cs31::race;
  heading("Act 8 — predict, then run: the static lockset detective");

  // The forgotten lock, again — but this time nothing executes.
  const std::vector<std::vector<std::string>> buggy = {
      {"lock m", "read counter", "write counter", "unlock m"},
      {"write counter"},
  };
  const auto prediction = cs31::analyze::analyze_scripts(buggy);
  std::cout << "\n[buggy] t1 forgets the lock; the analyzer reads the script, not a trace:\n";
  for (const auto& d : prediction.diagnostics) std::cout << "  " << d.to_string() << '\n';

  const auto confirmed =
      explore_races(buggy, cs31::analyze::seed_explore_options(prediction));
  bool all_predicted = true;
  for (const auto& race : confirmed.races) {
    all_predicted = all_predicted &&
                    prediction.covers_race(race.variable, race.first.where,
                                           race.second.where);
  }
  std::cout << "  dynamic confirmation: " << confirmed.races.size() << " race(s), "
            << (all_predicted ? "every one" : "NOT every one (bug!)")
            << " a static candidate — the subset\n"
               "  relation the tier-1 differential asserts over 1000 random scripts.\n";

  // The fix is visible statically too — and the proof is not wasted:
  // a consistently-guarded variable and a pure-guard mutex become
  // independence facts that shrink the DPOR tree.
  const std::vector<std::vector<std::string>> fixed = {
      {"lock m", "read counter", "write counter", "unlock m"},
      {"lock m", "write counter", "unlock m"},
  };
  const auto clean = cs31::analyze::analyze_scripts(fixed);
  std::cout << "\n[fixed] both accesses hold m. Static verdict: "
            << (clean.may_race() ? "candidates remain (bug!)" : "no race candidates")
            << ";\n  proven facts: ";
  for (const auto& [var, guard] : clean.guarded_vars) {
    std::cout << "'" << var << "' guarded by '" << guard << "'";
  }
  std::cout << (clean.independent_mutexes.empty() ? "" : "; pure-guard mutexes: ");
  for (const auto& m : clean.independent_mutexes) std::cout << "'" << m << "'";
  ExploreOptions plain;
  plain.model_blocking = true;
  const auto unpruned = explore_races(fixed, plain);
  const auto pruned = explore_races(fixed, cs31::analyze::seed_explore_options(clean));
  std::cout << "\n  exploration with those facts: " << pruned.schedules_replayed
            << " schedule(s) instead of " << unpruned.schedules_replayed
            << " — two critical\n"
               "  sections of a pure guard commute, so one acquisition order suffices —\n"
               "  and the verdict is still "
            << (pruned.races.empty() && unpruned.races.empty() ? "race-free"
                                                               : "DIFFERENT (bug!)")
            << " either way.\n";

  // Act 4's trap, revisited: Eraser flagged correct barrier code because
  // it only understands locks. The static pass tracks barrier EPOCHS
  // alongside locksets, so the ordering Eraser cannot see is right there
  // in the model.
  const std::vector<std::vector<std::string>> barriered = {
      {"write cell", "barrier"},
      {"barrier", "read cell"},
  };
  const auto quiet = cs31::analyze::analyze_scripts(barriered);
  std::cout << "\n[Act 4's trap] writer before the barrier, reader after it:\n"
            << "  dynamic lockset (Act 4): false positive — disjoint locksets, no idea\n"
               "  about ordering. Static analyzer: "
            << (quiet.may_race() ? "candidates (bug!)"
                                 : "no candidates — the accesses sit in\n"
                                   "  different barrier epochs, which order them in "
                                   "every schedule.")
            << '\n';

  // Deadlocks get the same treatment: the ABBA nest is a cycle in the
  // static lock-order graph, and the blocking-aware search reaches the
  // stuck state it predicts.
  const std::vector<std::vector<std::string>> abba = {
      {"lock a", "lock b", "unlock b", "unlock a"},
      {"lock b", "lock a", "unlock a", "unlock b"},
  };
  const auto cyclic = cs31::analyze::analyze_scripts(abba);
  std::cout << "\n[ABBA] opposite nesting orders on two mutexes:\n";
  for (const auto& d : cyclic.diagnostics) std::cout << "  " << d.to_string() << '\n';
  const auto stuck = find_deadlocks(abba);
  std::cout << "  dynamic confirmation: " << stuck.deadlocks.size()
            << " reachable stuck state(s); the witness schedule:\n";
  for (const auto& op : stuck.deadlocks.front().witness) std::cout << "    " << op << '\n';
  for (const auto& w : stuck.deadlocks.front().waiting) std::cout << "    [stuck] " << w << '\n';
}

}  // namespace

int main() {
  std::cout << "race_detective — vector-clock happens-before detection for CS 31\n";
  act1_shared_counter();
  act2_game_of_life();
  act3_replay();
  act4_two_detectives();
  act5_pipelined_analysis();
  act6_lockfree_capture();
  act7_explorer();
  act8_static_first();
  std::cout << "\nActs 1-3: the bug is a missing happens-before edge;\n"
               "the fix (lock, barrier, or channel) is that edge.\n"
               "Act 4: an algorithm that can't see that edge (Eraser's lockset)\n"
               "calls correct barrier code racy — check what invariant your\n"
               "detector actually checks.\n"
               "Acts 5-6: the detective must neither slow the program down nor\n"
               "reorder it — analysis moves off-thread, capture goes lock-free,\n"
               "and the verdict bytes never change.\n"
               "Act 7: don't enumerate the schedule space, explore it — one\n"
               "representative per equivalence class is the same evidence.\n"
               "Act 8: predict before you run — the static locksets that flag the\n"
               "bug are the same facts that prune the dynamic search, and every\n"
               "dynamic finding arrives pre-explained by a static candidate.\n";
  return 0;
}
