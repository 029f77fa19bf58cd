// cs31::race tests: vector-clock algebra, the FastTrack-style detector
// over hand-fed event streams (fork/join, locks, barriers, channels),
// the shadow instrumentation layer on real threads (traced counter,
// traced Barrier/BoundedBuffer), the traced Game of Life certificates,
// and the replay mode over os::all_interleavings schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "life/traced.hpp"
#include "os/interleave.hpp"
#include "parallel/sync.hpp"
#include "parallel/threads.hpp"
#include "race/detector.hpp"
#include "race/explore.hpp"
#include "race/reference.hpp"
#include "race/replay.hpp"
#include "race/vector_clock.hpp"
#include "trace/context.hpp"
#include "trace/instrumented.hpp"
#include "trace/pipeline.hpp"

namespace cs31::race {
namespace {

// The instrumentation layer moved into cs31::trace (the TraceContext
// refactor); these tests exercise it through the same names as before.
using trace::TraceContext;
using trace::TracedMutex;
using trace::TracedVar;

TEST(VectorClock, JoinTickCompare) {
  VectorClock a, b;
  a.tick(0);  // a = <1>
  b.tick(1);  // b = <0, 1>
  EXPECT_TRUE(concurrent(a, b)) << "independent events on different threads";

  VectorClock c = a;
  c.join(b);  // c = <1, 1>
  EXPECT_TRUE(happens_before(a, c));
  EXPECT_TRUE(happens_before(b, c));
  EXPECT_FALSE(happens_before(c, a));
  EXPECT_FALSE(concurrent(a, c));

  EXPECT_EQ(c.get(0), 1u);
  EXPECT_EQ(c.get(7), 0u) << "untouched components read as 0";
  EXPECT_TRUE(c.contains(Epoch{1, 1}));
  EXPECT_FALSE(c.contains(Epoch{1, 2}));
  EXPECT_EQ(c.to_string(), "<1, 1>");
}

TEST(VectorClock, HappensBeforeIsStrict) {
  VectorClock a;
  a.tick(0);
  VectorClock b = a;
  EXPECT_FALSE(happens_before(a, b)) << "equal clocks are not strictly ordered";
  EXPECT_TRUE(a.leq(b));
  b.tick(0);
  EXPECT_TRUE(happens_before(a, b));
}

// ---- property tests over random clocks -------------------------------
// A tiny deterministic PRNG (xorshift) so a failure is reproducible
// from the fixed seed; clocks draw components over a handful of threads
// with small values so equal/comparable/incomparable cases all occur.

struct TinyRng {
  std::uint64_t state;
  std::uint32_t next(std::uint32_t bound) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<std::uint32_t>(state % bound);
  }
};

VectorClock random_clock(TinyRng& rng) {
  VectorClock vc;
  const std::uint32_t threads = 1 + rng.next(4);
  for (ThreadId t = 0; t < threads; ++t) vc.set(t, rng.next(4));
  return vc;
}

VectorClock joined(const VectorClock& a, const VectorClock& b) {
  VectorClock out = a;
  out.join(b);
  return out;
}

TEST(VectorClockProperty, JoinIsACommutativeIdempotentMonoid) {
  TinyRng rng{2024};
  for (int i = 0; i < 500; ++i) {
    const VectorClock a = random_clock(rng);
    const VectorClock b = random_clock(rng);
    const VectorClock c = random_clock(rng);
    EXPECT_EQ(joined(a, b), joined(b, a)) << "join is commutative";
    EXPECT_EQ(joined(joined(a, b), c), joined(a, joined(b, c))) << "join is associative";
    EXPECT_EQ(joined(a, a), a) << "join is idempotent";
    EXPECT_EQ(joined(a, VectorClock{}), a) << "the empty clock is the identity";
    EXPECT_TRUE(a.leq(joined(a, b))) << "join is an upper bound";
    EXPECT_TRUE(b.leq(joined(a, b))) << "join is an upper bound";
  }
}

TEST(VectorClockProperty, HappensBeforeIsAStrictPartialOrder) {
  TinyRng rng{4044};
  for (int i = 0; i < 500; ++i) {
    const VectorClock a = random_clock(rng);
    const VectorClock b = random_clock(rng);
    const VectorClock c = random_clock(rng);
    EXPECT_FALSE(happens_before(a, a)) << "irreflexive";
    EXPECT_FALSE(happens_before(a, b) && happens_before(b, a)) << "asymmetric";
    if (happens_before(a, b) && happens_before(b, c)) {
      EXPECT_TRUE(happens_before(a, c)) << "transitive";
    }
    // Exactly one of: a -> b, b -> a, a == b, a || b.
    const int cases = int(happens_before(a, b)) + int(happens_before(b, a)) +
                      int(a == b) + int(concurrent(a, b));
    EXPECT_EQ(cases, 1) << a.to_string() << " vs " << b.to_string();
    // Chains built by join + tick are always ordered.
    VectorClock later = joined(a, b);
    later.tick(0);
    EXPECT_TRUE(happens_before(a, later));
  }
}

TEST(VectorClockProperty, EpochChecksAgreeWithFullClockChecks) {
  // The FastTrack hot path replaces "write clock leq my clock" with
  // "my clock contains the write epoch". Those agree exactly when the
  // epoch is viewed as a one-component clock — the algebra that makes
  // O(1) shadow state sound.
  TinyRng rng{777};
  for (int i = 0; i < 1000; ++i) {
    const VectorClock vc = random_clock(rng);
    const Epoch e{static_cast<ThreadId>(rng.next(5)), rng.next(5)};
    EXPECT_EQ(vc.contains(e), to_clock(e).leq(vc))
        << vc.to_string() << " vs epoch " << to_string(e);
    EXPECT_EQ(e.valid(), e.clock != 0);
  }
  EXPECT_EQ(to_string(Epoch{3, 7}), "7@3");
  EXPECT_EQ(to_clock(Epoch{2, 5}).get(2), 5u);
  EXPECT_EQ(to_clock(Epoch{2, 5}).get(0), 0u);
}

TEST(Detector, ForkAndJoinOrderAccesses) {
  Detector d;
  const ThreadId child = d.fork(0);
  d.write(0, "x", "parent init before fork");
  // Oops — the write came *after* the fork edge was taken, so the child
  // racing it is real: the parent's post-fork write is concurrent with
  // the child. (Write first, then fork, and it would be clean — see
  // below.)
  d.read(child, "x", "child read");
  EXPECT_FALSE(d.race_free());

  Detector d2;
  d2.write(0, "x", "parent init");
  const ThreadId c2 = d2.fork(0);
  d2.read(c2, "x", "child read");
  EXPECT_TRUE(d2.race_free()) << "fork edge orders parent's earlier write";
  d2.write(c2, "x", "child update");
  d2.join(0, c2);
  d2.read(0, "x", "parent read after join");
  EXPECT_TRUE(d2.race_free()) << "join edge orders the child's write";
}

TEST(Detector, LockReleaseAcquireMakesHappensBefore) {
  Detector d;
  const ThreadId t1 = d.register_thread();
  d.acquire(0, "m");
  d.write(0, "x", "locked write");
  d.release(0, "m");
  d.acquire(t1, "m");
  d.read(t1, "x", "locked read");
  d.release(t1, "m");
  EXPECT_TRUE(d.race_free()) << "release->acquire is an HB edge";

  // The same accesses without the lock race.
  Detector d2;
  const ThreadId u = d2.register_thread();
  d2.write(0, "x", "unlocked write");
  d2.read(u, "x", "unlocked read");
  ASSERT_FALSE(d2.race_free());
  EXPECT_EQ(d2.races()[0].variable, "x");
}

TEST(Detector, TwoThreadUnsyncCounterAlwaysFlagged) {
  // The lecture's shared-counter race, as an explicit event stream: two
  // concurrent root threads each do read x; write x. Detection is a
  // property of the happens-before structure, so ANY serialization of
  // these events is flagged — no timing, no luck.
  Detector d;
  const ThreadId t1 = d.register_thread();
  d.read(0, "counter", "counter = counter + 1 @ thread 0");
  d.write(0, "counter", "counter = counter + 1 @ thread 0");
  d.read(t1, "counter", "counter = counter + 1 @ thread 1");
  d.write(t1, "counter", "counter = counter + 1 @ thread 1");

  ASSERT_FALSE(d.race_free());
  const RaceReport& r = d.races()[0];
  EXPECT_EQ(r.variable, "counter");
  // Both access sites are reported, from the two different threads.
  EXPECT_NE(r.first.thread, r.second.thread);
  EXPECT_FALSE(r.first.where.empty());
  EXPECT_FALSE(r.second.where.empty());
  EXPECT_TRUE(r.first.locks_held.empty());
  EXPECT_TRUE(r.second.locks_held.empty());
  EXPECT_NE(r.explanation.find("no lock in common"), std::string::npos);
}

TEST(Detector, BarrierCycleOrdersAllWaiters) {
  Detector d;
  const ThreadId t1 = d.register_thread();
  const ThreadId t2 = d.register_thread();
  d.write(0, "a", "phase 1");
  d.write(t1, "b", "phase 1");
  d.barrier({0, t1, t2});
  // After the cycle every waiter may read every other waiter's work.
  d.read(t2, "a", "phase 2");
  d.read(t1, "a", "phase 2");
  d.read(0, "b", "phase 2");
  EXPECT_TRUE(d.race_free());
  EXPECT_THROW(d.barrier({}), Error);
}

TEST(Detector, ChannelSendRecvOrders) {
  Detector d;
  const ThreadId consumer = d.register_thread();
  d.write(0, "payload", "producer fills");
  d.channel_send(0, "q");
  d.channel_recv(consumer, "q");
  d.read(consumer, "payload", "consumer uses");
  EXPECT_TRUE(d.race_free());
}

TEST(Detector, ReadSharingThenRacyWrite) {
  // Many concurrent readers are fine; a concurrent writer races them.
  Detector d;
  const ThreadId t1 = d.register_thread();
  const ThreadId t2 = d.register_thread();
  d.read(0, "x", "reader 0");
  d.read(t1, "x", "reader 1");
  EXPECT_TRUE(d.race_free()) << "read-read never conflicts";
  d.write(t2, "x", "writer");
  ASSERT_FALSE(d.race_free());
  // Both readers race the write: distinct (var, pair) reports.
  EXPECT_EQ(d.races().size(), 2u);
  EXPECT_EQ(d.races()[0].second.kind, AccessKind::Write);
}

TEST(Detector, OneReportPerVariableAndPair) {
  Detector d;
  const ThreadId t1 = d.register_thread();
  for (int i = 0; i < 10; ++i) {
    d.write(0, "x", "hammer 0");
    d.write(t1, "x", "hammer 1");
  }
  EXPECT_EQ(d.races().size(), 1u) << "deduped per (variable, site pair)";
  EXPECT_GT(d.race_count(), 1u) << "but every racy access is counted";
}

TEST(Detector, DistinctSitePairsOfTheSameThreadsAreSeparateReports) {
  // Dedup is per (variable, site pair), not per thread pair: the same
  // two threads racing on x from two different places in the code are
  // two different bugs, and both show up.
  Detector d;
  const ThreadId t1 = d.register_thread();
  d.write(0, "x", "init in main");
  d.write(t1, "x", "worker loop");  // race #1: init vs worker loop
  d.write(0, "x", "teardown in main");
  d.write(t1, "x", "worker loop");  // race #2: teardown vs worker loop
  ASSERT_EQ(d.races().size(), 2u);
  std::set<RacePairKey> keys;
  for (const RaceReport& r : d.races()) {
    keys.insert(race_pair_key(r.variable, r.first, r.second));
  }
  EXPECT_EQ(keys.size(), 2u) << "distinct (variable, site pair) keys";
  // Repeating the same pair adds nothing.
  d.write(0, "x", "teardown in main");
  d.write(t1, "x", "worker loop");
  EXPECT_EQ(d.races().size(), 2u);
}

TEST(Detector, SeparatorsInSiteLabelsCannotMergeTwoRaces) {
  // Site labels are free-form text (script operands are arbitrary
  // tokens), so the dedup key must compare (thread, label) endpoints
  // field by field. A key that joined them as "var|tid@where|tid@where"
  // gave {t1 "p|2@q", t3 "r"} and {t1 "p", t2 "q|3@r"} the same string
  // and swallowed the second race.
  Detector fast;
  ReferenceDetector reference;
  for (EventSink* sink :
       {static_cast<EventSink*>(&fast), static_cast<EventSink*>(&reference)}) {
    const ThreadId t1 = sink->fork(0);
    const ThreadId t2 = sink->fork(0);
    const ThreadId t3 = sink->fork(0);
    sink->write(t1, "v", "p|2@q");
    sink->write(t3, "v", "r");      // race: t1 "p|2@q" vs t3 "r"
    sink->write(t1, "v", "p");      // race: t3 "r" vs t1 "p"
    sink->write(t2, "v", "q|3@r");  // race: t1 "p" vs t2 "q|3@r"
    EXPECT_EQ(sink->race_count(), 3u);
    ASSERT_EQ(sink->races().size(), 3u) << "three distinct site pairs, three reports";
    EXPECT_EQ(sink->races()[2].first.where, "p");
    EXPECT_EQ(sink->races()[2].second.where, "q|3@r");
  }
  const auto site = [](ThreadId thread, const std::string& where) {
    AccessSite s;
    s.thread = thread;
    s.where = where;
    return s;
  };
  const AccessSite a = site(1, "p|2@q"), b = site(3, "r");
  const AccessSite c = site(1, "p"), d = site(2, "q|3@r");
  EXPECT_NE(race_pair_key("v", a, b), race_pair_key("v", c, d));
  EXPECT_EQ(race_pair_key("v", a, b), race_pair_key("v", b, a)) << "the pair is unordered";
}

TEST(Detector, ReleaseOfUnheldLockThrows) {
  Detector d;
  EXPECT_THROW(d.release(0, "m"), Error);
  EXPECT_THROW(d.read(99, "x"), Error) << "unknown thread id";
}

/// The message `call` throws as cs31::Error, or "" when it does not.
template <typename Call>
std::string error_text(Call call) {
  try {
    call();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Detector, SharedTablesStillRejectIdsNeverInterned) {
  // A detector over shared tables grows a per-id table to every id
  // interned so far in one step; an id past them is still an error,
  // worded as it always was.
  const auto names = std::make_shared<NameTables>();
  (void)names->intern(NameKind::Var, "a");
  (void)names->reserve(NameKind::Var, 4, [](std::size_t i) { return "v" + std::to_string(i); });
  const NameId site = names->intern(NameKind::Site, "");
  Detector d(names);
  d.write(0, NameId{4}, site);  // the last reserved id is known
  d.read(0, NameId{0}, site);
  EXPECT_EQ(error_text([&] { d.read(0, NameId{5}, site); }), "unknown variable id 5");
  EXPECT_EQ(error_text([&] { d.acquire(0, NameId{0}); }), "unknown lock id 0");
  EXPECT_EQ(error_text([&] { d.channel_send(0, NameId{7}); }), "unknown channel id 7");
  EXPECT_EQ(d.events(), 2u) << "a rejected access is not counted";
  EXPECT_TRUE(d.race_free());
}

// ---- reserved name blocks ---------------------------------------------

TEST(ReservedNames, NamesAreFormattedOnFirstReadAndStayPut) {
  Interner names;
  std::size_t formatted = 0;
  const NameId base = names.reserve(6, [&formatted](std::size_t i) {
    ++formatted;
    return "cell number " + std::to_string(i) + " of a long-named block";
  });
  EXPECT_EQ(base, 0u);
  EXPECT_EQ(names.size(), 6u) << "size counts the whole block";
  EXPECT_EQ(formatted, 0u) << "reserving formats nothing";

  const std::string& four = names.name(4);
  EXPECT_EQ(four, "cell number 4 of a long-named block");
  EXPECT_EQ(formatted, 1u);
  for (NameId id = 0; id < 6; ++id) (void)names.name(id);
  EXPECT_EQ(formatted, 6u) << "each name is formatted once";
  EXPECT_EQ(&names.name(4), &four) << "the reference stays valid as others are formatted";
  (void)names.id("a later name");
  EXPECT_EQ(&names.name(4), &four);
  EXPECT_EQ(formatted, 6u) << "indexing reuses the names already formatted";
  EXPECT_EQ(error_text([&] { (void)names.name(7); }), "interner: unknown name id 7");
}

TEST(ReservedNames, BytesCountOnlyFormattedNames) {
  const auto format = [](std::size_t i) {
    return "a variable name past the small-string buffer #" + std::to_string(i);
  };
  Interner eager;
  for (std::size_t i = 0; i < 1000; ++i) (void)eager.id(format(i));
  Interner lazy;
  (void)lazy.reserve(1000, format);
  EXPECT_EQ(lazy.size(), eager.size());
  const std::size_t unread = lazy.bytes();
  EXPECT_LT(unread, eager.bytes() / 10) << "unread names cost nothing";
  (void)lazy.name(3);
  const std::size_t one = lazy.bytes();
  EXPECT_GT(one, unread) << "a formatted name counts";
  (void)lazy.name(3);
  EXPECT_EQ(lazy.bytes(), one) << "reading it again formats nothing";
  (void)lazy.name(4);
  EXPECT_GT(lazy.bytes(), one);
}

TEST(ReservedNames, StringLookupFindsTheBlockId) {
  trace::TraceContext ctx;
  const NameId base = life::reserve_cell_names(ctx, 4, 5);
  EXPECT_EQ(base, 0u);
  EXPECT_EQ(ctx.intern_var("cur[3,4]"), base + 2 * (3 * 5 + 4));
  EXPECT_EQ(ctx.intern_var("next[0,1]"), base + 2 * (0 * 5 + 1) + 1);
  EXPECT_EQ(ctx.intern_var("x"), 40u) << "a new name takes the id after the block";
  EXPECT_EQ(ctx.detector().names()->name(NameKind::Var, 40), "x");
  EXPECT_EQ(ctx.detector().names()->size(NameKind::Var), 41u);
  EXPECT_EQ(life::reserve_cell_names(ctx, 4, 5), base)
      << "reserving names already interned, in order, returns their ids";
  EXPECT_EQ(ctx.detector().names()->size(NameKind::Var), 41u);

  Interner names;
  (void)names.id("taken");
  EXPECT_EQ(names.reserve(2, [](std::size_t i) { return "r" + std::to_string(i); }), 1u)
      << "on a non-empty table the block is interned at once, still consecutive";
  EXPECT_EQ(error_text([&] {
              (void)names.reserve(2, [](std::size_t i) { return i == 0 ? "new" : "taken"; });
            }),
            "interner: reserved name 'taken' overlaps the names already interned");
}

TEST(ReservedNames, PipelinedLifeCheckMatchesInlineReport) {
  // The context and the pipeline's shards share one name table, so the
  // lazily named block is formatted only where a report reads it; the
  // report must match the inline one byte for byte. The inline check
  // feeds its detector directly and the pipelined one goes through a
  // TraceContext, so this also holds the two feeds to one event stream,
  // over TracedLife.ReportsPinnedByDigest's matrix and zero rounds.
  const std::vector<life::Grid> grids = {life::Grid::random(10, 9, 0.35, 31),
                                         life::Grid::random(8, 12, 0.3, 48611)};
  std::size_t runs = 0;
  for (const life::Grid& grid : grids) {
    for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
      for (const bool use_barrier : {true, false}) {
        for (const life::EdgeRule rule : {life::EdgeRule::Torus, life::EdgeRule::Bounded}) {
          for (const std::size_t rounds : {3u, 0u}) {
            const auto inline_run =
                life::traced_life_check(grid, threads, rounds, use_barrier, rule);
            const auto pipeline = std::make_unique<trace::AnalysisPipeline>(
                trace::AnalysisPipeline::Options{.shards = 2});
            life::TracedLifeOptions options;
            options.use_barrier = use_barrier;
            options.rule = rule;
            options.pipeline = pipeline.get();
            const auto piped = life::traced_life_check(grid, threads, rounds, options);
            const std::string where = std::to_string(threads) + " threads, barrier " +
                                      std::to_string(use_barrier) + ", rule " +
                                      std::to_string(static_cast<int>(rule)) + ", " +
                                      std::to_string(rounds) + " rounds";
            EXPECT_EQ(piped.report(), inline_run.report()) << where;
            EXPECT_EQ(piped.events, inline_run.events) << where;
            EXPECT_EQ(piped.race_count, inline_run.race_count) << where;
            EXPECT_EQ(piped.threads, inline_run.threads) << where;
            EXPECT_EQ(piped.grid, inline_run.grid) << where;
            ++runs;
          }
        }
      }
    }
  }
  EXPECT_EQ(runs, 80u);
}

TEST(SharedCounterTraced, UnsynchronizedDeterministicallyFlagged) {
  // The acceptance-criterion test: a two-thread unsynchronized counter
  // is flagged on every run, with both access sites in the report —
  // unlike the statistical lost-update demo, there is no timing
  // dependence: the verdict follows from the absent HB edges.
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto run = parallel::SharedCounter::run_traced(
        parallel::SharedCounter::Mode::Unsynchronized, 2, 100);
    EXPECT_TRUE(run.race_detected);
    ASSERT_FALSE(run.races.empty());
    const RaceReport& r = run.races[0];
    EXPECT_EQ(r.variable, "counter");
    EXPECT_NE(r.first.thread, r.second.thread);
    EXPECT_NE(r.first.where.find("no lock"), std::string::npos);
    EXPECT_NE(r.second.where.find("no lock"), std::string::npos);
    EXPECT_LE(run.value, 200u) << "lost updates only, never invented ones";
  }
}

TEST(SharedCounterTraced, SynchronizedModesCertifiedRaceFreeAndExact) {
  using parallel::SharedCounter;
  for (const auto mode : {SharedCounter::Mode::MutexPerIncrement, SharedCounter::Mode::Atomic,
                          SharedCounter::Mode::LocalThenMerge}) {
    const auto run = SharedCounter::run_traced(mode, 4, 200);
    EXPECT_FALSE(run.race_detected) << run.report;
    EXPECT_EQ(run.value, 4u * 200u) << "a correct mode is exact";
    EXPECT_NE(run.report.find("race-free"), std::string::npos);
  }
}

TEST(TracedPrimitives, MutexProtectedSharingIsClean) {
  TraceContext ctx;
  TracedMutex m("m", ctx);
  TracedVar<int> shared("shared", ctx, 0);
  parallel::ThreadTeam team(4, ctx, [&](std::size_t) {
    for (int i = 0; i < 50; ++i) {
      std::scoped_lock lock(m);
      shared.store(shared.load() + 1);
    }
  });
  team.join();
  EXPECT_TRUE(ctx.detector().race_free());
  EXPECT_EQ(shared.load(), 200);
  EXPECT_GE(ctx.detector().threads(), 5u) << "main + 4 workers";
}

TEST(TracedPrimitives, LocksHeldAppearInTheReport) {
  // One side locks, the other does not: still a race, and the report's
  // lockset view shows the asymmetry (the pedagogical "your lock only
  // helps if EVERY access path takes it").
  TraceContext ctx;
  TracedMutex m("half_lock", ctx);
  TracedVar<int> shared("shared", ctx, 0);
  parallel::ThreadTeam team(2, ctx, [&](std::size_t id) {
    if (id == 0) {
      std::scoped_lock lock(m);
      shared.store(shared.load() + 1, "locked increment");
    } else {
      shared.store(shared.load() + 1, "unlocked increment");
    }
  });
  team.join();
  ASSERT_FALSE(ctx.detector().race_free());
  const RaceReport& r = ctx.detector().races()[0];
  const bool first_locked = !r.first.locks_held.empty();
  const bool second_locked = !r.second.locks_held.empty();
  EXPECT_NE(first_locked, second_locked) << "exactly one side holds half_lock";
  const auto& held = first_locked ? r.first.locks_held : r.second.locks_held;
  EXPECT_EQ(held, std::vector<std::string>{"half_lock"});
}

TEST(TracedPrimitives, UnboundThreadThrows) {
  TraceContext ctx;
  std::thread outsider([&] {
    EXPECT_THROW(ctx.read(ctx.intern_var("x")), Error);
  });
  outsider.join();
}

TEST(TracedBarrier, BarrierCyclesMakeRoundsRaceFree) {
  // Round-structured sharing: each thread writes its slot, the barrier
  // closes the round, then everyone reads every slot. Race-free only
  // because Barrier::attach_tracer turns each cycle into an HB edge.
  constexpr std::size_t kThreads = 4;
  TraceContext ctx;
  parallel::Barrier barrier(kThreads);
  barrier.attach_tracer(ctx);
  std::vector<TracedVar<int>*> slots;
  std::vector<std::unique_ptr<TracedVar<int>>> storage;
  for (std::size_t t = 0; t < kThreads; ++t) {
    storage.push_back(std::make_unique<TracedVar<int>>("slot" + std::to_string(t), ctx, 0));
    slots.push_back(storage.back().get());
  }
  parallel::ThreadTeam team(kThreads, ctx, [&](std::size_t id) {
    for (int round = 0; round < 3; ++round) {
      slots[id]->store(round, "fill my slot");
      barrier.wait();
      int sum = 0;
      for (std::size_t t = 0; t < kThreads; ++t) sum += slots[t]->load("read all slots");
      EXPECT_EQ(sum, static_cast<int>(kThreads) * round);
      barrier.wait();  // separate the read phase from the next round's writes
    }
  });
  team.join();
  EXPECT_TRUE(ctx.detector().race_free()) << ctx.detector().summary();
  EXPECT_EQ(barrier.cycles(), 6u);
}

TEST(TracedBoundedBuffer, ProducerConsumerHandoffIsClean) {
  // Ownership handoff through the queue: the producer fills item_i and
  // never touches it again; the consumer reads item_i only after
  // get()ing its index. The put/get channel edges order every fill
  // before the matching read.
  constexpr int kItems = 8;
  TraceContext ctx;
  parallel::BoundedBuffer buffer(2);
  buffer.attach_tracer(ctx, "queue");
  std::vector<std::unique_ptr<TracedVar<int>>> items;
  for (int i = 0; i < kItems; ++i) {
    items.push_back(std::make_unique<TracedVar<int>>("item" + std::to_string(i), ctx, 0));
  }
  parallel::ThreadTeam team(2, ctx, [&](std::size_t id) {
    if (id == 0) {
      for (int i = 0; i < kItems; ++i) {
        items[i]->store(i * 10, "producer fills");
        buffer.put(i);
      }
    } else {
      for (int i = 0; i < kItems; ++i) {
        const auto item = static_cast<std::size_t>(buffer.get());
        EXPECT_EQ(items[item]->load("consumer reads"), static_cast<int>(item) * 10);
      }
    }
  });
  team.join();
  EXPECT_TRUE(ctx.detector().race_free()) << ctx.detector().summary();

  TraceContext ctx2;
  parallel::BoundedBuffer silent(2);  // no tracer: the handoff edge is invisible
  TracedVar<int> payload2("payload", ctx2, 0);
  parallel::ThreadTeam team2(2, ctx2, [&](std::size_t id) {
    if (id == 0) {
      payload2.store(1, "producer prepares");
      silent.put(1);
    } else {
      (void)silent.get();
      (void)payload2.load("consumer inspects");
    }
  });
  team2.join();
  EXPECT_FALSE(ctx2.detector().race_free())
      << "without the channel edge the handoff cannot be proven ordered";
}

TEST(TracedLife, BarrierSynchronizedStepCertifiedRaceFree) {
  // Acceptance criterion: the Lab 10 structure (compute, barrier, serial
  // swap, barrier) is certified race-free, and the traced run really
  // computes the same generations as the serial engine.
  life::Grid initial = life::Grid::random(12, 12, 0.35, 31);
  const auto traced = life::traced_life_check(initial, 3, 4, /*use_barrier=*/true);
  EXPECT_TRUE(traced.race_free) << traced.report();
  EXPECT_TRUE(traced.races.empty());
  EXPECT_GT(traced.events, 0u);

  life::SerialLife serial(initial);
  serial.run(4);
  EXPECT_EQ(traced.grid, serial.grid()) << "tracing does not change the simulation";
}

TEST(TracedLife, BarrierRemovedVariantIsFlagged) {
  life::Grid initial = life::Grid::random(12, 12, 0.35, 31);
  const auto traced = life::traced_life_check(initial, 3, 2, /*use_barrier=*/false);
  EXPECT_FALSE(traced.race_free);
  ASSERT_FALSE(traced.races.empty());
  // The characteristic bug: the serial thread's swap races a band
  // thread's access to the grid.
  const auto swap_race = std::find_if(
      traced.races.begin(), traced.races.end(), [](const RaceReport& r) {
        return r.second.where.find("swap grids") != std::string::npos ||
               r.first.where.find("swap grids") != std::string::npos;
      });
  ASSERT_NE(swap_race, traced.races.end());
  EXPECT_NE(swap_race->first.thread, swap_race->second.thread);
  EXPECT_THROW(life::traced_life_check(initial, 0, 1, true), Error);
  EXPECT_THROW(life::traced_life_check(initial, 13, 1, true), Error);
}

TEST(Replay, RacyInterleavingFromAllInterleavingsIsFlagged) {
  // Acceptance criterion: scripts through os::all_interleavings, each
  // schedule replayed through the detector. Unlocked increments race in
  // every schedule; the locked pair is clean in every schedule.
  const std::vector<std::vector<std::string>> racy = {
      {"read x", "write x"},
      {"read x", "write x"},
  };
  const auto schedules = os::all_interleavings(tag_threads(racy));
  ASSERT_EQ(schedules.size(), 6u);  // C(4,2) interleavings of 2+2 ops
  std::size_t flagged = 0;
  for (const auto& schedule : schedules) {
    const ReplayResult result = replay(schedule);
    if (!result.race_free()) ++flagged;
    EXPECT_EQ(result.schedule, schedule);
  }
  EXPECT_EQ(flagged, schedules.size())
      << "an unlocked read-modify-write races in every schedule";

  const std::vector<std::vector<std::string>> locked = {
      {"lock m", "read x", "write x", "unlock m"},
      {"lock m", "read x", "write x", "unlock m"},
  };
  const auto locked_results = replay_all_interleavings(locked);
  const ReplayStats stats = summarize(locked_results);
  EXPECT_EQ(stats.schedules, 70u);  // C(8,4)
  // Mutual exclusion forbids the overlapped schedules, so the feasible
  // ones — where each critical section completes before the other
  // begins — are exactly the clean ones the detector certifies.
  EXPECT_EQ(stats.clean(), 2u) << "t0's section first, or t1's";
  EXPECT_EQ(stats.racy, 68u) << "every overlapped (infeasible) schedule is flagged";
}

TEST(Replay, BarrierAndChannelOps) {
  // Barrier op: both threads write their own cell, arrive, then read
  // the other's. The schedule a real barrier enforces — both arrivals
  // before either post-barrier read — is clean; a schedule where t0
  // reads past a barrier only it has reached is one a real barrier
  // would *block*, and the detector flags it (the enumerator
  // over-approximates feasible schedules; see replay.hpp).
  const ReplayResult synced = replay({"t0 write a", "t1 write b", "t0 barrier", "t1 barrier",
                                      "t0 read b", "t1 read a"});
  EXPECT_TRUE(synced.race_free())
      << (synced.races.empty() ? "" : synced.races[0].to_string());
  const ReplayResult jumped = replay({"t0 write a", "t0 barrier", "t0 read b", "t1 write b",
                                      "t1 barrier", "t1 read a"});
  EXPECT_FALSE(jumped.race_free()) << "t0 read b before t1 ever arrived";

  const ReplayResult handoff = replay({"t0 write x", "t0 send q", "t1 recv q", "t1 read x"});
  EXPECT_TRUE(handoff.race_free());
  const ReplayResult no_handoff = replay({"t0 write x", "t1 read x"});
  EXPECT_FALSE(no_handoff.race_free());

  EXPECT_THROW(replay({"write x"}), Error) << "missing thread tag";
  EXPECT_THROW(replay({"t0 frobnicate x"}), Error) << "unknown verb";
  EXPECT_THROW(replay({"t0 read"}), Error) << "missing operand";
}

TEST(Replay, ThreadIdsMatchTheScriptIndex) {
  // Eleven threads: "t10" sorts before "t2" as a string, but it is
  // script 10 and must be reported as thread 10.
  std::vector<std::string> schedule = {"t0 write x"};
  for (int k = 1; k <= 9; ++k) schedule.push_back("t" + std::to_string(k) + " read own");
  schedule.push_back("t10 write x");
  const ReplayResult result = replay(schedule);
  ASSERT_EQ(result.races.size(), 1u);
  EXPECT_EQ(result.races[0].first.thread, 0u);
  EXPECT_EQ(result.races[0].second.thread, 10u);
  EXPECT_EQ(result.races[0].second.where, "t10 write x");

  // An empty script keeps its index: the race is between threads 1
  // and 2, the same index analyze::StaticRace reports.
  const ExploreResult explored = explore_races({{}, {"write y"}, {"write y"}});
  ASSERT_EQ(explored.races.size(), 1u);
  EXPECT_EQ(explored.races[0].first.thread, 1u);
  EXPECT_EQ(explored.races[0].second.thread, 2u);
  EXPECT_EQ(explored.races[0].first.where, "t1 write y");
  EXPECT_EQ(explored.races[0].second.where, "t2 write y");
}

TEST(Replay, SameScheduleListTwiceGivesIdenticalReports) {
  // Replay is a pure function of the schedule: running the same list of
  // schedules twice yields report-for-report identical results — the
  // whole point of replacing "run it and hope the race fires" with
  // happens-before analysis.
  const std::vector<std::vector<std::string>> scripts = {
      {"read x", "write x", "lock m", "write y", "unlock m"},
      {"write x", "lock m", "read y", "unlock m", "read x"},
  };
  const auto first_pass = replay_all_interleavings(scripts);
  const auto second_pass = replay_all_interleavings(scripts);
  ASSERT_EQ(first_pass.size(), second_pass.size());
  for (std::size_t i = 0; i < first_pass.size(); ++i) {
    EXPECT_EQ(first_pass[i].schedule, second_pass[i].schedule);
    EXPECT_EQ(first_pass[i].events, second_pass[i].events);
    ASSERT_EQ(first_pass[i].races.size(), second_pass[i].races.size());
    for (std::size_t r = 0; r < first_pass[i].races.size(); ++r) {
      EXPECT_EQ(first_pass[i].races[r].to_string(), second_pass[i].races[r].to_string());
    }
  }
  const ReplayStats stats = summarize(first_pass);
  EXPECT_EQ(stats.distinct, distinct_races(first_pass).size());
  EXPECT_LE(stats.distinct, stats.racy)
      << "distinct collapses duplicates across schedules";
}

TEST(TracedLife, BarrierlessRaceSetStableAcrossRounds) {
  // Regression for report dedup: the barrier-less Life bug is the same
  // race every round (site labels carry no round number), so running
  // more rounds must not multiply the report list — only race_count,
  // which counts every racy access, grows.
  life::Grid initial = life::Grid::random(10, 10, 0.35, 7);
  const auto one_round = life::traced_life_check(initial, 2, 1, /*use_barrier=*/false);
  const auto three_rounds = life::traced_life_check(initial, 2, 3, /*use_barrier=*/false);
  ASSERT_FALSE(one_round.race_free);
  ASSERT_FALSE(three_rounds.race_free);

  const auto keys = [](const RaceList& races) {
    std::set<RacePairKey> out;
    for (const RaceReport& r : races) out.insert(race_pair_key(r.variable, r.first, r.second));
    return out;
  };
  const std::set<RacePairKey> once = keys(one_round.races);
  const std::set<RacePairKey> thrice = keys(three_rounds.races);
  EXPECT_EQ(keys(one_round.races).size(), one_round.races.size()) << "already deduped";
  EXPECT_TRUE(std::includes(thrice.begin(), thrice.end(), once.begin(), once.end()))
      << "more rounds can only re-expose the same (variable, site pair) races";
  EXPECT_EQ(once, thrice) << "the bug set is stable across rounds, not multiplied by them";
}

TEST(TracedLife, ZeroThreadsAreRejected) {
  const life::Grid grid(4, 4);
  EXPECT_EQ(error_text([&] { (void)life::traced_life_check(grid, 0, 1, true); }),
            "need at least one thread");
  EXPECT_EQ(error_text([&] { (void)life::traced_life_check(grid, 5, 1, true); }),
            "more threads than grid bands");
}

TEST(TracedLife, ReportsPinnedByDigest) {
  // Pins every byte a traced Life check prints — the report (races in
  // detection order, counts, event totals) plus the stepped grid's
  // population — across thread counts, both barrier variants and both
  // edge rules on two seeded grids. A change to how accesses are
  // captured, drained, dispatched or named must leave this digest
  // alone: dispatch order shows up in the report's race order.
  const std::vector<life::Grid> grids = {life::Grid::random(10, 9, 0.35, 31),
                                         life::Grid::random(8, 12, 0.3, 48611)};
  std::uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a
  const auto add = [&digest](const std::string& bytes) {
    for (const unsigned char c : bytes) {
      digest ^= c;
      digest *= 0x100000001b3ull;
    }
  };
  std::size_t racy = 0;
  for (const life::Grid& grid : grids) {
    for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
      for (const bool use_barrier : {true, false}) {
        for (const life::EdgeRule rule : {life::EdgeRule::Torus, life::EdgeRule::Bounded}) {
          const auto traced = life::traced_life_check(grid, threads, 3, use_barrier, rule);
          add(traced.report());
          add(std::to_string(traced.grid.population()) + '\n');
          if (!traced.race_free) ++racy;
        }
      }
    }
  }
  EXPECT_EQ(racy, 16u) << "every barrier-less run with two or more threads races";
  EXPECT_EQ(digest, 0x1c44614d9f10e4acull);
}

TEST(TracedLife, ParallelRunNamesRacesLikeTheReplay) {
  // A real-thread run at Cell granularity names its variables and
  // sites exactly as the replay does: the same race set, by name. Which
  // side of a race came first is up to the real scheduler, so the
  // endpoints compare as an unordered pair (race_pair_key's order).
  const life::Grid initial = life::Grid::random(10, 10, 0.35, 17);
  const auto replay = life::traced_life_check(initial, 3, 2, /*use_barrier=*/false);
  ASSERT_FALSE(replay.race_free);

  TraceContext ctx;
  life::ParallelLife parallel_life(initial, 3);
  parallel_life.run(2, {.ctx = &ctx, .report_barrier = false,
                        .granularity = life::TraceGranularity::Cell});
  ctx.flush();
  const auto names = [](const auto& races) {
    std::set<std::string> out;
    for (const RaceReport& r : races) {
      const RacePairKey key = race_pair_key(r.variable, r.first, r.second);
      out.insert(key.variable + " | " + key.lo.second + " | " + key.hi.second);
    }
    return out;
  };
  const std::set<std::string> real = names(ctx.detector().races());
  EXPECT_EQ(real, names(replay.races));
  EXPECT_EQ(real.size(), 160u);
  EXPECT_EQ(real.count("cur[0,9] | swap grids (serial thread) | step_region band 2"), 1u);
  EXPECT_EQ(real.count("next[4,0] | swap grids (serial thread) | step_region band 1"), 1u);
}

// --- the undo journal ------------------------------------------------

// A detector fed through the journaled steps and rolled back equals a
// fresh detector fed what still stands: after a full feed, after undoing
// to a seeded depth, and after every step of a different suffix. The
// bodies take locks, channels and barriers, and the last one's
// cross-thread reads inflate a readers vector that a write then empties.
TEST(DetectorUndo, RollbackMatchesFreshFeed) {
  std::vector<std::vector<std::vector<std::string>>> bodies;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    ScriptGenConfig config;
    config.threads = 2 + seed % 3;
    config.ops_per_thread = 6;
    config.locks = 2;
    config.channels = 1;
    config.barriers = seed % 2 == 0;
    config.lock_cycles = seed % 3 == 1;
    bodies.push_back(generate_script(seed, config));
  }
  bodies.push_back({{"read x", "read y", "read x", "barrier"},
                    {"read x", "write y", "barrier", "read x"},
                    {"read x", "write x", "barrier", "read x"}});
  common::SplitMix64 rng(31);
  for (const auto& scripts : bodies) {
    const Script script = parse_script(scripts);
    const auto fresh_summary = [&script](const std::vector<std::uint32_t>& schedule) {
      Detector fresh;
      const ScriptIds ids = intern_script(script, fresh);
      BlockingState state(script);
      (void)replay_ids(script, ids, schedule, fresh, state);
      return fresh.summary();
    };

    Detector walked;
    const ScriptIds ids = intern_script(script, walked);
    for (std::size_t k = 1; k < script.threads.size(); ++k) (void)walked.register_thread();
    BlockingState state(script);
    std::vector<std::uint32_t> schedule;
    std::vector<bool> fed;  // whether each walk step gave the detector a step
    const auto step = [&](std::uint32_t t) {
      const ScriptOp& op = state.next(t);
      const ObjectKind kind = object_kind(op.verb);
      const std::vector<NameId>& objects = kind == ObjectKind::Var     ? ids.vars
                                           : kind == ObjectKind::Mutex ? ids.locks
                                                                       : ids.channels;
      const bool any = kind != ObjectKind::None;
      if (any) walked.step(op.verb, t, objects[op.object], ids.sites[t][state.positions()[t]]);
      const bool completed = state.execute(t);
      if (completed) walked.step_barrier(ids.waiters);
      schedule.push_back(t);
      fed.push_back(any || completed);
    };
    const auto back = [&] {
      state.undo(schedule.back());
      if (fed.back()) walked.undo();
      schedule.pop_back();
      fed.pop_back();
    };
    const auto pending = [&] {
      std::vector<std::uint32_t> out;
      for (std::uint32_t t = 0; t < script.threads.size(); ++t) {
        if (!state.done(t)) out.push_back(t);
      }
      return out;
    };

    for (auto ready = pending(); !ready.empty(); ready = pending()) {
      step(ready[rng.below(ready.size())]);
    }
    ASSERT_EQ(walked.summary(), fresh_summary(schedule));
    const std::vector<std::uint32_t> first = schedule;
    const std::size_t depth = rng.below(first.size() + 1);
    while (schedule.size() > depth) back();
    ASSERT_EQ(walked.summary(), fresh_summary(schedule));
    for (auto ready = pending(); !ready.empty(); ready = pending()) {
      // Leave the first feed's path at the branch point when another
      // thread can go.
      std::uint32_t t = ready[rng.below(ready.size())];
      if (schedule.size() == depth && ready.size() > 1 && t == first[depth]) {
        t = ready[(std::find(ready.begin(), ready.end(), t) - ready.begin() + 1) %
                  ready.size()];
      }
      step(t);
      ASSERT_EQ(walked.summary(), fresh_summary(schedule));
    }
    while (!schedule.empty()) back();
    EXPECT_EQ(walked.events(), 0u);
    EXPECT_TRUE(walked.records().empty());
  }
}

}  // namespace
}  // namespace cs31::race
