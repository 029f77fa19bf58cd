// The TraceContext capture layer end to end: scripted and real-thread
// capture, deterministic drain order (byte-identical certificates),
// real-thread ParallelLife::run against the replay path, per-slot
// BoundedBuffer precision, the Eraser-style LocksetDetector (including
// its documented disagreement with happens-before), the MetricsSink,
// and the PR 4 AnalysisPipeline (sharded off-thread analysis whose
// certificates must be byte-identical to inline mode, under any shard
// count and under backpressure).
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "life/life.hpp"
#include "life/traced.hpp"
#include "parallel/sync.hpp"
#include "parallel/threads.hpp"
#include "race/lockset.hpp"
#include "recording_sink.hpp"
#include "trace/context.hpp"
#include "trace/instrumented.hpp"
#include "trace/metrics.hpp"
#include "trace/pipeline.hpp"

namespace cs31::trace {
namespace {

template <typename Races>
std::set<race::RacePairKey> race_keys(const Races& races) {
  std::set<race::RacePairKey> keys;
  for (const auto& r : races) keys.insert(race::race_pair_key(r.variable, r.first, r.second));
  return keys;
}

// --- capture layer ----------------------------------------------------

TEST(TraceCapture, InterningIsIdempotent) {
  TraceContext ctx;
  EXPECT_EQ(ctx.intern_var("v"), ctx.intern_var("v"));
  EXPECT_EQ(ctx.intern_lock("m"), ctx.intern_lock("m"));
  EXPECT_NE(ctx.intern_site("a"), ctx.intern_site("b"));
  ctx.flush();
  ctx.flush();  // flushing an idle context twice is harmless
  EXPECT_TRUE(ctx.detector().race_free());
}

TEST(TraceCapture, ForkPublishesParentWritesToChild) {
  TraceContext ctx;
  const NameId v = ctx.intern_var("v");
  ctx.write_as(0, v, ctx.intern_site("parent init"));
  const ThreadId child = ctx.fork_thread(0);
  ctx.read_as(child, v, ctx.intern_site("child read"));
  ctx.join_thread(0, child);
  ctx.flush();
  EXPECT_TRUE(ctx.detector().race_free());
}

TEST(TraceCapture, UnorderedSiblingWritesRace) {
  TraceContext ctx;
  const NameId v = ctx.intern_var("v");
  const ThreadId a = ctx.fork_thread(0);
  const ThreadId b = ctx.fork_thread(0);
  ctx.write_as(a, v, ctx.intern_site("a writes"));
  ctx.write_as(b, v, ctx.intern_site("b writes"));
  ctx.join_thread(0, a);
  ctx.join_thread(0, b);
  ctx.flush();
  ASSERT_EQ(ctx.detector().races().size(), 1u);
  EXPECT_EQ(ctx.detector().races().front().variable, "v");
}

TEST(TraceCapture, RealThreadsCaptureThroughATracedTeam) {
  TraceContext ctx;
  TracedVar<int> hits("hits", ctx);
  TracedMutex mutex("hits_lock", ctx);
  parallel::ThreadTeam team(4, ctx, [&](std::size_t) {
    for (int i = 0; i < 25; ++i) {
      std::scoped_lock hold(mutex);
      hits.store(hits.load() + 1);
    }
  });
  team.join();
  const int total = hits.load();  // main observes all children via the joins
  ctx.flush();
  EXPECT_EQ(total, 100);
  EXPECT_TRUE(ctx.detector().race_free());
  EXPECT_EQ(ctx.buffer_stats().size(), 5u);  // main + 4 workers
  EXPECT_GT(ctx.events_captured(), 0u);
  EXPECT_GT(ctx.drains(), 0u);
}

TEST(TraceCapture, BulkAccessesEqualOneByOneAccesses) {
  // accesses() is read()/write() in a loop: the same events, in the same
  // order, so the same race reports.
  const auto run = [](bool bulk) {
    TraceContext ctx;
    const NameId first = ctx.reserve_vars(12, [](std::size_t k) {
      return "v" + std::to_string(k);
    });
    const NameId site = ctx.intern_site("main writes");
    const ThreadId child = ctx.fork_thread(0);  // unordered with main's writes
    if (bulk) {
      ctx.accesses(race::AccessKind::Write, first, 6, 2, site);
    } else {
      for (NameId i = 0; i < 6; ++i) ctx.write(first + 2 * i, site);
    }
    ctx.accesses_as(child, race::AccessKind::Read, first, 12, 1, ctx.intern_site("child"));
    ctx.join_thread(0, child);
    ctx.flush();
    return std::pair{ctx.detector().summary(), ctx.events_captured()};
  };
  const auto bulk = run(true);
  const auto one_by_one = run(false);
  EXPECT_EQ(bulk.first, one_by_one.first);
  EXPECT_EQ(bulk.second, one_by_one.second);
  EXPECT_NE(bulk.first.find("v10"), std::string::npos);  // the even ids race
}

TEST(TraceCapture, MetricsSinkCountsTheEventMix) {
  TraceContext ctx(TraceContext::Options{.own_detector = false});
  MetricsSink metrics;
  ctx.attach_sink(metrics);
  const NameId v = ctx.intern_var("v");
  const NameId m = ctx.intern_lock("m");
  const NameId ch = ctx.intern_channel("ch");
  const ThreadId worker = ctx.fork_thread(0);
  ctx.acquire_as(worker, m);
  ctx.read_as(worker, v);
  ctx.write_as(worker, v);
  ctx.release_as(worker, m);
  ctx.send_as(0, ch);
  ctx.recv_as(worker, ch);
  ctx.barrier_cycle({0, worker});
  ctx.acquire_as(0, m);
  ctx.read_as(0, v);
  ctx.release_as(0, m);
  ctx.join_thread(0, worker);
  ctx.flush();

  const auto per_thread = metrics.per_thread();
  ASSERT_GE(per_thread.size(), 2u);
  EXPECT_EQ(per_thread[0].reads, 1u);
  EXPECT_EQ(per_thread[0].sends, 1u);
  EXPECT_EQ(per_thread[0].acquires, 1u);
  EXPECT_EQ(per_thread[0].barriers, 1u);
  EXPECT_EQ(per_thread[1].reads, 1u);
  EXPECT_EQ(per_thread[1].writes, 1u);
  EXPECT_EQ(per_thread[1].recvs, 1u);
  EXPECT_EQ(per_thread[1].barriers, 1u);
  const auto locks = metrics.lock_acquires();
  ASSERT_EQ(locks.size(), 1u);
  EXPECT_EQ(locks[0].first, "m");
  EXPECT_EQ(locks[0].second, 2u);
  EXPECT_EQ(metrics.barrier_cycles(), 1u);
  EXPECT_TRUE(metrics.race_free());
  EXPECT_TRUE(metrics.races().empty());
}

// --- real-thread traced ParallelLife ---------------------------------

TEST(TracedParallelLifeReal, RaceFreeAndCorrectAcrossThreadCounts) {
  const life::Grid initial = life::Grid::random(12, 12, 0.3, 99);
  life::SerialLife serial(initial);
  serial.run(3);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    TraceContext ctx;
    life::ParallelLife parallel_life(initial, threads);
    parallel_life.run(3, {.ctx = &ctx});
    ctx.flush();
    EXPECT_TRUE(ctx.detector().race_free()) << threads << " threads";
    EXPECT_EQ(parallel_life.grid(), serial.grid()) << threads << " threads";
  }
}

TEST(TracedParallelLifeReal, RepeatedRunsYieldByteIdenticalCertificates) {
  const life::Grid initial = life::Grid::random(12, 12, 0.3, 7);
  auto certificate = [&] {
    TraceContext ctx;
    life::ParallelLife parallel_life(initial, 4);
    parallel_life.run(2, {.ctx = &ctx});
    ctx.flush();
    EXPECT_TRUE(ctx.detector().race_free());
    return std::pair{ctx.detector().summary(), ctx.events_captured()};
  };
  const auto first = certificate();
  const auto second = certificate();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

TEST(TracedParallelLifeReal, CellGranularityMatchesTheReplayCertificate) {
  // The refactor's headline claim: a real-thread run and the scripted
  // replay are the same machinery, so at Cell granularity they produce
  // the same certificate on the same workload.
  const life::Grid initial = life::Grid::random(9, 9, 0.4, 13);
  const auto replay = life::traced_life_check(initial, 3, 2, /*use_barrier=*/true);
  ASSERT_TRUE(replay.race_free);

  TraceContext ctx;
  life::ParallelLife parallel_life(initial, 3);
  parallel_life.run(2, {.ctx = &ctx, .report_barrier = true,
                        .granularity = life::TraceGranularity::Cell});
  ctx.flush();
  EXPECT_TRUE(ctx.detector().race_free());
  EXPECT_EQ(ctx.detector().summary(), replay.report());
  EXPECT_EQ(parallel_life.grid(), replay.grid);
}

TEST(TracedParallelLifeReal, ForgottenBarrierMatchesReplayRaceSet) {
  // The "forgotten barrier" teaching mode on real threads must report
  // the same race set as the replay-based regression path: the real
  // barrier still runs (well-defined execution), only its edge is
  // withheld from the sinks.
  const life::Grid initial = life::Grid::random(12, 12, 0.3, 21);
  const auto replay = life::traced_life_check(initial, 3, 2, /*use_barrier=*/false);
  ASSERT_FALSE(replay.race_free);

  TraceContext ctx;
  life::ParallelLife parallel_life(initial, 3);
  parallel_life.run(2, {.ctx = &ctx, .report_barrier = false,
                        .granularity = life::TraceGranularity::Cell});
  ctx.flush();
  ASSERT_FALSE(ctx.detector().race_free());
  EXPECT_EQ(race_keys(ctx.detector().races()), race_keys(replay.races));
}

/// FNV-1a over a sequence of byte strings.
struct Fnv1a {
  std::uint64_t digest = 0xcbf29ce484222325ull;
  void add(const std::string& bytes) {
    for (const unsigned char c : bytes) {
      digest ^= c;
      digest *= 0x100000001b3ull;
    }
  }
};

TEST(TracedLifeStreams, ReplayStreamsPinnedByDigest) {
  // Pins every event the replay dispatches, in order (RecordingSink's
  // stream), plus the stepped grid's population, over
  // TracedLife.ReportsPinnedByDigest's matrix and zero rounds. Reports
  // alone would miss a reordered or dropped event that no race names.
  const std::vector<life::Grid> grids = {life::Grid::random(10, 9, 0.35, 31),
                                         life::Grid::random(8, 12, 0.3, 48611)};
  Fnv1a fnv;
  std::size_t runs = 0;
  for (const life::Grid& grid : grids) {
    for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
      for (const bool use_barrier : {true, false}) {
        for (const life::EdgeRule rule : {life::EdgeRule::Torus, life::EdgeRule::Bounded}) {
          for (const std::size_t rounds : {3u, 0u}) {
            test_support::RecordingSink recording;
            const auto traced = life::traced_life_check_with(recording, grid, threads, rounds,
                                                             use_barrier, rule);
            fnv.add(recording.stream());
            fnv.add(std::to_string(traced.grid.population()) + '\n');
            ++runs;
          }
        }
      }
    }
  }
  EXPECT_EQ(runs, 80u);
  EXPECT_EQ(fnv.digest, 0x0d4efca014e09c85ull);
}

TEST(TracedLifeStreams, RealThreadStreamsPinnedByDigest) {
  // The same pin for the real-thread engine: ParallelLife::run at both
  // granularities and splits, barrier reported or withheld, on 1, 2 and
  // 4 threads. The drained stream is schedule-independent (every drain
  // dispatches a prefix of one global order), so the digest is too. It
  // is pinned apart from the replay's: from three threads on, the
  // replay forks every worker before the first band reads, while a
  // team forks each worker just before starting it.
  const life::Grid initial = life::Grid::random(10, 9, 0.35, 31);
  Fnv1a fnv;
  for (const auto granularity : {life::TraceGranularity::Row, life::TraceGranularity::Cell}) {
    for (const auto split : {parallel::GridSplit::Horizontal, parallel::GridSplit::Vertical}) {
      for (const bool report_barrier : {true, false}) {
        for (const std::size_t threads : {1u, 2u, 4u}) {
          TraceContext ctx;
          test_support::RecordingSink recording;
          ctx.attach_sink(recording);
          life::ParallelLife parallel_life(initial, threads, split);
          parallel_life.run(3, {.ctx = &ctx, .report_barrier = report_barrier,
                                .granularity = granularity});
          ctx.flush();
          fnv.add(recording.stream());
          fnv.add(std::to_string(parallel_life.grid().population()) + '\n');
        }
      }
    }
  }
  EXPECT_EQ(fnv.digest, 0x22e1ee528cc2dc6dull);
}

// --- per-slot BoundedBuffer precision ---------------------------------

TEST(TracedBoundedBufferSlots, RaceIsLocalizedToTheExactItem) {
  // Producer: write x, put item A (slot 0), write y, put item B
  // (slot 1). A consumer that dequeued only item A is ordered after
  // "write x" but NOT after "write y" — a whole-buffer channel clock
  // would merge both sends and hide the race on y; per-slot channels
  // keep it, localized to the exact item.
  TraceContext ctx;
  parallel::BoundedBuffer buffer(2);
  buffer.attach_tracer(ctx, "queue");
  const NameId x = ctx.intern_var("x");
  const NameId y = ctx.intern_var("y");
  std::promise<void> both_in;
  auto ready = both_in.get_future();

  parallel::ThreadTeam team(1, ctx, [&](std::size_t) {
    ctx.write(x, ctx.intern_site("producer writes x before item A"));
    buffer.put(10);  // slot 0
    ctx.write(y, ctx.intern_site("producer writes y before item B"));
    buffer.put(20);  // slot 1
    both_in.set_value();
  });
  ready.wait();  // untraced edge: only sequences the test, not the sinks
  EXPECT_EQ(buffer.get(), 10);
  ctx.read(x, ctx.intern_site("consumer reads x after item A"));  // ordered via slot 0
  ctx.read(y, ctx.intern_site("consumer reads y after item A"));  // NOT ordered: the race
  EXPECT_EQ(buffer.get(), 20);
  ctx.read(y, ctx.intern_site("consumer reads y after item B"));  // ordered via slot 1
  team.join();
  ctx.flush();

  const auto& races = ctx.detector().races();
  ASSERT_EQ(races.size(), 1u);
  EXPECT_EQ(races.front().variable, "y");
  EXPECT_NE(races.front().second.where.find("after item A"), std::string::npos);
}

// --- the sharded analysis pipeline (PR 4) -----------------------------

// Mutex-bearing test objects live on the heap throughout this section:
// libstdc++'s std::mutex never calls pthread_mutex_destroy, so TSan
// cannot tell when a stack slot is reused by a different mutex in a
// later test, and its cumulative lock-order graph then reports cycles
// spanning unrelated tests. Freed heap memory resets that metadata.
life::TracedLifeResult piped_life(const life::Grid& initial, bool use_barrier,
                                  std::size_t shards, std::size_t queue_capacity = 8) {
  const auto pipeline = std::make_unique<AnalysisPipeline>(
      AnalysisPipeline::Options{.shards = shards, .queue_capacity = queue_capacity});
  life::TracedLifeOptions options;
  options.use_barrier = use_barrier;
  options.pipeline = pipeline.get();
  return life::traced_life_check(initial, 3, 3, options);
}

TEST(AnalysisPipelineTest, RaceReportsByteIdenticalAcrossShardCounts) {
  // The determinism contract: the barrier-less Life's full race report
  // — every reported pair, in inline detection order, with inline event
  // numbers — survives any sharding of the analysis.
  const life::Grid initial = life::Grid::random(12, 12, 0.3, 2022);
  const auto inline_run = life::traced_life_check(initial, 3, 3, /*use_barrier=*/false);
  ASSERT_FALSE(inline_run.race_free);
  for (const std::size_t shards : {1u, 2u, 4u}) {
    const auto piped = piped_life(initial, /*use_barrier=*/false, shards);
    EXPECT_EQ(piped.report(), inline_run.report()) << shards << " shards";
    EXPECT_EQ(piped.races.size(), inline_run.races.size()) << shards << " shards";
    EXPECT_EQ(piped.events, inline_run.events) << shards << " shards";
  }
}

TEST(AnalysisPipelineTest, RaceFreeCertificateByteIdenticalAcrossShardCounts) {
  const life::Grid initial = life::Grid::random(12, 12, 0.3, 2022);
  const auto inline_run = life::traced_life_check(initial, 3, 3, /*use_barrier=*/true);
  ASSERT_TRUE(inline_run.race_free);
  for (const std::size_t shards : {1u, 2u, 4u}) {
    const auto piped = piped_life(initial, /*use_barrier=*/true, shards);
    EXPECT_TRUE(piped.race_free) << shards << " shards";
    EXPECT_EQ(piped.report(), inline_run.report()) << shards << " shards";
    EXPECT_EQ(piped.grid, inline_run.grid) << shards << " shards";
  }
}

TEST(AnalysisPipelineTest, CapacityTwoQueueForcesBackpressureAndStaysExact) {
  // Pre-built batches published back-to-back: the producer's cost per
  // batch is a queue push, the pipeline's is FastTrack analysis of
  // every event in it, so a capacity-2 queue must fill and block the
  // producer — and the verdict must not care. (Driving this through a
  // TraceContext would pace the producer with the drain's own merge
  // cost, which is exactly what the pipeline exists to get off the
  // critical path.)
  constexpr int kBatches = 48;
  constexpr int kPerBatch = 1500;
  constexpr std::uint32_t kVars = 8;

  // Two crafted threads (context tids 1 and 2, forked in batch 0) write
  // and read the same variables with no ordering — every variable
  // races, and the vars spread across both shards.
  const auto make_batch = [&](int batch_index) {
    EventBatch batch;
    if (batch_index == 0) {
      batch.events.push_back(Event{.kind = EventKind::Fork, .thread = 0, .id = 1});
      batch.events.push_back(Event{.kind = EventKind::Fork, .thread = 0, .id = 2});
    }
    for (int i = 0; i < kPerBatch; ++i) {
      const auto var = static_cast<NameId>(i % kVars);
      batch.events.push_back(Event{.kind = EventKind::Write, .thread = 1, .id = var});
      batch.events.push_back(Event{.kind = EventKind::Read, .thread = 2, .id = var});
    }
    return batch;
  };

  // Inline reference: the identical stream through one Detector, which
  // numbers events exactly like the router does.
  const auto inline_detector = std::make_unique<race::Detector>();
  {
    std::vector<NameId> var_ids;
    for (std::uint32_t v = 0; v < kVars; ++v)
      var_ids.push_back(inline_detector->intern_var("v" + std::to_string(v)));
    const NameId site = inline_detector->intern_site("");
    const race::ThreadId t1 = inline_detector->fork(0);
    const race::ThreadId t2 = inline_detector->fork(0);
    for (int b = 0; b < kBatches; ++b) {
      for (int i = 0; i < kPerBatch; ++i) {
        inline_detector->write(t1, var_ids[i % kVars], site);
        inline_detector->read(t2, var_ids[i % kVars], site);
      }
    }
  }
  ASSERT_FALSE(inline_detector->race_free());

  const auto pipeline = std::make_unique<AnalysisPipeline>(
      AnalysisPipeline::Options{.shards = 2, .queue_capacity = 2});
  // The names the events carry, interned where a context would intern
  // them: site 0 is the empty label, then the variables in id order.
  (void)pipeline->names()->intern(race::NameKind::Site, "");
  for (std::uint32_t v = 0; v < kVars; ++v)
    (void)pipeline->names()->intern(race::NameKind::Var, "v" + std::to_string(v));
  std::vector<EventBatch> batches;
  for (int b = 0; b < kBatches; ++b) batches.push_back(make_batch(b));
  for (EventBatch& batch : batches) pipeline->publish(std::move(batch));
  pipeline->wait_idle();

  EXPECT_GT(pipeline->publish_waits(), 0u)
      << "the capacity-2 queue never filled — backpressure untested";
  EXPECT_GE(pipeline->batch_high_water(), 2u);
  EXPECT_EQ(pipeline->summary(), inline_detector->summary());
  EXPECT_EQ(pipeline->events(), 2u + std::uint64_t{kBatches} * kPerBatch * 2);
}

TEST(AnalysisPipelineTest, RealThreadLifeCertificateMatchesInline) {
  // The capture side is real threads (ParallelLife::run); the analysis
  // side is the off-thread pipeline. The certificate must equal the
  // inline detector's from an identical run.
  const life::Grid initial = life::Grid::random(12, 12, 0.3, 7);
  const auto inline_ctx = std::make_unique<TraceContext>();
  life::ParallelLife inline_life(initial, 3);
  inline_life.run(2, {.ctx = inline_ctx.get()});
  inline_ctx->flush();
  ASSERT_TRUE(inline_ctx->detector().race_free());

  const auto pipeline = std::make_unique<AnalysisPipeline>(
      AnalysisPipeline::Options{.shards = 2, .queue_capacity = 4});
  const auto ctx = std::make_unique<TraceContext>(
      TraceContext::Options{.own_detector = false});
  ctx->attach_pipeline(*pipeline);
  life::ParallelLife life(initial, 3);
  life.run(2, {.ctx = ctx.get()});
  ctx->flush();

  EXPECT_TRUE(pipeline->race_free());
  EXPECT_EQ(pipeline->summary(), inline_ctx->detector().summary());
  EXPECT_EQ(life.grid(), inline_life.grid());
}

TEST(AnalysisPipelineTest, ManyBatchRealThreadRunsMatchInline) {
  // A run long enough that the context publishes many batches before
  // flush(): certificates and race reports still equal inline mode's.
  const life::Grid initial = life::Grid::random(16, 16, 0.3, 5);
  for (const bool report_barrier : {true, false}) {
    const life::LifeTraceOptions options{.report_barrier = report_barrier,
                                         .granularity = life::TraceGranularity::Cell};
    const auto inline_ctx = std::make_unique<TraceContext>();
    life::ParallelLife inline_life(initial, 4);
    life::LifeTraceOptions inline_options = options;
    inline_options.ctx = inline_ctx.get();
    inline_life.run(6, inline_options);
    inline_ctx->flush();
    ASSERT_EQ(inline_ctx->detector().race_free(), report_barrier);

    const auto pipeline = std::make_unique<AnalysisPipeline>(
        AnalysisPipeline::Options{.shards = 2, .queue_capacity = 2});
    const auto ctx = std::make_unique<TraceContext>(
        TraceContext::Options{.own_detector = false});
    ctx->attach_pipeline(*pipeline);
    life::ParallelLife life(initial, 4);
    life::LifeTraceOptions piped_options = options;
    piped_options.ctx = ctx.get();
    life.run(6, piped_options);
    ctx->flush();

    EXPECT_GT(pipeline->events(), 4000u);
    EXPECT_EQ(pipeline->events(), inline_ctx->detector().events());
    EXPECT_EQ(pipeline->summary(), inline_ctx->detector().summary())
        << "report_barrier=" << report_barrier;
  }
}

TEST(AnalysisPipelineTest, PipelineRequiresAFreshContext) {
  const auto pipeline =
      std::make_unique<AnalysisPipeline>(AnalysisPipeline::Options{.shards = 1});
  const auto with_detector =  // owns an inline detector already
      std::make_unique<TraceContext>();
  EXPECT_THROW(with_detector->attach_pipeline(*pipeline), Error);
  const auto named =  // interned a name the pipeline's tables lack
      std::make_unique<TraceContext>(TraceContext::Options{.own_detector = false});
  (void)named->intern_var("x");
  EXPECT_THROW(named->attach_pipeline(*pipeline), Error);
  EXPECT_THROW(AnalysisPipeline(AnalysisPipeline::Options{.shards = 0}), Error);
}

// --- sampling capture mode --------------------------------------------

TEST(SamplingCaptureTest, SameRateIsDeterministic) {
  const life::Grid initial = life::Grid::random(12, 12, 0.3, 5);
  const auto run = [&] {
    life::TracedLifeOptions options;
    options.use_barrier = false;
    options.sample_rate = 0.25;
    return life::traced_life_check(initial, 3, 3, options);
  };
  const auto first = run();
  const auto second = run();
  EXPECT_GT(first.sampled_out, 0u);
  EXPECT_EQ(first.report(), second.report());
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.sampled_out, second.sampled_out);
  EXPECT_EQ(race_keys(first.races), race_keys(second.races));
}

TEST(SamplingCaptureTest, RateOneIsExactlyTheUnsampledRun) {
  const life::Grid initial = life::Grid::random(12, 12, 0.3, 5);
  const auto plain = life::traced_life_check(initial, 3, 3, /*use_barrier=*/false);
  life::TracedLifeOptions options;
  options.use_barrier = false;
  options.sample_rate = 1.0;
  const auto sampled = life::traced_life_check(initial, 3, 3, options);
  EXPECT_EQ(sampled.sampled_out, 0u);
  EXPECT_EQ(sampled.report(), plain.report());
  EXPECT_EQ(sampled.events, plain.events);
}

TEST(SamplingCaptureTest, SyncEventsAreNeverSampledOut) {
  // At rate 0 every access is dropped but the happens-before skeleton
  // (forks, joins, barriers) still flows — the run ends race-free with
  // only sync events analyzed, not empty.
  life::TracedLifeOptions options;
  options.use_barrier = true;
  options.sample_rate = 0.0;
  const auto run =
      life::traced_life_check(life::Grid::random(12, 12, 0.3, 5), 3, 2, options);
  EXPECT_TRUE(run.race_free);
  EXPECT_GT(run.events, 0u);       // the sync skeleton
  EXPECT_GT(run.sampled_out, 0u);  // every access
}

TEST(SamplingCaptureTest, SamplingComposesWithThePipeline) {
  // Sampling happens at capture, sharding at analysis; a sampled
  // pipelined run must equal the sampled inline run byte for byte.
  const life::Grid initial = life::Grid::random(12, 12, 0.3, 5);
  life::TracedLifeOptions inline_options;
  inline_options.use_barrier = false;
  inline_options.sample_rate = 0.5;
  const auto inline_run = life::traced_life_check(initial, 3, 3, inline_options);

  const auto pipeline = std::make_unique<AnalysisPipeline>(
      AnalysisPipeline::Options{.shards = 2, .queue_capacity = 4});
  life::TracedLifeOptions piped_options = inline_options;
  piped_options.pipeline = pipeline.get();
  const auto piped = life::traced_life_check(initial, 3, 3, piped_options);
  EXPECT_EQ(piped.report(), inline_run.report());
  EXPECT_EQ(piped.sampled_out, inline_run.sampled_out);
}

// --- the Eraser-style lockset detector --------------------------------

TEST(LocksetDetectorTest, ConsistentLockingIsClean) {
  race::LocksetDetector d;
  const race::ThreadId t1 = d.fork(0);
  d.acquire(0, "m");
  d.write(0, "v", "first");
  d.release(0, "m");
  d.acquire(t1, "m");
  d.write(t1, "v", "second");
  d.release(t1, "m");
  EXPECT_TRUE(d.race_free());
  EXPECT_TRUE(d.lockset_defined("v"));
  EXPECT_EQ(d.candidate_lockset("v"), std::vector<std::string>{"m"});
}

TEST(LocksetDetectorTest, EmptyIntersectionIsReported) {
  race::LocksetDetector d;
  const race::ThreadId t1 = d.fork(0);
  d.acquire(0, "m1");
  d.write(0, "v", "under m1");
  d.release(0, "m1");
  d.acquire(t1, "m2");
  d.write(t1, "v", "under m2");  // candidate lockset becomes {m2}
  d.release(t1, "m2");
  EXPECT_TRUE(d.race_free());  // still non-empty — Eraser reports lazily
  d.acquire(0, "m1");
  d.write(0, "v", "under m1 again");  // {m2} ∩ {m1} = ∅ -> report
  d.release(0, "m1");
  ASSERT_EQ(d.races().size(), 1u);
  EXPECT_EQ(d.races().front().variable, "v");
  EXPECT_NE(d.races().front().explanation.find("locking discipline"), std::string::npos);
  EXPECT_TRUE(d.candidate_lockset("v").empty());
}

TEST(LocksetDetectorTest, SharedReadsAloneAreNotReported) {
  race::LocksetDetector d;
  const race::ThreadId t1 = d.fork(0);
  d.write(0, "v", "init");     // Exclusive
  d.read(t1, "v", "reader 1");  // Shared, lockset {}
  d.read(0, "v", "reader 2");
  EXPECT_TRUE(d.race_free());  // empty lockset but never Shared-Modified
  EXPECT_TRUE(d.lockset_defined("v"));
  EXPECT_TRUE(d.candidate_lockset("v").empty());
}

TEST(LocksetDetectorTest, ReleaseWithoutHoldThrows) {
  race::LocksetDetector d;
  EXPECT_THROW(d.release(0, "m"), Error);
}

TEST(LocksetDetectorTest, BarrierBlindnessIsTheDocumentedFalsePositive) {
  // The same stream into both algorithms: a write, a barrier, a write.
  // Happens-before proves it ordered; lockset cannot see the barrier.
  race::Detector hb;
  race::LocksetDetector lockset;
  for (race::EventSink* sink : {static_cast<race::EventSink*>(&hb),
                                static_cast<race::EventSink*>(&lockset)}) {
    const race::ThreadId t1 = sink->fork(0);
    sink->write(0, "cell", "round 0");
    sink->barrier({0, t1});
    sink->write(t1, "cell", "round 1");
  }
  EXPECT_TRUE(hb.race_free());
  ASSERT_FALSE(lockset.race_free());
  EXPECT_EQ(lockset.races().front().variable, "cell");
}

TEST(LocksetDetectorTest, DisagreesWithHappensBeforeOnBarrierLife) {
  // The differential check bench_race_overhead's real-thread mode
  // relies on: barrier-synchronized Life is race-free under HB and
  // flagged by lockset on the identical event stream.
  const life::Grid initial = life::Grid::random(8, 8, 0.3, 5);
  const auto hb = life::traced_life_check(initial, 2, 2, /*use_barrier=*/true);
  EXPECT_TRUE(hb.race_free);
  race::LocksetDetector lockset;
  const auto ls = life::traced_life_check_with(lockset, initial, 2, 2, /*use_barrier=*/true);
  EXPECT_FALSE(ls.race_free);
  EXPECT_EQ(hb.events, ls.events);  // identical stream, different verdicts
}

TEST(LocksetDetectorTest, AgreesWithHappensBeforeOnLockDiscipline) {
  // Where the program's discipline really is "one lock per variable",
  // the two algorithms agree in both directions.
  for (const bool locked : {false, true}) {
    race::Detector hb;
    race::LocksetDetector lockset;
    for (race::EventSink* sink : {static_cast<race::EventSink*>(&hb),
                                  static_cast<race::EventSink*>(&lockset)}) {
      const race::ThreadId t1 = sink->fork(0);
      for (const race::ThreadId t : {race::ThreadId{0}, t1}) {
        if (locked) sink->acquire(t, "m");
        sink->read(t, "counter", "load");
        sink->write(t, "counter", "store");
        if (locked) sink->release(t, "m");
      }
    }
    EXPECT_EQ(hb.race_free(), locked);
    EXPECT_EQ(lockset.race_free(), locked);
  }
}

TEST(LocksetDetectorTest, RealThreadLifeReportsPinnedByDigest) {
  // Pins everything the lockset detector says about bench_race_overhead's
  // real-thread workload (64x64 Life, 4 threads, 10 rounds, row
  // granularity, barrier reported): every report's text in detection
  // order, the flagged-access count and the summary. The drained stream
  // is schedule-independent, so the digest is too; a change to how the
  // detector dedups or words its reports, or to how the context feeds
  // it, must leave this alone. The metrics sink on the same feed counts
  // what the built-in detector saw.
  const life::Grid initial = life::Grid::random(64, 64, 0.3, 7);
  TraceContext ctx;
  race::LocksetDetector lockset;
  MetricsSink metrics;
  ctx.attach_sink(lockset);
  ctx.attach_sink(metrics);
  life::ParallelLife parallel_life(initial, 4);
  parallel_life.run(10, {.ctx = &ctx, .report_barrier = true,
                         .granularity = life::TraceGranularity::Row});
  ctx.flush();
  std::uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a
  const auto add = [&digest](const std::string& bytes) {
    for (const unsigned char c : bytes) {
      digest ^= c;
      digest *= 0x100000001b3ull;
    }
  };
  for (const race::RaceReport& r : lockset.races()) add(r.to_string() + '\n');
  add(std::to_string(lockset.race_count()) + '\n');
  add(lockset.summary());
  EXPECT_TRUE(ctx.detector().race_free());
  EXPECT_EQ(lockset.races().size(), 110u);
  EXPECT_EQ(lockset.race_count(), 1934u);
  EXPECT_EQ(digest, 0x2802f22154f62fdeull);
  EXPECT_EQ(metrics.events(), ctx.detector().events());
  EXPECT_EQ(metrics.threads(), ctx.detector().threads());
  EXPECT_EQ(metrics.barrier_cycles(), 20u);
  EXPECT_TRUE(metrics.lock_acquires().empty());
}

// --- team joins --------------------------------------------------------

/// What a traced team run leaves behind in three sinks.
struct TeamRun {
  std::string stream;   ///< RecordingSink's dispatch bytes
  std::string hb;       ///< Detector::summary()
  std::string lockset;  ///< LocksetDetector::summary()
};

/// A traced four-worker team with a lock and a barrier whose drained
/// stream is schedule-independent: in each barrier phase at most one
/// worker syncs (takes the shared lock), so every stamp is fixed. Even
/// phases: one worker writes `board` unlocked; odd phases: everyone
/// reads it — barrier-ordered, so race-free under happens-before and
/// the lockset detector's documented false positive. After the last
/// barrier each worker writes its own cell, so the join drain has
/// events to merge. `team_join` joins through ThreadTeam (one team
/// drain); otherwise the same fork/bind/park steps are done by hand
/// and the workers are joined one at a time through join_thread.
TeamRun run_locked_team(CaptureMode mode, bool team_join) {
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kPhases = 12;
  TraceContext ctx(TraceContext::Options{.own_detector = false, .capture = mode});
  test_support::RecordingSink recording;
  race::Detector hb;
  race::LocksetDetector lockset;
  ctx.attach_sink(recording);
  ctx.attach_sink(hb);
  ctx.attach_sink(lockset);
  TracedMutex mutex("total_lock", ctx);
  TracedVar<int> total("total", ctx);
  const NameId board = ctx.intern_var("board");
  const NameId site = ctx.intern_site("phase");
  std::vector<NameId> cells;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    cells.push_back(ctx.intern_var("cell" + std::to_string(w)));
  }
  parallel::Barrier barrier(kWorkers);
  barrier.attach_tracer(ctx);
  const auto body = [&](std::size_t who) {
    for (std::size_t phase = 0; phase < kPhases; ++phase) {
      ctx.write(cells[who], site);
      if (phase % kWorkers == who) {
        std::scoped_lock hold(mutex);
        total.store(total.load() + 1);
      }
      if (phase % 2 == 0 && (phase / 2) % kWorkers == who) ctx.write(board, site);
      if (phase % 2 == 1) ctx.read(board, site);
      barrier.wait();
    }
    ctx.write(cells[who], site);
  };
  if (team_join) {
    parallel::ThreadTeam team(kWorkers, ctx, body);
    team.join();
  } else {
    std::vector<ThreadId> ids;
    for (std::size_t w = 0; w < kWorkers; ++w) ids.push_back(ctx.on_thread_create());
    ctx.park_self();
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      threads.emplace_back([&, w] {
        ctx.bind_self(ids[w]);
        body(w);
      });
    }
    for (std::thread& t : threads) t.join();
    for (const ThreadId id : ids) ctx.join_thread(0, id);
  }
  EXPECT_EQ(total.load(), static_cast<int>(kPhases));
  ctx.flush();
  return TeamRun{recording.stream(), hb.summary(), lockset.summary()};
}

TEST(TeamJoin, OneTeamDrainEqualsJoiningWorkersOneAtATime) {
  for (const CaptureMode mode : {CaptureMode::lockfree, CaptureMode::mutex_stream}) {
    const TeamRun team = run_locked_team(mode, /*team_join=*/true);
    const TeamRun one_by_one = run_locked_team(mode, /*team_join=*/false);
    EXPECT_EQ(team.stream, one_by_one.stream);
    EXPECT_EQ(team.hb, one_by_one.hb);
    EXPECT_EQ(team.lockset, one_by_one.lockset);
    EXPECT_NE(team.stream.find("join t0 <- t4"), std::string::npos);
    EXPECT_NE(team.hb.find("race-free"), std::string::npos);
    EXPECT_NE(team.lockset.find("board"), std::string::npos);  // Eraser's false positive
  }
}

TEST(TeamJoin, RepeatedChildIsRejectedBeforeAnythingIsRecorded) {
  TraceContext ctx;
  const ThreadId child = ctx.fork_thread(0);
  const std::uint64_t before = ctx.events_captured();
  EXPECT_THROW(ctx.join_threads(0, {child, child}), cs31::Error);
  EXPECT_EQ(ctx.events_captured(), before);
  ctx.join_threads(0, {child});
  ctx.flush();
  EXPECT_EQ(ctx.buffers_reclaimed(), 1u);
}

TEST(TracedBarrier, FailedCycleStillReleasesTheWaitersAndResets) {
  // The last arriver's tracer call throws: one waiter's trace id was
  // retired under it. That arriver's wait() rethrows, the other waiter
  // still leaves the cycle, and the next cycle runs normally.
  TraceContext ctx;
  const ThreadId doomed = ctx.fork_thread(0);
  const ThreadId fresh = ctx.fork_thread(0);
  parallel::Barrier step(2);  // untraced: orders the set-up
  parallel::Barrier barrier(2);
  barrier.attach_tracer(ctx);
  std::atomic<int> threw{0}, serial{0};
  const auto cycle = [&] {
    try {
      if (barrier.wait()) ++serial;
    } catch (const cs31::Error&) {
      ++threw;
    }
  };
  std::thread worker([&] {
    ctx.bind_self(doomed);
    step.wait();  // bound
    step.wait();  // retired
    cycle();
    ctx.bind_self(fresh);
    step.wait();
    cycle();
  });
  step.wait();
  ctx.join_thread(0, doomed);
  step.wait();
  cycle();
  step.wait();  // both are out of the failed cycle
  EXPECT_EQ(threw.load(), 1);
  EXPECT_EQ(serial.load(), 0);
  cycle();
  worker.join();
  EXPECT_EQ(threw.load(), 1);
  EXPECT_EQ(serial.load(), 1);
  EXPECT_EQ(barrier.cycles(), 2u);
}

// --- epoch-based buffer reclamation ----------------------------------

TEST(EpochReclaim, JoinedBuffersAreFreedAfterAGracePeriod) {
  TraceContext ctx;
  constexpr std::size_t kWorkers = 4;
  const NameId var = ctx.intern_var("x");
  {
    parallel::ThreadTeam team(kWorkers, ctx, [&](std::size_t) { ctx.read(var); });
    team.join();
  }
  // A retired buffer is only freed once every live thread has advanced
  // past its retirement — with the main thread still short of the last
  // retirement epoch, at least that buffer must still be held.
  EXPECT_LT(ctx.buffers_reclaimed(), kWorkers);
  ctx.flush();  // the drain advances main's epoch past every retirement
  EXPECT_EQ(ctx.buffers_reclaimed(), kWorkers);
  // Reclamation frees the buffer memory, not the accounting: the
  // retired threads' capture stats survive for buffer_stats readers.
  EXPECT_EQ(ctx.buffer_stats().size(), kWorkers + 1);
}

TEST(EpochReclaim, ScriptedForkJoinChurnReclaimsEveryBuffer) {
  TraceContext ctx;
  const NameId var = ctx.intern_var("x");
  const NameId site = ctx.intern_site("churn");
  constexpr std::uint64_t kChurn = 50;
  for (std::uint64_t i = 0; i < kChurn; ++i) {
    const ThreadId child = ctx.fork_thread(0);
    ctx.write_as(child, var, site);
    ctx.join_thread(0, child);
  }
  ctx.flush();
  EXPECT_EQ(ctx.buffers_reclaimed(), kChurn);
  // Exactly one writer at a time, joined in between: race-free.
  EXPECT_TRUE(ctx.detector().race_free());
}

TEST(EpochReclaim, RecordingAsAJoinedThreadThrows) {
  TraceContext ctx;
  const ThreadId child = ctx.fork_thread(0);
  ctx.join_thread(0, child);
  EXPECT_THROW(ctx.read_as(child, ctx.intern_var("x"), 0), cs31::Error);
}

TEST(EpochReclaim, MutexStreamModeReclaimsIdentically) {
  TraceContext::Options options;
  options.capture = CaptureMode::mutex_stream;
  TraceContext ctx(options);
  const NameId var = ctx.intern_var("x");
  for (int i = 0; i < 8; ++i) {
    const ThreadId child = ctx.fork_thread(0);
    ctx.write_as(child, var, 0);
    ctx.join_thread(0, child);
  }
  ctx.flush();
  EXPECT_EQ(ctx.buffers_reclaimed(), 8u);
}

}  // namespace
}  // namespace cs31::trace
