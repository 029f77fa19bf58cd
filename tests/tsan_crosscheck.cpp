// tsan_crosscheck — one scenario per invocation, built for the
// -DCS31_SANITIZE=thread tier (tests/CMakeLists.txt registers the ctest
// entries only there). Each mode first gets the cs31::race verdict from
// a traced run (deterministic, no real UB thanks to TracedVar's hidden
// guard), then executes the *real* program so ThreadSanitizer can rule
// on the same buggy/clean pair:
//
//   buggy — the unsynchronized shared counter. cs31::race must flag it;
//           TSan must abort the raw run (the ctest entry is WILL_FAIL
//           with TSAN_OPTIONS=exitcode=66).
//   clean — the mutexed counter plus a traced real-thread barrier'd
//           ParallelLife::run, first with the inline detector, then
//           again through a sharded AnalysisPipeline. Both detectors
//           and TSan must stay silent — which certifies the
//           TraceContext capture layer (per-thread buffers, sync-stream
//           stamping, barrier drains) AND the pipeline's own threading
//           (bounded queues, router handoff, shard workers, the shared
//           name tables) as free of real races.
//   cv-clean — a producer/consumer handoff with correct wait/notify
//           discipline, traced through TracedCondVar (cs31::race must
//           be silent) and then raw through std::condition_variable
//           (TSan must be silent).
//   cv-buggy — the same handoff through a bare spin-on-a-flag, no
//           wait/notify: cs31::race must flag the payload, and the raw
//           run hands TSan an honest unsynchronized flag+payload pair.
//   storm — the lock-free capture design under pressure: concurrent
//           sync records on private and shared TracedMutexes, barrier-
//           free drains, and fork/join churn that exercises epoch-based
//           buffer reclamation. TSan rules on the capture machinery
//           itself.
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "life/life.hpp"
#include "parallel/sync.hpp"
#include "parallel/threads.hpp"
#include "trace/condvar.hpp"
#include "trace/context.hpp"
#include "trace/instrumented.hpp"
#include "trace/pipeline.hpp"

namespace {

using SC = cs31::parallel::SharedCounter;

int run_buggy() {
  const auto traced = SC::run_traced(SC::Mode::Unsynchronized, 2, 2000);
  if (!traced.race_detected) {
    std::fprintf(stderr, "FAIL: cs31::race missed the unsynchronized counter\n");
    return 2;
  }
  // The real thing: an honestly racy read-modify-write for TSan.
  const auto value = SC::run(SC::Mode::Unsynchronized, 2, 20000);
  std::printf("buggy: cs31::race flagged it; raw final count %llu "
              "(under TSan this run must have produced a report)\n",
              static_cast<unsigned long long>(value));
  return 0;  // nonzero only via TSAN_OPTIONS=exitcode — that's the check
}

int run_clean() {
  const auto traced = SC::run_traced(SC::Mode::MutexPerIncrement, 2, 2000);
  if (traced.race_detected) {
    std::fprintf(stderr, "FAIL: cs31::race flagged the mutexed counter\n");
    return 2;
  }
  const auto value = SC::run(SC::Mode::MutexPerIncrement, 2, 20000);
  if (value != 40000) {
    std::fprintf(stderr, "FAIL: mutexed counter lost updates (%llu)\n",
                 static_cast<unsigned long long>(value));
    return 3;
  }

  // A traced real-thread run: the capture layer's own synchronization
  // (thread-local buffers, stamped sync stream, barrier drains) runs
  // under TSan here and must be silent.
  cs31::trace::TraceContext ctx;
  cs31::life::ParallelLife life(cs31::life::Grid::random(12, 12, 0.3, 3), 3);
  life.run(2, {.ctx = &ctx});
  ctx.flush();
  if (!ctx.detector().race_free()) {
    std::fprintf(stderr, "FAIL: cs31::race flagged the barrier'd Life run\n");
    return 4;
  }

  // The same run with analysis off the critical path: capture threads
  // publish into the pipeline's bounded queues while the router and two
  // shard workers consume — every handoff in that machinery is real
  // concurrency TSan must find clean, and the certificate must still be
  // byte-identical to the inline detector's.
  {
    cs31::trace::AnalysisPipeline pipeline(
        cs31::trace::AnalysisPipeline::Options{.shards = 2, .queue_capacity = 2});
    cs31::trace::TraceContext piped_ctx(
        cs31::trace::TraceContext::Options{.own_detector = false});
    piped_ctx.attach_pipeline(pipeline);
    cs31::life::ParallelLife piped_life(cs31::life::Grid::random(12, 12, 0.3, 3), 3);
    piped_life.run(2, {.ctx = &piped_ctx});
    piped_ctx.flush();
    if (!pipeline.race_free()) {
      std::fprintf(stderr, "FAIL: the pipelined detector flagged the barrier'd Life run\n");
      return 5;
    }
    if (pipeline.summary() != ctx.detector().summary()) {
      std::fprintf(stderr, "FAIL: pipelined certificate differs from inline\n");
      return 6;
    }
  }
  std::printf("clean: cs31::race, the pipeline, and the raw runs agree — race-free\n");
  return 0;
}

// Traced producer/consumer handoff; `use_condvar` picks the correct
// wait/notify pairing or the buggy spin. Returns the race verdict.
bool traced_handoff_races(bool use_condvar) {
  cs31::trace::TraceContext ctx;
  cs31::trace::TracedVar<int> payload("payload", ctx);
  if (use_condvar) {
    cs31::trace::TracedMutex mutex("cv_mutex", ctx);
    cs31::trace::TracedCondVar cv("cv:ready", ctx);
    bool ready = false;
    cs31::parallel::ThreadTeam team(2, ctx, [&](std::size_t id) {
      if (id == 0) {
        payload.store(42, "produce");
        std::unique_lock<cs31::trace::TracedMutex> lock(mutex);
        ready = true;
        cv.notify_one();
      } else {
        std::unique_lock<cs31::trace::TracedMutex> lock(mutex);
        cv.wait(lock, [&] { return ready; });
        (void)payload.load("consume");
      }
    });
    team.join();
  } else {
    cs31::trace::TracedVar<int> flag("ready_flag", ctx);
    cs31::parallel::ThreadTeam team(2, ctx, [&](std::size_t id) {
      if (id == 0) {
        payload.store(42, "produce");
        flag.store(1, "publish flag");
      } else {
        int spins = 0;
        while (flag.load("poll flag") == 0 && spins < 200000) {
          ++spins;
          std::this_thread::yield();
        }
        (void)payload.load("consume");
      }
    });
    team.join();
  }
  ctx.flush();
  return !ctx.detector().race_free();
}

int run_cv_clean() {
  if (traced_handoff_races(/*use_condvar=*/true)) {
    std::fprintf(stderr, "FAIL: cs31::race flagged the wait/notify handoff\n");
    return 2;
  }
  // The real thing: std::condition_variable with the same discipline.
  // TSan must stay silent.
  int payload = 0;
  bool ready = false;
  std::mutex mutex;
  std::condition_variable cv;
  std::thread consumer([&] {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return ready; });
    if (payload != 42) std::fprintf(stderr, "FAIL: lost the payload\n");
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    payload = 42;
    ready = true;
  }
  cv.notify_one();
  consumer.join();
  std::printf("cv-clean: cs31::race and the raw wait/notify run agree — race-free\n");
  return 0;
}

int run_cv_buggy() {
  if (!traced_handoff_races(/*use_condvar=*/false)) {
    std::fprintf(stderr, "FAIL: cs31::race missed the spin-on-a-flag handoff\n");
    return 2;
  }
  // The real thing: an honest flag+payload pair with no synchronization
  // (volatile keeps the spin observing the store without making the
  // accesses atomic — TSan must report both variables).
  static int payload = 0;
  static volatile bool ready = false;
  std::thread producer([&] {
    payload = 42;
    ready = true;
  });
  int spins = 0;
  while (!ready && spins < 200000000) ++spins;
  const int got = payload;
  producer.join();
  std::printf("cv-buggy: cs31::race flagged it; raw spin read %d "
              "(under TSan this run must have produced a report)\n",
              got);
  return 0;  // nonzero only via TSAN_OPTIONS=exitcode — that's the check
}

// The lock-free capture layer under maximum concurrent pressure: real
// threads hammering sync records (the global stamp counter and the
// per-object seq counters via their traced primitives), interleaved
// drains (the barrier forces them mid-run), a joined-and-retired buffer
// per round of thread churn, and accesses riding the TLS-bound fast
// path — everything the refactor moved off the stream mutex. TSan must
// find no real race in the capture machinery itself, and the verdict
// must be race-free both capture modes.
int run_storm() {
  for (const auto mode : {cs31::trace::CaptureMode::lockfree,
                          cs31::trace::CaptureMode::mutex_stream}) {
    cs31::trace::TraceContext ctx(cs31::trace::TraceContext::Options{.capture = mode});
    constexpr std::size_t kThreads = 4;
    constexpr int kIters = 2000;
    std::vector<std::unique_ptr<cs31::trace::TracedMutex>> mutexes;
    for (std::size_t t = 0; t < kThreads; ++t) {
      mutexes.push_back(std::make_unique<cs31::trace::TracedMutex>(
          "storm_m" + std::to_string(t), ctx));
    }
    // One shared traced mutex too, so per-object seq counters see real
    // cross-thread contention, not just thread-private increments.
    auto shared = std::make_unique<cs31::trace::TracedMutex>("storm_shared", ctx);
    const cs31::trace::NameId var = ctx.intern_var("storm_var");
    const cs31::trace::NameId site = ctx.intern_site("storm");
    {
      cs31::parallel::ThreadTeam team(kThreads, ctx, [&](std::size_t who) {
        for (int i = 0; i < kIters; ++i) {
          mutexes[who]->lock();
          mutexes[who]->unlock();
          shared->lock();
          ctx.write(var, site);
          shared->unlock();
        }
      });
      team.join();
    }
    // Thread churn: fork/join cycles retire buffers while the main
    // thread keeps recording — epoch reclamation runs under TSan.
    for (int round = 0; round < 8; ++round) {
      cs31::parallel::ThreadTeam churn(2, ctx, [&](std::size_t) {
        shared->lock();
        ctx.write(var, site);
        shared->unlock();
      });
      churn.join();
    }
    ctx.flush();
    if (!ctx.detector().race_free()) {
      std::fprintf(stderr, "FAIL: cs31::race flagged the mutex-disciplined storm\n");
      return 2;
    }
    if (mode == cs31::trace::CaptureMode::lockfree && ctx.buffers_reclaimed() == 0) {
      std::fprintf(stderr, "FAIL: epoch reclamation never freed a retired buffer\n");
      return 3;
    }
  }
  std::printf("storm: lock-free capture, drains, and reclamation are TSan-clean\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "buggy") return run_buggy();
  if (mode == "clean") return run_clean();
  if (mode == "cv-buggy") return run_cv_buggy();
  if (mode == "cv-clean") return run_cv_clean();
  if (mode == "storm") return run_storm();
  std::fprintf(stderr, "usage: tsan_crosscheck buggy|clean|cv-buggy|cv-clean|storm\n");
  return 64;
}
