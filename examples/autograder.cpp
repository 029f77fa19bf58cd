// The grading service, end to end: a teaching tour of cs31::grader in
// four acts — one submission of each kind through the toolchain, a
// deadline-hour duplicate storm served by the workers' verdict caches, a
// poison batch that cannot take the worker pool down, and the
// determinism contract (same batch, any worker count, byte-identical
// reports).
#include <cstdio>
#include <string>

#include "grader/loadgen.hpp"
#include "grader/service.hpp"

using namespace cs31::grader;

namespace {

void act(int n, const char* title) { std::printf("\n=== Act %d: %s ===\n\n", n, title); }

GraderService::Options quick_options(std::size_t workers) {
  GraderService::Options options;
  options.workers = workers;
  options.limits = ToolchainLimits{100'000, 5.0};
  return options;
}

}  // namespace

int main() {
  std::printf("cs31::grader — the course toolchain as a batch grading service\n");

  act(1, "one submission of each kind");
  {
    GraderService service(quick_options(2));
    service.submit({"alice/hw3", SubmissionKind::MiniC, mini_c_body(41)});
    service.submit({"bob/lab4", SubmissionKind::Assembly, assembly_body(17)});
    service.submit({"carol/lab10", SubmissionKind::LifeTrace,
                    life_body(2, /*with_barrier=*/true)});
    service.submit({"dave/lab10", SubmissionKind::LifeTrace,
                    life_body(2, /*with_barrier=*/false)});  // forgot the barrier
    service.wait_idle();
    std::printf("%s", service.report_stream().c_str());
    std::printf("\nDave forgot the per-round barrier — the FastTrack detector names the\n"
                "racing band accesses right in his report.\n");
  }

  act(2, "deadline hour: a duplicate storm hits the verdict cache");
  {
    const LoadPlan storm = make_scenario("duplicate_storm", 256, 1);
    GraderService service(quick_options(4));
    service.submit_all(storm.submissions);
    service.wait_idle();
    const auto stats = service.stats();
    std::printf("submissions graded   %8llu\n",
                static_cast<unsigned long long>(stats.graded));
    std::printf("toolchain runs       %8llu  (one per distinct body)\n",
                static_cast<unsigned long long>(stats.toolchain_runs));
    std::printf("cache hits           %8llu\n",
                static_cast<unsigned long long>(stats.cache.hits));
    std::printf("\nDuplicates hash to one worker, whose cache serves every copy after\n"
                "the first — no lock, no waiting on another worker.\n");
  }

  act(3, "poison submissions cannot take the pool down");
  {
    const LoadPlan poison = make_scenario("poison", 32, 5);
    GraderService service(quick_options(4));
    service.submit_all(poison.submissions);
    service.wait_idle();
    std::printf("graded %llu/%zu — infinite loops come back as \"timeout\", syntax\n"
                "errors as \"compile_error\", malformed configs as \"invalid\"; every\n"
                "worker is still alive:\n\n",
                static_cast<unsigned long long>(service.stats().graded),
                poison.submissions.size());
    for (const std::string& line : service.report_lines()) {
      if (line.find("poison/") != std::string::npos) std::printf("%s\n", line.c_str());
    }
  }

  act(4, "determinism: worker count changes wall-clock, never the reports");
  {
    const LoadPlan plan = make_scenario("steady", 24, 3);
    std::string streams[2];
    const std::size_t worker_counts[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
      GraderService service(quick_options(worker_counts[i]));
      service.submit_all(plan.submissions);
      service.wait_idle();
      streams[i] = service.report_stream();
    }
    std::printf("1 worker vs 4 workers, same 24-submission batch: report streams are %s\n",
                streams[0] == streams[1] ? "BYTE-IDENTICAL" : "DIFFERENT (bug!)");
  }

  std::printf("\nDone. bench_grader measures sustained submissions/s, cold vs warm.\n");
  return 0;
}
