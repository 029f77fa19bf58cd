#include "grader/service.hpp"

#include <utility>

#include "common/error.hpp"

namespace cs31::grader {

GraderService::GraderService(Options options) : options_(options) {
  require(options_.workers >= 1, "grader needs at least one worker");
  require(options_.queue_capacity >= 1, "grader queue capacity must be >= 1");
  workers_.reserve(options_.workers);
  for (std::size_t w = 0; w < options_.workers; ++w) {
    workers_.push_back(std::make_unique<Worker>(options_.queue_capacity));
  }
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    worker->thread = std::thread([this, w] { worker_main(*w); });
  }
}

GraderService::~GraderService() {
  // Graceful drain, mirroring AnalysisPipeline: closed queues still
  // deliver what they hold, so everything submitted is graded.
  for (auto& worker : workers_) {
    worker->queue.close();
    if (worker->thread.joinable()) worker->thread.join();
  }
}

void GraderService::submit(Submission submission) {
  Job job;
  job.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  job.hash = content_hash(submission);
  job.submission = std::move(submission);
  {
    // Reserve the report slot up front so workers only ever write into
    // existing slots (no resize race between out-of-order finishers).
    std::scoped_lock lock(reports_mutex_);
    if (job.seq >= reports_.size()) reports_.resize(job.seq + 1);
  }
  workers_[job.hash % workers_.size()]->queue.push(std::move(job));
}

void GraderService::submit_all(std::vector<Submission> submissions) {
  for (Submission& s : submissions) submit(std::move(s));
}

void GraderService::worker_main(Worker& worker) {
  Job job;
  while (worker.queue.pop(job)) {
    std::string error_json;
    const std::string* verdict_json = &error_json;
    try {
      verdict_json = &worker.cache.get_or_compute(job.hash, job.submission, [this, &job] {
        return run_toolchain(job.submission, options_.limits);
      });
    } catch (const std::exception& e) {
      // Last-resort pool protection (the cache already converts compute
      // exceptions; this guards the cache's own plumbing): the
      // submission gets a report, the worker lives on.
      error_json = Verdict{.status = "grader_error", .notes = {e.what()}}.to_json();
    }
    finish(job, *verdict_json);
    ++worker.graded;
    job = Job{};
    worker.queue.done();
  }
}

void GraderService::finish(const Job& job, const std::string& verdict_json) {
  // Envelope first (who/what/which bytes), then the rendered verdict's
  // fields spliced in — one line, stable key order, one buffer.
  const std::string_view kind = kind_name(job.submission.kind);
  std::string line;
  // The envelope's keys, quotes and hash digits take 47 bytes.
  line.reserve(47 + job.submission.id.size() + kind.size() + verdict_json.size());
  line += "{\"id\":";
  json_quote(line, job.submission.id);
  line += ",\"kind\":";
  json_quote(line, kind);
  line += ",\"hash\":\"";
  hash_hex(line, job.hash);
  line += "\",";
  line.append(verdict_json, 1);  // drop the verdict's '{'
  std::scoped_lock lock(reports_mutex_);
  reports_[job.seq] = std::move(line);
}

void GraderService::wait_idle() {
  // submit() pushes before it returns, so draining every worker queue
  // proves every earlier submission has its report written.
  for (auto& worker : workers_) worker->queue.wait_drained();
}

std::string GraderService::report_stream() const {
  std::scoped_lock lock(reports_mutex_);
  std::string out;
  for (const std::string& line : reports_) {
    out += line;
    out += '\n';
  }
  return out;
}

std::vector<std::string> GraderService::report_lines() const {
  std::scoped_lock lock(reports_mutex_);
  return reports_;
}

GraderService::Stats GraderService::stats() const {
  Stats stats;
  stats.submitted = next_seq_.load(std::memory_order_relaxed);
  for (const auto& worker : workers_) {
    std::scoped_lock lock(worker->queue.mutex);
    stats.publish_waits += worker->queue.waits;
    stats.worker_waits += worker->queue.pop_waits;
    stats.graded += worker->graded;
    stats.graded_per_worker.push_back(worker->graded);
    const VerdictCache::Stats cache = worker->cache.stats();
    stats.cache.hits += cache.hits;
    stats.cache.misses += cache.misses;
    stats.cache.entries += cache.entries;
  }
  stats.toolchain_runs = stats.cache.misses;
  return stats;
}

}  // namespace cs31::grader
