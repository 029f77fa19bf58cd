#include "grader/cache.hpp"

namespace cs31::grader {

Verdict VerdictCache::get_or_compute(ContentHash hash, const Submission& submission,
                                     const std::function<Verdict()>& compute) {
  const auto it = entries_.find(hash);
  if (it != entries_.end() && it->second.kind == submission.kind &&
      it->second.body == submission.body) {
    ++hits_;
    return it->second.verdict;
  }
  ++misses_;

  Verdict verdict;
  try {
    verdict = compute();
  } catch (const std::exception& e) {
    verdict.status = "grader_error";
    verdict.score = 0;
    verdict.notes = {e.what()};
  } catch (...) {
    verdict.status = "grader_error";
    verdict.score = 0;
    verdict.notes = {"unknown exception in toolchain"};
  }
  // A colliding body is graded but not stored: the entry stays with the
  // body that claimed the hash first.
  if (it == entries_.end()) {
    entries_.emplace(hash, Entry{submission.kind, submission.body, verdict});
  }
  return verdict;
}

VerdictCache::Stats VerdictCache::stats() const {
  return Stats{hits_, misses_, 0, entries_.size()};
}

}  // namespace cs31::grader
