#include "grader/cache.hpp"

#include <utility>

namespace cs31::grader {

const std::string& VerdictCache::get_or_compute(ContentHash hash, Submission& submission,
                                                const std::function<Verdict()>& compute) {
  const auto it = entries_.find(hash);
  if (it != entries_.end() && it->second.kind == submission.kind &&
      it->second.body == submission.body) {
    ++hits_;
    return it->second.json;
  }
  ++misses_;

  Verdict verdict;
  try {
    verdict = compute();
  } catch (const std::exception& e) {
    verdict = Verdict{.status = "grader_error", .notes = {e.what()}};
  } catch (...) {
    verdict = Verdict{.status = "grader_error", .notes = {"unknown exception in toolchain"}};
  }
  // A colliding body is graded but not stored: the entry stays with the
  // body that claimed the hash first.
  if (it != entries_.end()) return uncached_ = verdict.to_json();
  return entries_
      .emplace(hash, Entry{submission.kind, std::move(submission.body), verdict.to_json()})
      .first->second.json;
}

VerdictCache::Stats VerdictCache::stats() const {
  return Stats{hits_, misses_, 0, entries_.size()};
}

}  // namespace cs31::grader
