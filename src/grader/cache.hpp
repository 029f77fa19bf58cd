// The content-hash verdict cache: hash → rendered verdict. A grading
// service's best workload is its most redundant one — a deadline-hour
// "duplicate storm" where thousands of students submit the starter code,
// the posted solution, or their own unchanged file — and a sound cache
// turns all of it into one toolchain run per distinct body.
//
// Soundness rests on the toolchain contract (toolchain.hpp): a verdict
// is a pure deterministic function of (kind, body), so a cached verdict
// is indistinguishable from recomputing. The hash only finds the entry;
// the entry keeps the kind and body it was graded from, and a lookup
// whose bytes differ (a 64-bit FNV-1a collision, which can be built on
// purpose) is a miss: it is graded afresh and not stored, so the entry
// keeps serving the body it belongs to.
//
// Render once: an entry keeps the kind, the body (moved in, not copied)
// and the verdict as the JSON its report lines splice in, not as a
// Verdict, so a hit is a lookup and a compare: no run, no re-render.
//
// Single owner, no lock (perfbook's data ownership): GraderService
// routes every copy of a body to the one worker that owns its hash, and
// each worker owns a private cache and grades one job at a time. No two
// threads ever touch one cache, so the map and its counters are plain.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "grader/submission.hpp"
#include "grader/toolchain.hpp"

namespace cs31::grader {

class VerdictCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;       ///< a stored verdict was served
    std::uint64_t misses = 0;     ///< this call ran the toolchain
    std::uint64_t collapsed = 0;  ///< waited on another thread's compute: 0 by construction
    std::size_t entries = 0;      ///< distinct bodies resident
  };

  /// The rendered verdict (Verdict::to_json) for `submission`, whose
  /// content hash is `hash`, running `compute` only when no entry holds
  /// the same kind and body. A stored miss moves `submission.body` into
  /// the new entry. If compute throws, the exception becomes a (cached)
  /// "grader_error" verdict — a grader bug poisons one body's verdict,
  /// not the service. The reference is valid until the next call.
  const std::string& get_or_compute(ContentHash hash, Submission& submission,
                                    const std::function<Verdict()>& compute);

  [[nodiscard]] Stats stats() const;

 private:
  struct Entry {
    SubmissionKind kind;
    std::string body;
    std::string json;  ///< the verdict, rendered
  };

  std::unordered_map<ContentHash, Entry> entries_;
  std::string uncached_;  ///< a colliding body's verdict, until the next call
  std::uint64_t hits_ = 0, misses_ = 0;
};

}  // namespace cs31::grader
