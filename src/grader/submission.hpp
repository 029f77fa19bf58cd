// What the grading service ingests: one student submission — a mini-C
// source, a teaching-ISA assembly program, or a traced-Life scenario
// config — plus the content hash that keys the verdict cache.
//
// The hash covers the submission *kind* and *body* and nothing else:
// two students handing in byte-identical solutions (or one student
// resubmitting unchanged) collapse to one toolchain run, while the
// same bytes submitted as mini-C and as assembly stay distinct. The
// submission id (who/when) deliberately does not participate — it
// belongs to the report envelope, never to the graded verdict.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace cs31::grader {

enum class SubmissionKind {
  MiniC,      ///< mini-C source; compiled, linted, and executed
  Assembly,   ///< AT&T-subset assembly; assembled, linted, and executed
  LifeTrace,  ///< traced-Life scenario config; race-checked
  Script,     ///< per-thread op scripts; statically analyzed, then explored
};

/// The kind's wire name: "mini_c", "assembly", "life_trace", "script".
[[nodiscard]] std::string_view kind_name(SubmissionKind kind);
[[nodiscard]] std::string to_string(SubmissionKind kind);

/// One submission. `id` is the envelope label ("alice/hw4/try2");
/// `body` is the graded content.
struct Submission {
  std::string id;
  SubmissionKind kind = SubmissionKind::MiniC;
  std::string body;
};

/// 64-bit content hash (FNV-1a over the kind tag and the body bytes).
/// It picks the owning worker and the cache entry; collisions can be
/// built, so the cache compares kind and body before it serves a hit.
using ContentHash = std::uint64_t;

[[nodiscard]] ContentHash content_hash(SubmissionKind kind, const std::string& body);
[[nodiscard]] inline ContentHash content_hash(const Submission& s) {
  return content_hash(s.kind, s.body);
}

/// Fixed-width lowercase hex ("0x" + 16 digits) for reports; the
/// first form appends it to `out`.
void hash_hex(std::string& out, ContentHash hash);
[[nodiscard]] std::string hash_hex(ContentHash hash);

}  // namespace cs31::grader
