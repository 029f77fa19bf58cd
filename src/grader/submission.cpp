#include "grader/submission.hpp"

#include <cstdio>

#include "common/error.hpp"

namespace cs31::grader {

std::string to_string(SubmissionKind kind) { return std::string(kind_name(kind)); }

std::string_view kind_name(SubmissionKind kind) {
  switch (kind) {
    case SubmissionKind::MiniC: return "mini_c";
    case SubmissionKind::Assembly: return "assembly";
    case SubmissionKind::LifeTrace: return "life_trace";
    case SubmissionKind::Script: return "script";
  }
  throw Error("unknown submission kind");
}

ContentHash content_hash(SubmissionKind kind, const std::string& body) {
  // FNV-1a, 64-bit. The kind tag is folded in first so identical bytes
  // under different toolchains never share a cache line.
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint8_t>(kind));
  for (const char c : body) mix(static_cast<std::uint8_t>(c));
  return h;
}

void hash_hex(std::string& out, ContentHash hash) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(hash));
  out += buf;
}

std::string hash_hex(ContentHash hash) {
  std::string out;
  hash_hex(out, hash);
  return out;
}

}  // namespace cs31::grader
