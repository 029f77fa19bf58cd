// The kit's seeded PRNGs. Generators that must reproduce a corpus from
// a seed (isa::generate_program, race::generate_trace,
// race::generate_script) draw from SplitMix64; grader::make_scenario and
// the trace context's sampling capture draw from Xorshift32, whose
// exact stream gradebench's workloads and sampled verdicts are pinned
// to.
#pragma once

#include <cstdint>

namespace cs31::common {

/// splitmix64 (Steele, Lea & Flood) — tiny, well-mixed, and identical
/// on every platform, which std's distributions are not.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// next() reduced into [0, bound); 0 when bound == 0.
  std::uint64_t below(std::uint64_t bound) { return bound == 0 ? 0 : next() % bound; }

 private:
  std::uint64_t state_;
};

/// Marsaglia's xorshift32 (shifts 13, 17, 5): one 32-bit word of state.
class Xorshift32 {
 public:
  /// A zero seed would stick at zero forever; it is mapped to 1.
  explicit Xorshift32(std::uint32_t seed) : state_(seed == 0 ? 1 : seed) {}

  std::uint32_t next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 17;
    state_ ^= state_ << 5;
    return state_;
  }

  /// next() reduced into [0, bound); bound must be nonzero.
  std::uint32_t below(std::uint32_t bound) { return next() % bound; }

 private:
  std::uint32_t state_;
};

}  // namespace cs31::common
