// The kit's one seeded PRNG. Generators that must reproduce a corpus
// from a seed (isa::generate_program, race::generate_trace,
// race::generate_script) all draw from it.
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

}  // namespace cs31::common
