// Concurrency-outcome enumeration for the "identify possible outputs
// from concurrent processes" homework: given the per-process output
// sequences after a fork, enumerate every interleaving that respects
// program order, and check whether a claimed output is possible.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace cs31::os {

/// Stream every interleaving of the given sequences (each sequence's
/// internal order preserved) to `visit`, one at a time, without ever
/// materializing the full set — the race explorer and the replay engine
/// walk million-interleaving spaces through this. Visit order is the
/// depth-first position-choice order (always advance the lowest-indexed
/// sequence first), which is deterministic but NOT sorted.
///
/// Duplicates: enumeration is over position choices (the multinomial
/// space), so when two *different* sequences share equal items the same
/// output vector can be visited once per choice path. Callers that need
/// distinct outputs dedup themselves (`all_interleavings` does);
/// thread-tagged replay scripts never collide because the tag makes
/// every sequence's items unique to it.
///
/// `visit` returns false to stop early. `limit` (0 = unbounded) caps
/// the number of visits. Returns true iff enumeration ran to
/// completion — false means `visit` said stop or the limit bound.
[[nodiscard]] bool for_each_interleaving(
    const std::vector<std::vector<std::string>>& sequences,
    const std::function<bool(const std::vector<std::string>&)>& visit,
    std::uint64_t limit = 0);

/// All distinct interleavings, materialized and sorted — a thin
/// collecting wrapper over for_each_interleaving. Throws cs31::Error
/// when the number of *distinct* interleavings would exceed `limit`
/// (multinomial blow-up guard).
[[nodiscard]] std::vector<std::vector<std::string>> all_interleavings(
    const std::vector<std::vector<std::string>>& sequences, std::size_t limit = 100000);

/// Is `claimed` one of the possible interleavings? Runs in
/// O(product of positions) via memoized search, so it works even when
/// enumerating everything would not.
[[nodiscard]] bool is_possible_output(const std::vector<std::vector<std::string>>& sequences,
                                      const std::vector<std::string>& claimed);

/// Number of distinct interleavings (counting duplicates produced by
/// equal items once each position choice is made — i.e. the multinomial
/// count over positions, not deduplicated content). Saturates at
/// UINT64_MAX instead of silently wrapping; `saturated` reports when it
/// did, so callers can print ">1.8e19" honestly instead of a garbage
/// exact-looking number.
[[nodiscard]] std::uint64_t interleaving_count(
    const std::vector<std::vector<std::string>>& sequences, bool& saturated);

/// Same count from the sequence lengths alone.
[[nodiscard]] std::uint64_t interleaving_count(std::span<const std::size_t> lengths,
                                               bool& saturated);

/// Convenience overload when the caller does not care about saturation
/// (the value is still saturating, never wrapped).
[[nodiscard]] std::uint64_t interleaving_count(
    const std::vector<std::vector<std::string>>& sequences);

}  // namespace cs31::os
