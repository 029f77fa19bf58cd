#include "os/interleave.hpp"

#include <cstdint>
#include <map>
#include <set>

#include "common/error.hpp"

namespace cs31::os {

namespace {

/// Depth-first walk over the position-choice space; streams each
/// complete interleaving to the callback instead of accumulating.
struct Streamer {
  const std::vector<std::vector<std::string>>& seqs;
  const std::function<bool(const std::vector<std::string>&)>& visit;
  std::uint64_t limit = 0;  // 0 = unbounded
  std::uint64_t visited = 0;
  std::vector<std::size_t> pos;
  std::vector<std::string> current;

  /// False propagates a stop request (visit said no, or limit hit).
  bool walk() {
    bool leaf = true;
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      if (pos[i] < seqs[i].size()) {
        leaf = false;
        current.push_back(seqs[i][pos[i]]);
        ++pos[i];
        const bool keep_going = walk();
        --pos[i];
        current.pop_back();
        if (!keep_going) return false;
      }
    }
    if (leaf) {
      if (limit != 0 && visited >= limit) return false;
      ++visited;
      if (!visit(current)) return false;
    }
    return true;
  }
};

}  // namespace

bool for_each_interleaving(
    const std::vector<std::vector<std::string>>& sequences,
    const std::function<bool(const std::vector<std::string>&)>& visit,
    std::uint64_t limit) {
  Streamer streamer{sequences, visit, limit, 0, {}, {}};
  streamer.pos.assign(sequences.size(), 0);
  return streamer.walk();
}

std::vector<std::vector<std::string>> all_interleavings(
    const std::vector<std::vector<std::string>>& sequences, std::size_t limit) {
  std::set<std::vector<std::string>> out;
  (void)for_each_interleaving(sequences, [&](const std::vector<std::string>& order) {
    out.insert(order);
    require(out.size() <= limit, "interleaving enumeration exceeds the limit");
    return true;
  });
  return {out.begin(), out.end()};
}

bool is_possible_output(const std::vector<std::vector<std::string>>& sequences,
                        const std::vector<std::string>& claimed) {
  // Memoized DFS over position vectors.
  std::map<std::vector<std::size_t>, bool> memo;
  std::size_t total = 0;
  for (const auto& s : sequences) total += s.size();
  if (claimed.size() != total) return false;

  std::vector<std::size_t> pos(sequences.size(), 0);

  // Recursive lambda via explicit stack-free helper.
  struct Solver {
    const std::vector<std::vector<std::string>>& seqs;
    const std::vector<std::string>& claimed;
    std::map<std::vector<std::size_t>, bool>& memo;

    bool solve(std::vector<std::size_t>& pos, std::size_t k) {
      if (k == claimed.size()) return true;
      const auto it = memo.find(pos);
      if (it != memo.end()) return it->second;
      bool ok = false;
      for (std::size_t i = 0; i < seqs.size() && !ok; ++i) {
        if (pos[i] < seqs[i].size() && seqs[i][pos[i]] == claimed[k]) {
          ++pos[i];
          ok = solve(pos, k + 1);
          --pos[i];
        }
      }
      memo[pos] = ok;
      return ok;
    }
  };
  Solver solver{sequences, claimed, memo};
  return solver.solve(pos, 0);
}

std::uint64_t interleaving_count(const std::vector<std::vector<std::string>>& sequences,
                                 bool& saturated) {
  std::vector<std::size_t> lengths;
  lengths.reserve(sequences.size());
  for (const auto& seq : sequences) lengths.push_back(seq.size());
  return interleaving_count(lengths, saturated);
}

std::uint64_t interleaving_count(std::span<const std::size_t> lengths, bool& saturated) {
  // Multinomial coefficient: (sum n_i)! / prod(n_i!) computed
  // incrementally; the running value is always an exact binomial, so
  // result * placed is divisible by k. Checked multiplication: once the
  // intermediate product would overflow uint64, latch UINT64_MAX (the
  // true count only grows from there — every remaining factor
  // placed/k is >= 1).
  saturated = false;
  std::uint64_t result = 1;
  std::uint64_t placed = 0;
  for (const std::size_t length : lengths) {
    for (std::uint64_t k = 1; k <= length; ++k) {
      ++placed;
      std::uint64_t scaled = 0;
      if (saturated || __builtin_mul_overflow(result, placed, &scaled)) {
        saturated = true;
        result = UINT64_MAX;
      } else {
        result = scaled / k;
      }
    }
  }
  return result;
}

std::uint64_t interleaving_count(const std::vector<std::vector<std::string>>& sequences) {
  bool saturated = false;
  return interleaving_count(sequences, saturated);
}

}  // namespace cs31::os
