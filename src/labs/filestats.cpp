#include "labs/filestats.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace cs31::labs {

Stats compute_stats(const std::vector<double>& values) {
  require(!values.empty(), "statistics need at least one value");
  Stats s;
  s.count = values.size();
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  double sum = 0;
  for (const double v : sorted) sum += v;
  s.mean = sum / static_cast<double>(sorted.size());
  const std::size_t mid = sorted.size() / 2;
  s.median = sorted.size() % 2 == 1 ? sorted[mid] : (sorted[mid - 1] + sorted[mid]) / 2.0;
  return s;
}

std::vector<double> parse_values(const std::string& text) {
  std::istringstream in(text);
  std::size_t count = 0;
  require(static_cast<bool>(in >> count), "stats file: missing count");
  std::vector<double> values;
  values.reserve(count);
  double v = 0;
  while (in >> v) values.push_back(v);
  if (values.size() != count) {
    throw Error("stats file: expected " + std::to_string(count) + " values, found " +
                std::to_string(values.size()));
  }
  return values;
}

Stats stats_from_text(const std::string& text) { return compute_stats(parse_values(text)); }

}  // namespace cs31::labs
