// Uniform machine-readable output for every bench_* target.
//
// Each bench main constructs one JsonReport from its argv; the report
// swallows the two harness flags so the bench's own flag parsing (if
// any) never sees them:
//
//   --json[=DIR]       enable JSON output; write BENCH_<name>.json into
//                      DIR (default: the current directory)
//   --timestamp=TEXT   opaque run timestamp recorded verbatim — passed
//                      in by the harness so reports are reproducible
//                      and the benches stay clock-free
//
// The schema is fixed across all benches:
//
//   {
//     "bench": "<name>",
//     "workload": "<one-line description of what was measured>",
//     "timestamp": "<harness-provided, may be empty>",
//     "config": { ... },     // knobs: sizes, thread counts, policies
//     "metrics": { ... }     // results: seconds, rates, counts
//   }
//
// config/metric calls are cheap no-ops when --json is absent, so the
// human-readable tables stay the primary interface and the JSON rides
// along. Keys keep insertion order. Non-finite doubles serialize as
// null (JSON has no NaN/inf).
#pragma once

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace cs31::bench {

class JsonReport {
 public:
  /// Parses and removes `--json[=DIR]` and `--timestamp=TEXT` from
  /// argv (adjusting argc), so later argv scans in the bench see only
  /// their own flags.
  JsonReport(std::string name, int& argc, char** argv) : name_(std::move(name)) {
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strcmp(arg, "--json") == 0) {
        enabled_ = true;
      } else if (std::strncmp(arg, "--json=", 7) == 0) {
        enabled_ = true;
        dir_ = arg + 7;
      } else if (std::strncmp(arg, "--timestamp=", 12) == 0) {
        timestamp_ = arg + 12;
      } else {
        argv[kept++] = argv[i];
      }
    }
    argc = kept;
  }

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  /// Writes on destruction if `write()` was never called explicitly.
  ~JsonReport() {
    if (enabled_ && !written_) write();
  }

  [[nodiscard]] bool enabled() const { return enabled_; }

  void workload(std::string description) { workload_ = std::move(description); }

  void config(const std::string& key, const std::string& value) {
    add(config_, key, common::json_quote(value));
  }
  void config(const std::string& key, const char* value) {
    add(config_, key, common::json_quote(value));
  }
  void config(const std::string& key, double value) { add(config_, key, number(value)); }
  void config(const std::string& key, bool value) {
    add(config_, key, value ? "true" : "false");
  }
  template <typename Int, typename = std::enable_if_t<std::is_integral_v<Int>>>
  void config(const std::string& key, Int value) {
    add(config_, key, integer(value));
  }

  void metric(const std::string& key, const std::string& value) {
    add(metrics_, key, common::json_quote(value));
  }
  void metric(const std::string& key, const char* value) {
    add(metrics_, key, common::json_quote(value));
  }
  void metric(const std::string& key, double value) { add(metrics_, key, number(value)); }
  void metric(const std::string& key, bool value) {
    add(metrics_, key, value ? "true" : "false");
  }
  template <typename Int, typename = std::enable_if_t<std::is_integral_v<Int>>>
  void metric(const std::string& key, Int value) {
    add(metrics_, key, integer(value));
  }

  /// Writes BENCH_<name>.json (no-op unless --json was given). Returns
  /// false when the file could not be opened.
  bool write() {
    written_ = true;
    if (!enabled_) return true;
    const std::string path = dir_ + "/BENCH_" + name_ + ".json";
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench_json: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(out, "{\n  \"bench\": %s,\n  \"workload\": %s,\n  \"timestamp\": %s,\n",
                 common::json_quote(name_).c_str(), common::json_quote(workload_).c_str(),
                 common::json_quote(timestamp_).c_str());
    emit(out, "config", config_);
    std::fprintf(out, ",\n");
    emit(out, "metrics", metrics_);
    std::fprintf(out, "\n}\n");
    std::fclose(out);
    std::printf("\n[json] wrote %s\n", path.c_str());
    return true;
  }

 private:
  using Fields = std::vector<std::pair<std::string, std::string>>;

  static void add(Fields& fields, const std::string& key, std::string encoded) {
    for (auto& [k, v] : fields) {
      if (k == key) {
        v = std::move(encoded);  // last write wins, order kept
        return;
      }
    }
    fields.emplace_back(key, std::move(encoded));
  }

  static std::string number(double value) {
    if (!std::isfinite(value)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", value);
    return buf;
  }

  template <typename Int>
  static std::string integer(Int value) {
    char buf[32];
    if constexpr (std::is_signed_v<Int>) {
      std::snprintf(buf, sizeof buf, "%" PRId64, static_cast<std::int64_t>(value));
    } else {
      std::snprintf(buf, sizeof buf, "%" PRIu64, static_cast<std::uint64_t>(value));
    }
    return buf;
  }

  static void emit(std::FILE* out, const char* section, const Fields& fields) {
    std::fprintf(out, "  \"%s\": {", section);
    const char* sep = "\n";
    for (const auto& [key, value] : fields) {
      std::fprintf(out, "%s    %s: %s", sep, common::json_quote(key).c_str(),
                   value.c_str());
      sep = ",\n";
    }
    std::fprintf(out, fields.empty() ? "}" : "\n  }");
  }

  std::string name_;
  std::string workload_;
  std::string timestamp_;
  std::string dir_ = ".";
  Fields config_;
  Fields metrics_;
  bool enabled_ = false;
  bool written_ = false;
};

}  // namespace cs31::bench
