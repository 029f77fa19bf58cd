// JSON string quoting for every report writer in the kit: verdict
// lines, diagnostics, static-analysis summaries and the BENCH JSON.
#pragma once

#include <cstdio>
#include <string>

namespace cs31::common {

/// `text` as a JSON string literal: quote and backslash escaped, and
/// every control character as \n, \t or \u00XX.
inline std::string json_quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace cs31::common
