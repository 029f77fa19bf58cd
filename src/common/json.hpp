// JSON string quoting for every report writer in the kit: verdict
// lines, diagnostics, static-analysis summaries and the BENCH JSON.
#pragma once

#include <string>
#include <string_view>

namespace cs31::common {

/// Append `text` to `out` as a JSON string literal: quote and backslash
/// escaped, and every control character as \n, \t or \u00XX. Runs of
/// characters that need no escape are copied in one step.
inline void json_quote(std::string& out, std::string_view text) {
  out += '"';
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (static_cast<unsigned char>(c) >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += "0123456789abcdef"[c >> 4];
        out += "0123456789abcdef"[c & 0xf];
    }
  }
  out.append(text.data() + run, text.size() - run);
  out += '"';
}

/// `text` as a JSON string literal (see the appending form).
inline std::string json_quote(std::string_view text) {
  std::string out;
  json_quote(out, text);
  return out;
}

}  // namespace cs31::common
