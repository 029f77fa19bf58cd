#include "analyze/diagnostic.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>

#include "common/json.hpp"

namespace cs31::analyze {

using common::json_quote;

std::string to_string(Severity severity) {
  switch (severity) {
    case Severity::Note: return "note";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

namespace {

std::string hex_addr(std::uint32_t addr) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%x", addr);
  return buf;
}

}  // namespace

std::string Diagnostic::to_string() const {
  std::string out = analyze::to_string(severity);
  out.reserve(out.size() + pass.size() + function.size() + message.size() + 32);
  out.append("[").append(pass).append("]");
  if (has_addr) {
    out.append(" ").append(hex_addr(addr));
  } else if (line > 0) {
    out.append(" line ").append(std::to_string(line));
  }
  if (!function.empty()) out.append(" in '").append(function).append("'");
  out.append(": ").append(message);
  for (const std::string& note : notes) out.append("\n    note: ").append(note);
  return out;
}

std::string Diagnostic::to_json() const {
  std::ostringstream out;
  out << "{\"severity\":" << json_quote(analyze::to_string(severity))
      << ",\"pass\":" << json_quote(pass);
  if (!function.empty()) out << ",\"function\":" << json_quote(function);
  if (has_addr) {
    out << ",\"addr\":" << json_quote(hex_addr(addr));
  } else {
    out << ",\"line\":" << line;
  }
  out << ",\"message\":" << json_quote(message);
  if (!notes.empty()) {
    out << ",\"notes\":[";
    for (std::size_t i = 0; i < notes.size(); ++i) {
      out << (i ? "," : "") << json_quote(notes[i]);
    }
    out << ']';
  }
  out << '}';
  return out.str();
}

bool diagnostic_less(const Diagnostic& a, const Diagnostic& b) {
  if (a.line != b.line) return a.line < b.line;
  if (a.has_addr != b.has_addr) return !a.has_addr;  // line-located first
  if (a.addr != b.addr) return a.addr < b.addr;
  if (a.pass != b.pass) return a.pass < b.pass;
  if (a.function != b.function) return a.function < b.function;
  return a.message < b.message;
}

void normalize(std::vector<Diagnostic>& diagnostics) {
  std::stable_sort(diagnostics.begin(), diagnostics.end(), diagnostic_less);
  diagnostics.erase(std::unique(diagnostics.begin(), diagnostics.end()),
                    diagnostics.end());
}

std::string render(const std::vector<Diagnostic>& diagnostics) {
  std::string out;
  for (const Diagnostic& d : diagnostics) {
    out += d.to_string();
    out += '\n';
  }
  return out;
}

std::string render_json(const std::vector<Diagnostic>& diagnostics) {
  std::string out = "[";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    out += i ? "," : "";
    out += diagnostics[i].to_json();
  }
  out += ']';
  return out;
}

std::vector<Expectation> parse_expectations(const std::string& source) {
  std::vector<Expectation> out;
  static const std::string kTag = "expect:";
  std::size_t pos = 0;
  while ((pos = source.find(kTag, pos)) != std::string::npos) {
    std::size_t at = pos + kTag.size();
    while (at < source.size() && source[at] == ' ') ++at;
    Expectation e;
    while (at < source.size() &&
           (std::isalnum(static_cast<unsigned char>(source[at])) != 0 ||
            source[at] == '-' || source[at] == '_')) {
      e.pass += source[at++];
    }
    if (at < source.size() && source[at] == '@') {
      ++at;
      int line = 0;
      while (at < source.size() && std::isdigit(static_cast<unsigned char>(source[at])) != 0) {
        line = line * 10 + (source[at++] - '0');
      }
      e.line = line;
    }
    if (!e.pass.empty()) out.push_back(std::move(e));
    pos = at;
  }
  return out;
}

std::vector<std::string> verify_expected(const std::vector<Diagnostic>& diagnostics,
                                         const std::vector<Expectation>& expectations) {
  std::vector<std::string> complaints;
  std::vector<bool> claimed(expectations.size(), false);
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::Note) continue;
    bool matched = false;
    for (std::size_t i = 0; i < expectations.size(); ++i) {
      const Expectation& e = expectations[i];
      if (e.pass != d.pass) continue;
      if (e.line != 0 && e.line != d.line) continue;
      claimed[i] = true;
      matched = true;
    }
    if (!matched) complaints.push_back("unexpected diagnostic: " + d.to_string());
  }
  for (std::size_t i = 0; i < expectations.size(); ++i) {
    if (claimed[i]) continue;
    std::string where = expectations[i].line != 0
                            ? " on line " + std::to_string(expectations[i].line)
                            : "";
    complaints.push_back("expected a '" + expectations[i].pass + "' diagnostic" + where +
                         ", but the pass stayed quiet");
  }
  return complaints;
}

}  // namespace cs31::analyze
