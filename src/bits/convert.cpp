#include "bits/convert.hpp"

#include <cctype>

#include "common/error.hpp"

namespace cs31::bits {

std::string to_binary(std::uint64_t pattern, int width) {
  require(width >= 1 && width <= 64, "width must be in [1, 64]");
  std::string out(static_cast<std::size_t>(width), '0');
  for (int i = 0; i < width; ++i) {
    if ((pattern >> i) & 1u) out[static_cast<std::size_t>(width - 1 - i)] = '1';
  }
  return out;
}

std::string to_binary_grouped(std::uint64_t pattern, int width) {
  const std::string raw = to_binary(pattern, width);
  std::string out;
  // Group from the least-significant end so partial groups land on the left.
  const int lead = width % 4;
  for (int i = 0; i < width; ++i) {
    if (i != 0 && (i - lead) % 4 == 0) out.push_back(' ');
    out.push_back(raw[static_cast<std::size_t>(i)]);
  }
  return out;
}

std::string to_hex(std::uint64_t pattern, int width) {
  require(width >= 1 && width <= 64, "width must be in [1, 64]");
  const int nibbles = (width + 3) / 4;
  static const char digits[] = "0123456789abcdef";
  std::string out = "0x";
  for (int i = nibbles - 1; i >= 0; --i) {
    out.push_back(digits[(pattern >> (4 * i)) & 0xF]);
  }
  return out;
}

namespace {

std::string strip(const std::string& text, const char* prefix) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (!std::isspace(static_cast<unsigned char>(c))) out.push_back(c);
  }
  if (out.rfind(prefix, 0) == 0) out.erase(0, 2);
  return out;
}

}  // namespace

std::uint64_t parse_binary(const std::string& text) {
  const std::string s = strip(text, "0b");
  require(!s.empty(), "empty binary literal");
  require(s.size() <= 64, "binary literal longer than 64 bits");
  std::uint64_t v = 0;
  for (char c : s) {
    if (c != '0' && c != '1') throw Error(std::string("bad binary digit '") + c + "'");
    v = (v << 1) | static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

std::uint64_t parse_hex(const std::string& text) {
  const std::string s = strip(text, "0x");
  require(!s.empty(), "empty hex literal");
  require(s.size() <= 16, "hex literal longer than 64 bits");
  std::uint64_t v = 0;
  for (char c : s) {
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = 10 + (c - 'a');
    else if (c >= 'A' && c <= 'F') d = 10 + (c - 'A');
    else throw Error(std::string("bad hex digit '") + c + "'");
    v = (v << 4) | static_cast<std::uint64_t>(d);
  }
  return v;
}

Word parse_decimal(const std::string& text, int width) {
  require(!text.empty(), "empty decimal literal");
  std::size_t i = 0;
  bool neg = false;
  if (text[0] == '-') { neg = true; i = 1; }
  require(i < text.size(), "decimal literal with no digits");
  std::uint64_t mag = 0;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (c < '0' || c > '9') throw Error(std::string("bad decimal digit '") + c + "'");
    const std::uint64_t d = static_cast<std::uint64_t>(c - '0');
    require(mag <= (~std::uint64_t{0} - d) / 10, "decimal literal overflows 64 bits");
    mag = mag * 10 + d;
  }
  if (neg) {
    // Magnitude may be |min| = max_signed + 1, which has no positive signed
    // encoding, so build the two's-complement pattern directly.
    if (mag > static_cast<std::uint64_t>(max_signed(width)) + 1) {
      throw Error("negative value out of signed range at width " + std::to_string(width));
    }
    return Word((~mag + 1) & low_mask(width), width);
  }
  return Word::from_unsigned(mag, width);
}

ConversionRow conversion_row(const Word& w) {
  return ConversionRow{
      .binary = to_binary_grouped(w.pattern(), w.width()),
      .hex = to_hex(w.pattern(), w.width()),
      .as_unsigned = w.as_unsigned(),
      .as_signed = w.as_signed(),
  };
}

}  // namespace cs31::bits
