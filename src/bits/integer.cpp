#include "bits/integer.hpp"

#include <limits>

#include "common/error.hpp"

namespace cs31::bits {

namespace {

void check_width(int width) {
  if (width < 1 || width > 64) {
    throw Error("bit width must be in [1, 64], got " + std::to_string(width));
  }
}

Flags flags_for(std::uint64_t pattern, int width, bool carry, bool overflow) {
  Flags f;
  f.zero = pattern == 0;
  f.sign = (pattern >> (width - 1)) & 1u;
  f.carry = carry;
  f.overflow = overflow;
  return f;
}

}  // namespace

std::uint64_t low_mask(int width) {
  check_width(width);
  return width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
}

Word::Word(std::uint64_t pattern, int width) : pattern_(pattern), width_(width) {
  check_width(width);
  if ((pattern & ~low_mask(width)) != 0) {
    throw Error("pattern has bits set beyond width " + std::to_string(width));
  }
}

Word Word::from_signed(std::int64_t value, int width) {
  check_width(width);
  if (value < min_signed(width) || value > max_signed(width)) {
    throw Error(std::to_string(value) + " not representable as signed " +
                std::to_string(width) + "-bit");
  }
  return Word(static_cast<std::uint64_t>(value) & low_mask(width), width);
}

Word Word::from_unsigned(std::uint64_t value, int width) {
  check_width(width);
  if (value > max_unsigned(width)) {
    throw Error(std::to_string(value) + " not representable as unsigned " +
                std::to_string(width) + "-bit");
  }
  return Word(value, width);
}

std::int64_t Word::as_signed() const {
  if (!msb()) return static_cast<std::int64_t>(pattern_);
  // Set all bits above the width: the two's-complement negative reading.
  return static_cast<std::int64_t>(pattern_ | ~low_mask(width_));
}

bool Word::msb() const { return (pattern_ >> (width_ - 1)) & 1u; }

bool Word::bit(int i) const {
  if (i < 0 || i >= width_) {
    throw Error("bit index " + std::to_string(i) + " out of range for width " +
                std::to_string(width_));
  }
  return (pattern_ >> i) & 1u;
}

ArithResult Word::negate() const {
  Word zero(0, width_);
  return sub(zero, *this);
}

Word Word::truncate(int new_width) const {
  check_width(new_width);
  require(new_width <= width_, "truncate cannot widen");
  return Word(pattern_ & low_mask(new_width), new_width);
}

Word Word::sign_extend(int new_width) const {
  check_width(new_width);
  require(new_width >= width_, "sign_extend cannot narrow");
  std::uint64_t p = pattern_;
  if (msb()) p |= low_mask(new_width) & ~low_mask(width_);
  return Word(p, new_width);
}

Word Word::zero_extend(int new_width) const {
  check_width(new_width);
  require(new_width >= width_, "zero_extend cannot narrow");
  return Word(pattern_, new_width);
}

std::int64_t min_signed(int width) {
  check_width(width);
  return width == 64 ? std::numeric_limits<std::int64_t>::min()
                     : -(std::int64_t{1} << (width - 1));
}

std::int64_t max_signed(int width) {
  check_width(width);
  return width == 64 ? std::numeric_limits<std::int64_t>::max()
                     : (std::int64_t{1} << (width - 1)) - 1;
}

std::uint64_t max_unsigned(int width) { return low_mask(width); }

ArithResult add(const Word& a, const Word& b) {
  require(a.width() == b.width(), "add requires equal widths");
  const int w = a.width();
  const std::uint64_t mask = low_mask(w);
  const std::uint64_t full = a.pattern() + b.pattern();  // cannot wrap: w<=64
  // For width 64 the sum can wrap the host integer; detect carry directly.
  bool carry;
  std::uint64_t pattern;
  if (w == 64) {
    pattern = full;
    carry = full < a.pattern();  // wrapped iff sum smaller than an operand
  } else {
    pattern = full & mask;
    carry = (full >> w) & 1u;
  }
  // Signed overflow: operands share a sign and the result's sign differs.
  const bool sa = a.msb(), sb = b.msb();
  const bool sr = (pattern >> (w - 1)) & 1u;
  const bool overflow = (sa == sb) && (sr != sa);
  return {pattern, flags_for(pattern, w, carry, overflow)};
}

ArithResult sub(const Word& a, const Word& b) {
  require(a.width() == b.width(), "sub requires equal widths");
  const int w = a.width();
  // a - b == a + ~b + 1 at width w, the way the Lab 3 ALU computes it.
  const Word nb(~b.pattern() & low_mask(w), w);
  ArithResult r = add(a, nb);
  // Fold in the +1; combine carries from the two additions.
  const Word one(1, w);
  ArithResult r2 = add(Word(r.pattern, w), one);
  const bool carry_out = r.flags.carry || r2.flags.carry;
  // Borrow occurred iff there was NO carry out of the two's-complement add.
  const bool borrow = !carry_out;
  // Signed overflow for subtraction: signs differ and result sign != a's.
  const bool overflow = (a.msb() != b.msb()) && (((r2.pattern >> (w - 1)) & 1u) != a.msb());
  return {r2.pattern, flags_for(r2.pattern, w, borrow, overflow)};
}

}  // namespace cs31::bits
