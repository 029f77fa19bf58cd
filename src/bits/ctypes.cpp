#include "bits/ctypes.hpp"

#include <sstream>

#include "common/error.hpp"

namespace cs31::bits {

const std::vector<CTypeInfo>& all_ctypes() {
  static const std::vector<CTypeInfo> kTypes = {
      {CType::Char, "char", 1, true, true},
      {CType::UnsignedChar, "unsigned char", 1, true, false},
      {CType::Short, "short", 2, true, true},
      {CType::UnsignedShort, "unsigned short", 2, true, false},
      {CType::Int, "int", 4, true, true},
      {CType::UnsignedInt, "unsigned int", 4, true, false},
      {CType::Long, "long", 8, true, true},
      {CType::UnsignedLong, "unsigned long", 8, true, false},
      {CType::Float, "float", 4, false, true},
      {CType::Double, "double", 8, false, true},
      {CType::Pointer, "void*", 8, false, false},
  };
  return kTypes;
}

const CTypeInfo& ctype_info(CType t) {
  for (const CTypeInfo& info : all_ctypes()) {
    if (info.type == t) return info;
  }
  throw Error("unknown CType");
}

namespace {
const CTypeInfo& integer_info(CType t) {
  const CTypeInfo& info = ctype_info(t);
  if (!info.is_integer) throw Error(info.name + " is not an integer type");
  return info;
}
}  // namespace

std::int64_t ctype_min(CType t) {
  const CTypeInfo& info = integer_info(t);
  return info.is_signed ? min_signed(info.size_bytes * 8) : 0;
}

std::uint64_t ctype_max(CType t) {
  const CTypeInfo& info = integer_info(t);
  if (info.is_signed) {
    return static_cast<std::uint64_t>(max_signed(info.size_bytes * 8));
  }
  return max_unsigned(info.size_bytes * 8);
}

Word ctype_increment(CType t, const Word& value) {
  const CTypeInfo& info = integer_info(t);
  const int w = info.size_bytes * 8;
  if (value.width() != w) throw Error("value width does not match " + info.name);
  return Word(add(value, Word(1, w)).pattern, w);
}

std::string ctype_table() {
  std::ostringstream out;
  out << "type            bytes  kind\n";
  for (const CTypeInfo& info : all_ctypes()) {
    out << info.name;
    for (std::size_t i = info.name.size(); i < 16; ++i) out << ' ';
    out << info.size_bytes << "      "
        << (info.is_integer ? (info.is_signed ? "signed integer" : "unsigned integer")
                            : "non-integer")
        << '\n';
  }
  return out.str();
}

}  // namespace cs31::bits
