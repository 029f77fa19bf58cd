#include "isa/ia32.hpp"

#include <algorithm>
#include <array>
#include <charconv>

#include "common/error.hpp"

namespace cs31::isa {

namespace {
constexpr std::array<const char*, 9> kRegNames = {
    "%eax", "%ecx", "%edx", "%ebx", "%esp", "%ebp", "%esi", "%edi", "%eip"};

constexpr std::array<const char*, 36> kMnemonicNames = {
    "movl", "addl", "subl", "imull", "andl", "orl", "xorl", "notl", "negl",
    "incl", "decl", "shll", "shrl", "sarl", "leal", "cmpl", "testl",
    "pushl", "popl", "call", "ret", "leave",
    "jmp", "je", "jne", "jg", "jge", "jl", "jle", "ja", "jae", "jb", "jbe",
    "js", "jns", "nop"};
}  // namespace

std::string reg_name(Reg r) {
  const auto i = static_cast<std::size_t>(r);
  require(i < kRegNames.size(), "bad register");
  return kRegNames[i];
}

Reg parse_reg_view(std::string_view name) {
  const std::string_view n = name.starts_with('%') ? name.substr(1) : name;
  for (std::size_t i = 0; i < kRegNames.size(); ++i) {
    if (n == kRegNames[i] + 1) return static_cast<Reg>(i);
  }
  throw Error("unknown register '" + std::string(name) + "'");
}

Reg parse_reg(const std::string& name) { return parse_reg_view(name); }

std::string mnemonic_name(Mnemonic m) {
  const auto i = static_cast<std::size_t>(m);
  if (m == Mnemonic::Hlt) return "hlt";
  require(i < kMnemonicNames.size(), "bad mnemonic");
  return kMnemonicNames[i];
}

namespace {

bool is_jump(Mnemonic m) {
  return m >= Mnemonic::Jmp && m <= Mnemonic::Jns;
}

void append_operand(std::string& out, const Operand& o) {
  switch (o.kind) {
    case Operand::Kind::None:
      break;
    case Operand::Kind::Imm:
      out += '$';
      out += std::to_string(o.imm);
      break;
    case Operand::Kind::Reg:
      out += reg_name(o.reg);
      break;
    case Operand::Kind::Mem: {
      if (o.mem.disp != 0 || (!o.mem.base && !o.mem.index)) {
        out += std::to_string(o.mem.disp);
      }
      if (o.mem.base || o.mem.index) {
        out += '(';
        if (o.mem.base) out += reg_name(*o.mem.base);
        if (o.mem.index) {
          out += ',';
          out += reg_name(*o.mem.index);
          out += ',';
          out += std::to_string(static_cast<int>(o.mem.scale));
        }
        out += ')';
      }
      break;
    }
  }
}

}  // namespace

void append_operands(std::string& out, const Instruction& ins) {
  const bool has_src = ins.src.kind != Operand::Kind::None;
  if (has_src) {
    out += ' ';
    append_operand(out, ins.src);
  }
  if (ins.dst.kind != Operand::Kind::None) {
    out += has_src ? ", " : " ";
    append_operand(out, ins.dst);
  }
}

std::string to_string(const Instruction& ins) {
  std::string out = mnemonic_name(ins.op);
  if (is_jump(ins.op) || ins.op == Mnemonic::Call) {
    char hex[8];
    const auto end = std::to_chars(hex, hex + sizeof hex, ins.target, 16).ptr;
    return out + " 0x" + std::string(hex, end);
  }
  append_operands(out, ins);
  return out;
}

namespace {

std::uint8_t scale_code(std::uint8_t scale) {
  switch (scale) {
    case 1: return 0;
    case 2: return 1;
    case 4: return 2;
    case 8: return 3;
  }
  throw Error("scale must be 1, 2, 4, or 8");
}

void encode_operand(const Operand& o, std::uint8_t* out) {
  // desc A: kind(2) | scale code(2) | has_base(1) | has_index(1)
  std::uint8_t a = static_cast<std::uint8_t>(o.kind);
  a |= static_cast<std::uint8_t>(scale_code(o.mem.scale) << 2);
  if (o.mem.base) a |= 1u << 4;
  if (o.mem.index) a |= 1u << 5;
  // desc B: reg(4) | base-or-index packing: low nibble = reg/base, high = index
  std::uint8_t b = 0;
  if (o.kind == Operand::Kind::Reg) b = static_cast<std::uint8_t>(o.reg);
  if (o.mem.base) b = static_cast<std::uint8_t>(*o.mem.base);
  if (o.mem.index) b |= static_cast<std::uint8_t>(static_cast<std::uint8_t>(*o.mem.index) << 4);
  const std::uint32_t imm =
      static_cast<std::uint32_t>(o.kind == Operand::Kind::Mem ? o.mem.disp : o.imm);
  out[0] = a;
  out[1] = b;
  for (int i = 0; i < 4; ++i) out[2 + i] = static_cast<std::uint8_t>(imm >> (8 * i));
}

Operand decode_operand(const std::uint8_t* p) {
  const std::uint8_t a = p[0];
  const std::uint8_t b = p[1];
  std::uint32_t raw = 0;
  for (int i = 0; i < 4; ++i) raw |= static_cast<std::uint32_t>(p[2 + i]) << (8 * i);
  const auto kind = static_cast<Operand::Kind>(a & 0x3u);
  Operand o;
  o.kind = kind;
  static constexpr std::uint8_t kScales[] = {1, 2, 4, 8};
  switch (kind) {
    case Operand::Kind::None:
      break;
    case Operand::Kind::Imm:
      o.imm = static_cast<std::int32_t>(raw);
      break;
    case Operand::Kind::Reg:
      require((b & 0xF) < 8, "bad register in encoded operand");
      o.reg = static_cast<Reg>(b & 0xF);
      break;
    case Operand::Kind::Mem:
      o.mem.disp = static_cast<std::int32_t>(raw);
      o.mem.scale = kScales[(a >> 2) & 0x3u];
      if (a & (1u << 4)) {
        require((b & 0xF) < 8, "bad base register");
        o.mem.base = static_cast<Reg>(b & 0xF);
      }
      if (a & (1u << 5)) {
        require((b >> 4) < 8, "bad index register");
        o.mem.index = static_cast<Reg>(b >> 4);
      }
      break;
  }
  return o;
}

}  // namespace

void encode(const Instruction& ins, std::uint8_t* out) {
  out[0] = static_cast<std::uint8_t>(ins.op);
  encode_operand(ins.src, out + 1);
  Operand dst = ins.dst;
  if (is_jump(ins.op) || ins.op == Mnemonic::Call) {
    dst = Operand::immediate(static_cast<std::int32_t>(ins.target));
  }
  encode_operand(dst, out + 7);
  std::fill(out + 13, out + kInstrBytes, std::uint8_t{0});
}

std::vector<std::uint8_t> encode(const Instruction& ins) {
  std::vector<std::uint8_t> out(kInstrBytes);
  encode(ins, out.data());
  return out;
}

Instruction decode(const std::uint8_t* bytes) {
  require(bytes != nullptr, "decode requires bytes");
  if (bytes[0] > static_cast<std::uint8_t>(Mnemonic::Hlt)) {
    throw Error("bad opcode " + std::to_string(bytes[0]));
  }
  Instruction ins;
  ins.op = static_cast<Mnemonic>(bytes[0]);
  ins.src = decode_operand(bytes + 1);
  ins.dst = decode_operand(bytes + 7);
  if (is_jump(ins.op) || ins.op == Mnemonic::Call) {
    ins.target = static_cast<std::uint32_t>(ins.dst.imm);
    ins.dst = Operand::none();
  }
  return ins;
}

}  // namespace cs31::isa
