// Core types for the kit's IA-32 subset (CS 31 "Assembly Programming",
// Labs 4-5). The subset is exactly the instruction vocabulary the course
// teaches: data movement, arithmetic/logic, comparisons, condition-coded
// jumps, and the call/return + stack-frame instructions.
//
// Note on encoding: instructions assemble to a fixed 8-byte teaching
// encoding rather than genuine variable-length x86 machine code. The
// course's learning target is the *assembly language and its execution
// semantics* (registers, flags, addressing modes, the stack discipline),
// which this preserves; real byte-level encoding is out of scope and is
// recorded as a substitution in DESIGN.md.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cs31::isa {

/// The eight general-purpose IA-32 registers plus EIP.
enum class Reg : std::uint8_t {
  Eax = 0, Ecx = 1, Edx = 2, Ebx = 3, Esp = 4, Ebp = 5, Esi = 6, Edi = 7, Eip = 8,
};

/// AT&T register name ("%eax"), as the course's GDB sessions show.
[[nodiscard]] std::string reg_name(Reg r);

/// The four condition codes the course teaches. Lives here (not in
/// machine.hpp) so both execution cores — the teaching switch
/// interpreter and the predecoded fast core — share one definition.
struct Eflags {
  bool cf = false;  ///< carry
  bool zf = false;  ///< zero
  bool sf = false;  ///< sign
  bool of = false;  ///< signed overflow

  friend bool operator==(const Eflags&, const Eflags&) = default;
};

/// Parse "%eax" (or "eax"). Throws cs31::Error on an unknown name.
[[nodiscard]] Reg parse_reg(const std::string& name);

/// parse_reg over a view into the text, for the assembler's scanner
/// (its own name keeps `parse_reg("%eax")` unambiguous).
[[nodiscard]] Reg parse_reg_view(std::string_view name);

/// An effective-address expression disp(base, index, scale); any of the
/// three parts may be absent (scale defaults to 1).
struct MemRef {
  std::int32_t disp = 0;
  std::optional<Reg> base;
  std::optional<Reg> index;
  std::uint8_t scale = 1;  ///< 1, 2, 4, or 8

  friend bool operator==(const MemRef&, const MemRef&) = default;
};

/// One instruction operand: immediate, register, or memory reference.
struct Operand {
  enum class Kind { None, Imm, Reg, Mem } kind = Kind::None;
  std::int32_t imm = 0;
  Reg reg = Reg::Eax;
  MemRef mem;

  static Operand none() { return {}; }
  static Operand immediate(std::int32_t v) {
    Operand o; o.kind = Kind::Imm; o.imm = v; return o;
  }
  static Operand of_reg(Reg r) {
    Operand o; o.kind = Kind::Reg; o.reg = r; return o;
  }
  static Operand memory(MemRef m) {
    Operand o; o.kind = Kind::Mem; o.mem = m; return o;
  }

  friend bool operator==(const Operand&, const Operand&) = default;
};

/// Mnemonics of the subset. Jump targets are code addresses resolved by
/// the assembler from labels.
enum class Mnemonic : std::uint8_t {
  Mov, Add, Sub, Imul, And, Or, Xor, Not, Neg, Inc, Dec,
  Shl, Shr, Sar, Lea, Cmp, Test,
  Push, Pop, Call, Ret, Leave,
  Jmp, Je, Jne, Jg, Jge, Jl, Jle, Ja, Jae, Jb, Jbe, Js, Jns,
  Nop, Hlt,
};

/// Text of a mnemonic with the course's "l" operand-size suffix where
/// x86 convention uses one (movl, addl, ... but jmp/call/ret bare).
[[nodiscard]] std::string mnemonic_name(Mnemonic m);

/// One decoded instruction. AT&T operand order: src first, dst second.
struct Instruction {
  Mnemonic op = Mnemonic::Nop;
  Operand src;   ///< first written operand (source in AT&T)
  Operand dst;   ///< second written operand (destination in AT&T)
  std::uint32_t target = 0;  ///< jump/call target address

  friend bool operator==(const Instruction&, const Instruction&) = default;
};

/// Render one instruction in AT&T syntax; jump targets print as hex
/// addresses (the disassembler view students see in GDB).
[[nodiscard]] std::string to_string(const Instruction& ins);

/// Append the operand text of a non-jump instruction (" src, dst",
/// " dst" or nothing) to `out`, as to_string writes it after the
/// mnemonic.
void append_operands(std::string& out, const Instruction& ins);

/// Fixed size of every encoded instruction in the teaching encoding:
/// opcode byte, two 6-byte operand fields, padding. Jump/call targets
/// live in the (otherwise unused) destination immediate field.
inline constexpr std::uint32_t kInstrBytes = 16;

/// Encode to the 16-byte teaching format, written to `out[0..16)`.
void encode(const Instruction& ins, std::uint8_t* out);

/// Encode to the 16-byte teaching format.
[[nodiscard]] std::vector<std::uint8_t> encode(const Instruction& ins);

/// Decode 16 bytes back into an Instruction. Throws cs31::Error on a
/// malformed pattern (bad opcode/operand kind).
[[nodiscard]] Instruction decode(const std::uint8_t* bytes);

}  // namespace cs31::isa
