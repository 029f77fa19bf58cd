// Assembler tests: AT&T operand parsing, two-pass label resolution,
// encode/decode round trips, disassembly, and diagnostics.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "ccomp/codegen.hpp"
#include "ccomp/parser.hpp"
#include "common/error.hpp"
#include "grader/loadgen.hpp"
#include "isa/assembler.hpp"
#include "isa/ia32.hpp"
#include "isa/program_gen.hpp"
#include "isa/samples.hpp"

namespace cs31::isa {
namespace {

TEST(Operands, ParsesImmediates) {
  EXPECT_EQ(parse_operand("$5"), Operand::immediate(5));
  EXPECT_EQ(parse_operand("$-12"), Operand::immediate(-12));
  EXPECT_EQ(parse_operand("$0x10"), Operand::immediate(16));
}

TEST(Operands, ParsesRegisters) {
  EXPECT_EQ(parse_operand("%eax"), Operand::of_reg(Reg::Eax));
  EXPECT_EQ(parse_operand("%ebp"), Operand::of_reg(Reg::Ebp));
  EXPECT_THROW((void)parse_operand("%rax"), Error);
}

TEST(Operands, ParsesMemoryForms) {
  {
    const Operand o = parse_operand("8(%ebp)");
    ASSERT_EQ(o.kind, Operand::Kind::Mem);
    EXPECT_EQ(o.mem.disp, 8);
    EXPECT_EQ(o.mem.base, Reg::Ebp);
    EXPECT_FALSE(o.mem.index.has_value());
  }
  {
    const Operand o = parse_operand("-4(%ebp)");
    EXPECT_EQ(o.mem.disp, -4);
  }
  {
    const Operand o = parse_operand("(%eax,%ebx,4)");
    EXPECT_EQ(o.mem.disp, 0);
    EXPECT_EQ(o.mem.base, Reg::Eax);
    EXPECT_EQ(o.mem.index, Reg::Ebx);
    EXPECT_EQ(o.mem.scale, 4);
  }
  {
    const Operand o = parse_operand("16(,%ecx,2)");
    EXPECT_FALSE(o.mem.base.has_value());
    EXPECT_EQ(o.mem.index, Reg::Ecx);
    EXPECT_EQ(o.mem.scale, 2);
    EXPECT_EQ(o.mem.disp, 16);
  }
  {
    const Operand o = parse_operand("0x1000");  // absolute
    EXPECT_EQ(o.kind, Operand::Kind::Mem);
    EXPECT_EQ(o.mem.disp, 0x1000);
  }
}

TEST(Operands, RejectsMalformedMemory) {
  EXPECT_THROW((void)parse_operand("8(%ebp"), Error);
  EXPECT_THROW((void)parse_operand("(%eax,%ebx,3)"), Error);  // bad scale
  EXPECT_THROW((void)parse_operand("()"), Error);
  EXPECT_THROW((void)parse_operand(""), Error);
}

TEST(Assembler, AssemblesStraightLine) {
  const Image img = assemble("movl $1, %eax\naddl $2, %eax\nhlt\n");
  EXPECT_EQ(img.instruction_count(), 3u);
  EXPECT_EQ(img.base, 0x1000u);
  const Instruction first = decode(img.bytes.data());
  EXPECT_EQ(first.op, Mnemonic::Mov);
  EXPECT_EQ(first.src, Operand::immediate(1));
  EXPECT_EQ(first.dst, Operand::of_reg(Reg::Eax));
}

TEST(Assembler, ResolvesForwardAndBackwardLabels) {
  const Image img = assemble(R"(
start:
    jmp forward
back:
    hlt
forward:
    jmp back
)");
  EXPECT_EQ(img.symbol("start"), img.base);
  const Instruction j1 = decode(img.bytes.data());
  EXPECT_EQ(j1.target, img.symbol("forward"));
  const Instruction j2 = decode(img.bytes.data() + 2 * kInstrBytes);
  EXPECT_EQ(j2.target, img.symbol("back"));
}

TEST(Assembler, CommentsAndBlankLinesIgnored) {
  const Image img = assemble("# full comment\n\n  movl $1, %eax  # tail comment\n");
  EXPECT_EQ(img.instruction_count(), 1u);
}

TEST(Assembler, DiagnosticsCarryLineNumbers) {
  try {
    (void)assemble("movl $1, %eax\nbogus %eax\n");
    FAIL() << "expected an error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

TEST(Assembler, RejectsDuplicateLabelsAndUndefinedTargets) {
  EXPECT_THROW((void)assemble("a:\na:\n"), Error);
  EXPECT_THROW((void)assemble("jmp nowhere\n"), Error);
}

TEST(Assembler, RejectsWrongOperandCounts) {
  EXPECT_THROW((void)assemble("movl $1\n"), Error);
  EXPECT_THROW((void)assemble("pushl %eax, %ebx\n"), Error);
  EXPECT_THROW((void)assemble("ret %eax\n"), Error);
}

TEST(Assembler, EncodeDecodeRoundTripsEveryMnemonic) {
  const Image img = assemble(R"(
top:
    movl $5, %eax
    addl %eax, %ebx
    subl $1, %ecx
    imull %edx, %eax
    andl $15, %eax
    orl %ebx, %eax
    xorl %eax, %eax
    notl %eax
    negl %ebx
    incl %ecx
    decl %ecx
    shll $2, %eax
    shrl $1, %ebx
    sarl $1, %ecx
    leal 4(%eax,%ebx,2), %edx
    cmpl $0, %eax
    testl %eax, %eax
    pushl %eax
    popl %ebx
    call top
    leave
    jmp top
    je top
    jne top
    jg top
    jge top
    jl top
    jle top
    ja top
    jae top
    jb top
    jbe top
    js top
    jns top
    nop
    ret
    hlt
)");
  // Decoding every slot must succeed and re-encode identically.
  for (std::size_t off = 0; off < img.bytes.size(); off += kInstrBytes) {
    const Instruction ins = decode(img.bytes.data() + off);
    const std::vector<std::uint8_t> re = encode(ins);
    for (std::size_t i = 0; i < kInstrBytes; ++i) {
      ASSERT_EQ(re[i], img.bytes[off + i]) << "offset " << off;
    }
  }
}

TEST(Disassembler, ShowsLabelsAndResolvedTargets) {
  const Image img = assemble("main:\n  movl $3, %eax\nloop:\n  jmp loop\n");
  const std::vector<DisasmLine> lines = disassemble(img);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].label, "main");
  EXPECT_EQ(lines[0].text, "movl $3, %eax");
  EXPECT_EQ(lines[1].label, "loop");
  EXPECT_EQ(lines[1].text, "jmp loop");
}

TEST(Disassembler, RendersAttOperandOrderAndAddressing) {
  const Image img = assemble("movl 8(%ebp), %eax\nleal (%eax,%ebx,4), %ecx\n");
  const std::vector<DisasmLine> lines = disassemble(img);
  EXPECT_EQ(lines[0].text, "movl 8(%ebp), %eax");
  EXPECT_EQ(lines[1].text, "leal (%eax,%ebx,4), %ecx");
}

TEST(Image, SymbolLookupThrowsOnUnknown) {
  const Image img = assemble("nop\n");
  EXPECT_THROW((void)img.symbol("missing"), Error);
}

// --- pinned diagnostics ---------------------------------------------------

/// The exact what() of a call expected to throw cs31::Error.
template <typename F>
std::string error_text(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "<no error>";
}

struct DiagnosticCase {
  const char* input;
  const char* what;
};

TEST(Diagnostics, AssemblerMessagesArePinned) {
  const DiagnosticCase cases[] = {
      {"bogus %eax\n", "line 1: unknown mnemonic 'bogus'"},
      {"movl\v$1, %eax\n", "line 1: unknown mnemonic 'movl\v$1,'"},
      {"nop\nmovl $1\n", "line 2: movl expects 2 operand(s), got 1"},
      {"movl $1,\n", "line 1: movl expects 2 operand(s), got 1"},
      {"movl $1, %eax, %ebx, %ecx\n", "line 1: movl expects 2 operand(s), got 4"},
      {"pushl %eax, %ebx\n", "line 1: pushl expects 1 operand(s), got 2"},
      {"ret %eax\n", "line 1: ret expects 0 operand(s), got 1"},
      {"movl 8(%ebp, %eax\n", "line 1: movl expects 2 operand(s), got 1"},
      {"movl , %eax\n", "line 1: empty operand"},
      {"movl $12x, %eax\n", "line 1: bad digit in '12x'"},
      {"movl $ 5, %eax\n", "line 1: bad digit in ' 5'"},
      {"movl $+5, %eax\n", "line 1: bad digit in '+5'"},
      {"movl $0x1G, %eax\n", "line 1: bad hex digit in '0x1G'"},
      {"movl $-0xz, %eax\n", "line 1: bad hex digit in '-0xz'"},
      {"movl $4294967296, %eax\n", "line 1: integer out of 32-bit range"},
      {"movl $0x100000000, %eax\n", "line 1: integer out of 32-bit range"},
      {"movl $, %eax\n", "line 1: empty integer"},
      {"movl $-, %eax\n", "line 1: integer with no digits"},
      {"movl $0X, %eax\n", "line 1: hex integer with no digits"},
      {"pushl 8(%ebp\n", "line 1: missing ')' in memory operand '8(%ebp'"},
      {"pushl 8)\n", "line 1: bad digit in '8)'"},
      {"pushl zz(%eax\n", "line 1: bad digit in 'zz'"},
      {"pushl (%eax,%ebx,4,5)\n",
       "line 1: too many parts in memory operand '(%eax,%ebx,4,5)'"},
      {"pushl (%eax,%ebx,3)\n", "line 1: scale must be 1, 2, 4, or 8"},
      {"pushl (%eax,%ebx,x)\n", "line 1: bad digit in 'x'"},
      {"pushl ()\n", "line 1: memory operand '()' names no register"},
      {"pushl 4( , ,2)\n", "line 1: memory operand '4( , ,2)' names no register"},
      {"pushl %rax\n", "line 1: unknown register '%rax'"},
      {"pushl (%eax, rbx)\n", "line 1: unknown register 'rbx'"},
      {"pushl %\n", "line 1: unknown register '%'"},
      {":\n", "line 1: empty label"},
      {"nop\n  : nop\n", "line 2: empty label"},
      {"a b:\n", "line 1: bad label 'a b'"},
      {"ok: a-b:\n", "line 1: bad label 'a-b'"},
      {"a:\nb:\na:\n", "line 3: duplicate label 'a'"},
      {"bogus\na:\na:\n", "line 3: duplicate label 'a'"},
      {"jmp nowhere\n", "line 1: undefined symbol 'nowhere'"},
      {"a:\njmp a, b\n", "line 2: undefined symbol 'a, b'"},
      {"jmp %eax\n", "line 1: jump target must be a label in this subset"},
      {"call 0x1000\n", "line 1: jump target must be a label in this subset"},
      {"jne $4\n", "line 1: jump target must be a label in this subset"},
      {"jmp\n", "line 1: jump needs a target"},
      {"jmp   # only a comment\n", "line 1: jump needs a target"},
      {"nop\n\n  # comment: with a colon\n\tbogus\n", "line 4: unknown mnemonic 'bogus'"},
      {"x: y: movl $1, %eax\r\nz:\tfrob\r\n", "line 2: unknown mnemonic 'frob'"},
      {"nop\nnop\nnop\nnop\nnop\nnop\nnop\nnop\nnop\nnop\nnop\nleal 3(%eax,%ecx,16), %eax",
       "line 12: scale must be 1, 2, 4, or 8"},
  };
  for (const DiagnosticCase& c : cases) {
    EXPECT_EQ(error_text([&] { (void)assemble(c.input); }), c.what) << c.input;
  }
}

TEST(Diagnostics, OperandMessagesArePinned) {
  const DiagnosticCase cases[] = {
      {"", "empty operand"},
      {" \t ", "empty operand"},
      {"$", "empty integer"},
      {"$-", "integer with no digits"},
      {"$0x", "hex integer with no digits"},
      {"$1a", "bad digit in '1a'"},
      {"$ 5", "bad digit in ' 5'"},
      {"$0xg", "bad hex digit in '0xg'"},
      {"$4294967296", "integer out of 32-bit range"},
      {"$-4294967296", "integer out of 32-bit range"},
      {"12x", "bad digit in '12x'"},
      {"%rax", "unknown register '%rax'"},
      {"  %foo  ", "unknown register '%foo'"},
      {"8(%ebp", "missing ')' in memory operand '8(%ebp'"},
      {"(", "missing ')' in memory operand '('"},
      {"x(%eax)", "bad digit in 'x'"},
      {"x(%eax", "bad digit in 'x'"},
      {"(%eax,%ebx,4,5)", "too many parts in memory operand '(%eax,%ebx,4,5)'"},
      {"(%eax,%ebx,3)", "scale must be 1, 2, 4, or 8"},
      {"(%eax,%ebx,)", "<no error>"},
      {"(%eax,%ebx,-1)", "scale must be 1, 2, 4, or 8"},
      {"()", "memory operand '()' names no register"},
      {"16(,,2)", "memory operand '16(,,2)' names no register"},
      {"(%eax,%bogus)", "unknown register '%bogus'"},
      {"(eax)", "<no error>"},
  };
  for (const DiagnosticCase& c : cases) {
    EXPECT_EQ(error_text([&] { (void)parse_operand(c.input); }), c.what) << c.input;
  }
  const Image img = assemble("nop\n");
  EXPECT_EQ(error_text([&] { (void)img.symbol("missing"); }), "undefined symbol 'missing'");
}

// --- pinned images --------------------------------------------------------

/// FNV-1a over every image's base, bytes and symbol table, each field
/// closed by a separator, so a whole corpus pins to one number.
struct ImageDigest {
  std::uint64_t h = 14695981039346656037ull;
  std::size_t images = 0;

  void add(const Image& image) {
    word(image.base);
    for (const std::uint8_t b : image.bytes) mix(b);
    mix(0xff);
    for (const auto& [name, addr] : image.symbols) {
      for (const char c : name) mix(static_cast<std::uint8_t>(c));
      mix(0xff);
      word(addr);
    }
    mix(0xfe);
    ++images;
  }
  void word(std::uint32_t w) {
    for (int i = 0; i < 4; ++i) mix(static_cast<std::uint8_t>(w >> (8 * i)));
  }
  void mix(std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  }
};

/// A mini-C body lowered the way the grader lowers it: one codegen
/// plus the entry stub, assembled once.
Image lower_mini_c(const std::string& body) {
  const cc::ProgramAst program = cc::parse(body);
  return assemble(cc::generate(program) + cc::entry_stub(program, {}));
}

TEST(ImageDigest, EveryCorpusImageIsPinned) {
  ImageDigest digest;
  for (const AsmSample& s : lab4_samples()) digest.add(assemble(s.source));
  for (std::uint32_t v = 0; v < 32; ++v) digest.add(lower_mini_c(grader::mini_c_body(v)));
  digest.add(lower_mini_c(grader::poison_spin_mini_c()));
  for (std::uint32_t v = 0; v < 8; ++v) digest.add(assemble(grader::assembly_body(v)));
  digest.add(assemble(grader::poison_spin_assembly()));
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    digest.add(assemble(generate_program(seed).source));
  }
  // Odd but legal spellings: several labels on a line, tabs, CRLF, a
  // comment holding a colon, hex and negative displacements, a bare
  // absolute address, register names without '%', and a base other
  // than the default.
  digest.add(assemble("a: b:\tmovl $0x7fffffff,%eax\r\n"
                      "c:  leal -0x10(,%ecx,8), %edx # d: e\n"
                      "    movl 0x20, %ebx\n"
                      "    addl (eax, ebx), %ecx\n"
                      "    subl $-2147483648, %esi\n"
                      "    jmp a\n"
                      "end:",
                      0x4000));
  EXPECT_EQ(digest.images, 6u + 33u + 9u + 64u + 1u);
  EXPECT_EQ(digest.h, 0x951ea216e5e8ad8aull) << std::hex << digest.h;
}

}  // namespace
}  // namespace cs31::isa
