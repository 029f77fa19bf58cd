// Two-pass assembler for the kit's IA-32 subset, accepting the AT&T
// syntax students read in GDB and write in CS 31 Lab 4: `movl $5, %eax`,
// `movl 8(%ebp), %eax`, `leal (%eax,%ebx,4), %ecx`, labels, and `#`
// comments. Produces a loadable image plus its symbol table, and the
// matching disassembler view (Lab 5's `disas`).
//
// The assembler is a scanner over std::string_view: both passes walk the
// source in place, operands split into a fixed array of views, and each
// instruction is encoded straight into the image's bytes. A submission
// that assembles allocates only its symbol names and its image; error
// messages are formatted only when a check fails.
//
// A compiler does not need the text at all: it builds a Listing (labels
// and already-parsed instructions, jumps naming their target labels),
// which the same two passes bind and encode without a scanner. The text
// is then only a rendering of the listing, for students to read.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "isa/ia32.hpp"

namespace cs31::isa {

/// An assembled program: teaching-encoded bytes to load at `base`, plus
/// the label -> address symbol table.
struct Image {
  std::uint32_t base = 0;
  std::vector<std::uint8_t> bytes;
  std::map<std::string, std::uint32_t, std::less<>> symbols;

  /// Number of instructions in the image.
  [[nodiscard]] std::size_t instruction_count() const {
    return bytes.size() / kInstrBytes;
  }

  /// Address of a label. Throws cs31::Error when undefined.
  [[nodiscard]] std::uint32_t symbol(std::string_view name) const;
};

/// Assemble AT&T-syntax source. Throws cs31::Error with a line number on
/// any syntax error, duplicate label, or undefined jump target.
[[nodiscard]] Image assemble(const std::string& source, std::uint32_t base = 0x1000);

/// A program before encoding: ordered lines, each a label or an
/// instruction, where a jump or call names its target label instead of
/// an address. Instructions hold their operands as the text assembler
/// parses them: two-operand forms in src and dst, one-operand forms in
/// dst. Line i of the listing is line i + 1 of its rendering.
struct Listing {
  /// A label name, as an index into `names`.
  using Label = std::uint32_t;

  struct Line {
    Instruction ins;       ///< an instruction line's instruction
    Label label = 0;       ///< a label line's label, or a jump/call's target
    bool is_label = false;
  };

  std::vector<std::string> names;  ///< label names, bound by name as in text
  std::vector<Line> lines;

  /// Add a label name without placing it; place() binds it.
  Label name(std::string label) {
    names.push_back(std::move(label));
    return static_cast<Label>(names.size() - 1);
  }
  /// A label line: `label` names the address of the next instruction.
  void place(Label label) { lines.push_back({Instruction{}, label, true}); }
  /// An instruction line that is not a jump or call.
  void add(const Instruction& ins) { lines.push_back({ins, 0, false}); }
  /// A jump or call line to `target`.
  void add_jump(Mnemonic op, Label target) {
    Instruction ins;
    ins.op = op;
    lines.push_back({ins, target, false});
  }
};

/// Bind and encode a listing, with the checks and messages assemble()
/// gives its rendering: a duplicate label, an undefined jump target or a
/// wrong operand count throws cs31::Error naming the rendered line.
/// Builds the same Image as assembling render(listing).
[[nodiscard]] Image assemble(const Listing& listing, std::uint32_t base = 0x1000);

/// The listing as AT&T text, one line per entry: `name:` for a label,
/// four spaces and the instruction otherwise.
[[nodiscard]] std::string render(const Listing& listing);

/// Parse a single operand ("$5", "%eax", "8(%ebp)", "(%eax,%ebx,4)").
/// Exposed for tests and the debugger's expression reader.
[[nodiscard]] Operand parse_operand(const std::string& text);

/// One line of disassembly: address, instruction text, and the label
/// that starts here (empty if none).
struct DisasmLine {
  std::uint32_t address = 0;
  std::string label;
  std::string text;
};

/// Disassemble an image, resolving jump/call targets back to label names
/// where the symbol table knows them.
[[nodiscard]] std::vector<DisasmLine> disassemble(const Image& image);

}  // namespace cs31::isa
