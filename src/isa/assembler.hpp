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
