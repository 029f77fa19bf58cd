// Code generation from mini-C to the kit's IA-32 subset — the full
// vertical slice of CS 31: students write C, the compiler lowers it to
// the stack-frame discipline they traced by hand (pushl %ebp / movl
// %esp, %ebp / locals at negative %ebp offsets / cdecl argument
// passing), and the Machine executes it.
//
//   parse  ->  [optimize]  ->  lower  ->  encode
//
// `lower` builds an isa::Listing (labels and instructions, jumps naming
// labels) and isa::assemble(listing) encodes it straight into an image.
// The AT&T text students read is a rendering of that same listing, so
// no compiled program is printed and then parsed back.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ccomp/ast.hpp"
#include "isa/assembler.hpp"

namespace cs31::cc {

/// Lower a parsed program to an instruction listing, main first. Throws
/// cs31::Error on semantic errors: undeclared/duplicate variables,
/// unknown functions, arity mismatches.
[[nodiscard]] isa::Listing lower(const ProgramAst& program);

/// `lower` rendered as AT&T text, the assembly students read.
[[nodiscard]] std::string generate(const ProgramAst& program);

/// Parse + lower in one step; `optimize_first` runs the optimizer
/// passes (ccomp/optimizer.hpp) before code generation.
[[nodiscard]] std::string compile_to_assembly(const std::string& source,
                                              bool optimize_first = false);

/// Compile and encode to a loadable image.
[[nodiscard]] isa::Image compile(const std::string& source);

/// Append the `_start` stub that pushes `args` and calls main, so main's
/// frame looks exactly like any other callee's, to `lower`'s listing.
/// Throws cs31::Error when main is missing or the argument count
/// mismatches main's parameters; assembling the listing then rejects a
/// function that is itself named `_start` as a duplicate label.
void append_entry_stub(isa::Listing& listing, const ProgramAst& program,
                       const std::vector<std::int32_t>& args);

/// The stub append_entry_stub adds, rendered as text; it follows
/// `generate`'s output in the program's full assembly.
[[nodiscard]] std::string entry_stub(const ProgramAst& program,
                                     const std::vector<std::int32_t>& args);

/// Compile with a generated `_start` stub that pushes `args` and calls
/// main — load this into any Machine to run the program under a
/// debugger or with memory tracing. Throws when main is missing or the
/// argument count mismatches.
[[nodiscard]] isa::Image compile_with_entry(const std::string& source,
                                            const std::vector<std::int32_t>& args);

/// Compile, load, call main(args...), and return its result — the
/// "compile and run" loop of Lab 4. Throws cs31::Error when main is
/// missing or the argument count mismatches main's parameters.
[[nodiscard]] std::int32_t run_mini_c(const std::string& source,
                                      const std::vector<std::int32_t>& args = {},
                                      bool optimize_first = false);

}  // namespace cs31::cc
