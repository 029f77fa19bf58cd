// Code generation from mini-C to the kit's IA-32 subset (AT&T text that
// isa::assemble accepts) — the full vertical slice of CS 31: students
// write C, the compiler lowers it to the stack-frame discipline they
// traced by hand (pushl %ebp / movl %esp, %ebp / locals at negative
// %ebp offsets / cdecl argument passing), and the Machine executes it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ccomp/ast.hpp"
#include "isa/assembler.hpp"

namespace cs31::cc {

/// Lower a parsed program to assembly text. Throws cs31::Error on
/// semantic errors: undeclared/duplicate variables, unknown functions,
/// arity mismatches.
[[nodiscard]] std::string generate(const ProgramAst& program);

/// Parse + lower in one step; `optimize_first` runs the optimizer
/// passes (ccomp/optimizer.hpp) before code generation.
[[nodiscard]] std::string compile_to_assembly(const std::string& source,
                                              bool optimize_first = false);

/// Compile and assemble to a loadable image.
[[nodiscard]] isa::Image compile(const std::string& source);

/// The `_start` stub that pushes `args` and calls main, so main's frame
/// looks exactly like any other callee's; append it to `generate`'s
/// output before assembling. Throws cs31::Error when main is missing or
/// the argument count mismatches main's parameters.
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
