// Recursive-descent parser for mini-C with standard C precedence.
#pragma once

#include <string>

#include "ccomp/ast.hpp"
#include "ccomp/lexer.hpp"

namespace cs31::cc {

/// Deepest nesting parse() accepts: statements inside statements, and
/// an expression tree's height (operands inside operators, parentheses,
/// call arguments). Codegen, the analysis passes and the AST's
/// destructor all recurse over the tree, so the cap bounds their stack
/// depth as well as the parser's own.
inline constexpr int kMaxNesting = 256;

/// Parse a translation unit. Throws cs31::Error with line numbers on
/// syntax errors, duplicate function names, use of the unsupported
/// '/' and '%' operators (no idiv in the teaching ISA), or nesting
/// deeper than kMaxNesting.
[[nodiscard]] ProgramAst parse(const std::string& source);

}  // namespace cs31::cc
