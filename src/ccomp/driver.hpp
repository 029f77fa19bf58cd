// The full mini-C pipeline with the static-analysis stage wired in:
//
//   parse  ->  analyze  ->  [optimize]  ->  lower  ->  encode
//
// The lowered listing is encoded directly; the assembly text in the
// result is a rendering of the same listing, not an input to the image.
// Analysis runs over the *unoptimized* AST — the diagnostics must point
// at what the student wrote, not at what constant folding left behind.
// By default findings ride along in the result as warnings; strict mode
// (`werror`) turns any warning-or-worse finding into a compile error,
// the way the course's build flags treat -Wall.
#pragma once

#include <string>
#include <vector>

#include "analyze/diagnostic.hpp"
#include "ccomp/ast.hpp"
#include "isa/assembler.hpp"

namespace cs31::cc {

struct PipelineOptions {
  bool optimize = false;  ///< run optimizer passes before codegen
  bool analyze = true;    ///< run the static-analysis stage
  bool werror = false;    ///< throw cs31::Error when analysis finds anything
};

struct PipelineResult {
  std::string assembly;                          ///< the listing as AT&T text
  isa::Image image;                              ///< the listing, encoded
  std::vector<analyze::Diagnostic> diagnostics;  ///< normalized findings
};

/// Run the whole pipeline. Throws cs31::Error on lex/parse/codegen
/// errors always, and on analysis findings of Warning severity or
/// above when `options.werror` is set (the rendered findings become
/// the error text).
[[nodiscard]] PipelineResult compile_pipeline(const std::string& source,
                                              const PipelineOptions& options = {});

}  // namespace cs31::cc
