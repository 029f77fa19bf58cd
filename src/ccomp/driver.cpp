#include "ccomp/driver.hpp"

#include "analyze/checks_c.hpp"
#include "ccomp/codegen.hpp"
#include "ccomp/optimizer.hpp"
#include "ccomp/parser.hpp"
#include "common/error.hpp"

namespace cs31::cc {

PipelineResult compile_pipeline(const std::string& source, const PipelineOptions& options) {
  ProgramAst ast = parse(source);

  PipelineResult result;
  if (options.analyze) {
    result.diagnostics = analyze::analyze_program(ast);
    if (options.werror) {
      bool fatal = false;
      for (const analyze::Diagnostic& d : result.diagnostics) {
        if (d.severity >= analyze::Severity::Warning) fatal = true;
      }
      if (fatal) {
        throw Error("analysis failed (strict mode):\n" +
                    analyze::render(result.diagnostics));
      }
    }
  }

  if (options.optimize) optimize(ast);
  const isa::Listing listing = lower(ast);
  result.assembly = isa::render(listing);
  result.image = isa::assemble(listing);
  return result;
}

}  // namespace cs31::cc
