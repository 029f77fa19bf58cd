// The mini-C back end's contract, over the shared corpus
// (ccomp_corpus.hpp): the AT&T text the compiler prints is pinned byte
// for byte, and the image encoded straight from the lowered listing is
// the image the text assembler builds from that text, with the same
// error messages when either is rejected.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "ccomp/codegen.hpp"
#include "ccomp/driver.hpp"
#include "ccomp/optimizer.hpp"
#include "ccomp/parser.hpp"
#include "ccomp_corpus.hpp"
#include "common/error.hpp"
#include "grader/toolchain.hpp"
#include "isa/assembler.hpp"
#include "isa/machine.hpp"

namespace cs31::cc {
namespace {

using corpus::Program;

/// FNV-1a over a sequence of fields, each closed by a 0xff separator
/// byte (which no generated text contains).
struct FieldDigest {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::string_view field) {
    for (const char c : field) mix(static_cast<std::uint8_t>(c));
    mix(0xff);
  }
  void mix(std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  }
};

ProgramAst parsed(const Program& p) {
  ProgramAst ast = parse(p.source);
  if (p.optimize) optimize(ast);
  return ast;
}

TEST(Codegen, AssemblyTextPinnedByDigest) {
  // Every program's generated text plus its entry stub. The digest was
  // taken from the string-building generator, before codegen lowered
  // to an instruction listing; the listing's rendering must keep it.
  const std::vector<Program> programs = corpus::lowering_corpus();
  ASSERT_EQ(programs.size(), 300u + 16u + 640u + 25u);
  FieldDigest digest;
  std::size_t bytes = 0;
  for (const Program& p : programs) {
    const ProgramAst ast = parsed(p);
    const std::string text = generate(ast) + entry_stub(ast, p.args);
    bytes += text.size();
    digest.add(text);
  }
  EXPECT_EQ(bytes, 773575u);
  EXPECT_EQ(digest.h, 0x47c103a493eacb9bull);
}

/// The text route: the program's assembly and stub as text, through the
/// text assembler. Codegen's errors come before the entry checks, as in
/// the grader.
isa::Image text_image(const ProgramAst& ast, const std::vector<std::int32_t>& args) {
  const std::string assembly = generate(ast);
  return isa::assemble(assembly + entry_stub(ast, args));
}

/// The direct route, in the same order: the listing plus the stub,
/// encoded.
isa::Image direct_image(const ProgramAst& ast, const std::vector<std::int32_t>& args) {
  isa::Listing listing = lower(ast);
  append_entry_stub(listing, ast, args);
  return isa::assemble(listing);
}

void expect_same(const isa::Image& direct, const isa::Image& text,
                 const std::string& what) {
  EXPECT_EQ(direct.base, text.base) << what;
  EXPECT_EQ(direct.bytes, text.bytes) << what;
  EXPECT_EQ(direct.symbols, text.symbols) << what;
}

std::string error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "(no error)";
}

TEST(Lowering, DirectImageEqualsTextAssembly) {
  std::size_t symbols = 0;
  for (const Program& p : corpus::lowering_corpus()) {
    const std::string what = "(optimize=" + std::to_string(p.optimize) + ")\n" + p.source;
    const ProgramAst ast = parsed(p);
    const isa::Image text = text_image(ast, p.args);
    expect_same(direct_image(ast, p.args), text, what);
    symbols += text.symbols.size();

    isa::Listing listing = lower(ast);
    append_entry_stub(listing, ast, p.args);
    EXPECT_EQ(isa::render(listing), generate(ast) + entry_stub(ast, p.args)) << what;

    // The public entry points, each from one lowering.
    const isa::Image no_stub = isa::assemble(generate(ast));
    PipelineOptions options;
    options.optimize = p.optimize;
    const PipelineResult piped = compile_pipeline(p.source, options);
    EXPECT_EQ(piped.assembly, generate(ast)) << what;
    expect_same(piped.image, no_stub, what);
    if (p.optimize) continue;
    expect_same(compile_with_entry(p.source, p.args), text, what);
    expect_same(compile(p.source), no_stub, what);
  }
  // `.L` labels included: every symbol of every image was compared.
  EXPECT_EQ(symbols, 6941u);
}

TEST(Lowering, ErrorMessagesEqualTextAssembly) {
  std::string huge = "int main() {\n  int x = 0;\n";
  for (int i = 0; i < 12000; ++i) huge += "  x = x + 1;\n";
  huge += "  return x;\n}\n";
  struct Case {
    Program program;
    std::string message;
    std::string entry_first;  ///< compile_with_entry's, when it differs
  };
  const std::vector<Case> cases = {
      // A function named _start collides with the stub's label.
      {{"int _start() { int x; return x; }\nint main() { return _start(); }\n", {}},
       "line 18: duplicate label '_start'", ""},
      {{"int _start() { return 1; }\nint main() { return _start(); }\n", {}},
       "line 17: duplicate label '_start'", ""},
      {{"int main() { return 1; }\nint _start() { int u; return u; }\n", {}},
       "line 18: duplicate label '_start'", ""},
      {{"int f() { return 1; }\n", {}}, "program has no main()", ""},
      // compile_with_entry checks the entry before lowering.
      {{"int f() { return y; }\n", {}}, "line 1: use of undeclared variable 'y'",
       "program has no main()"},
      {{"int main(int a) { return a; }\n", {}}, "main() expects 1 argument(s), got 0", ""},
      {{"int main(int a) { return a; }\n", {1, 2}},
       "main() expects 1 argument(s), got 2", ""},
      {{"int main() { return q; }\n", {}}, "line 1: use of undeclared variable 'q'", ""},
      // Encodes on both routes; too large for the grading machine.
      {{huge, {}}, "image does not fit in memory", ""},
  };
  const isa::Machine grading;
  for (const Case& c : cases) {
    const Program& p = c.program;
    const ProgramAst ast = parse(p.source);
    const auto check = [&](const std::function<isa::Image()>& route) {
      return error_of([&] { grading.require_fits(route()); });
    };
    EXPECT_EQ(check([&] { return text_image(ast, p.args); }), c.message) << p.source;
    EXPECT_EQ(check([&] { return direct_image(ast, p.args); }), c.message) << p.source;
    EXPECT_EQ(check([&] { return compile_with_entry(p.source, p.args); }),
              c.entry_first.empty() ? c.message : c.entry_first)
        << p.source;
  }
  // The grader reports the same message for the image too large to run.
  const grader::Verdict verdict =
      grader::run_toolchain({"huge", grader::SubmissionKind::MiniC, huge});
  EXPECT_EQ(verdict.status, "compile_error");
  ASSERT_FALSE(verdict.notes.empty());
  EXPECT_EQ(verdict.notes.back(), "image does not fit in memory");
}

TEST(Lowering, ListingErrorsNameTheRenderedLine) {
  // Listings the compiler never builds still fail as their rendering
  // does in the text assembler.
  isa::Listing undefined;
  undefined.place(undefined.name("top"));
  undefined.add_jump(isa::Mnemonic::Jmp, undefined.name("nowhere"));
  isa::Listing arity;
  isa::Instruction mov;
  mov.op = isa::Mnemonic::Mov;
  mov.dst = isa::Operand::of_reg(isa::Reg::Eax);
  arity.add(mov);
  isa::Listing twice;
  const isa::Listing::Label top = twice.name("top");
  twice.place(top);
  twice.add(isa::Instruction{});
  twice.place(top);
  for (const isa::Listing* listing : {&undefined, &arity, &twice}) {
    const std::string text = isa::render(*listing);
    const std::string from_text = error_of([&] { (void)isa::assemble(text); });
    EXPECT_NE(from_text, "(no error)") << text;
    EXPECT_EQ(error_of([&] { (void)isa::assemble(*listing); }), from_text) << text;
  }
  EXPECT_EQ(error_of([&] { (void)isa::assemble(undefined); }),
            "line 2: undefined symbol 'nowhere'");
  // A label named twice resolves by name, as the text does.
  isa::Listing by_name;
  by_name.add_jump(isa::Mnemonic::Jmp, by_name.name("again"));
  by_name.place(by_name.name("again"));
  by_name.add(isa::Instruction{});
  expect_same(isa::assemble(by_name), isa::assemble(isa::render(by_name)), "by name");
}

}  // namespace
}  // namespace cs31::cc
