// The mini-C programs the compiler's differential tests share: the
// random expression and statement programs of ccomp_fuzz_test, the
// compiled corpus isa_diff_fuzz_test runs on both cores, and loadgen's
// graded mini-C bodies. ccomp_lowering_test walks all of them to pin
// the generated text and to compare the two ways of encoding it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "grader/loadgen.hpp"

namespace cs31::cc::corpus {

/// Deterministic RNG shared by the generators.
struct Rng {
  std::uint32_t state;
  std::uint32_t next(std::uint32_t mod) {
    state = state * 1664525u + 1013904223u;
    return (state >> 8) % mod;
  }
};

/// Generated program text and, computed in lock-step, its value under
/// C's int semantics (two's complement wraparound via uint32).
struct GenResult {
  std::string text;
  std::uint32_t value;  // bit pattern of the int result
};

inline GenResult gen_leaf(Rng& rng, std::uint32_t x) {
  if (rng.next(3) == 0) return {"x", x};
  const std::uint32_t v = rng.next(100);
  return {std::to_string(v), v};
}

inline GenResult gen_expr(Rng& rng, std::uint32_t x, int depth) {
  if (depth == 0) return gen_leaf(rng, x);
  switch (rng.next(10)) {
    case 0: {  // unary minus
      const GenResult a = gen_expr(rng, x, depth - 1);
      return {"(-" + a.text + ")", 0u - a.value};
    }
    case 1: {  // bit not
      const GenResult a = gen_expr(rng, x, depth - 1);
      return {"(~" + a.text + ")", ~a.value};
    }
    case 2: {  // logical not
      const GenResult a = gen_expr(rng, x, depth - 1);
      return {"(!" + a.text + ")", a.value == 0 ? 1u : 0u};
    }
    case 3: {  // shift by a small literal
      const GenResult a = gen_expr(rng, x, depth - 1);
      const std::uint32_t count = rng.next(9);
      if (rng.next(2) == 0) {
        return {"(" + a.text + " << " + std::to_string(count) + ")", a.value << count};
      }
      const std::int32_t shifted = static_cast<std::int32_t>(a.value) >> count;
      return {"(" + a.text + " >> " + std::to_string(count) + ")",
              static_cast<std::uint32_t>(shifted)};
    }
    default: {  // binary operator
      const GenResult a = gen_expr(rng, x, depth - 1);
      const GenResult b = gen_expr(rng, x, depth - 1);
      const std::int32_t sa = static_cast<std::int32_t>(a.value);
      const std::int32_t sb = static_cast<std::int32_t>(b.value);
      switch (rng.next(11)) {
        case 0: return {"(" + a.text + " + " + b.text + ")", a.value + b.value};
        case 1: return {"(" + a.text + " - " + b.text + ")", a.value - b.value};
        case 2: return {"(" + a.text + " * " + b.text + ")", a.value * b.value};
        case 3: return {"(" + a.text + " & " + b.text + ")", a.value & b.value};
        case 4: return {"(" + a.text + " | " + b.text + ")", a.value | b.value};
        case 5: return {"(" + a.text + " ^ " + b.text + ")", a.value ^ b.value};
        case 6: return {"(" + a.text + " < " + b.text + ")", sa < sb ? 1u : 0u};
        case 7: return {"(" + a.text + " >= " + b.text + ")", sa >= sb ? 1u : 0u};
        case 8: return {"(" + a.text + " == " + b.text + ")", sa == sb ? 1u : 0u};
        case 9:
          return {"(" + a.text + " && " + b.text + ")",
                  (a.value != 0 && b.value != 0) ? 1u : 0u};
        default:
          return {"(" + a.text + " || " + b.text + ")",
                  (a.value != 0 || b.value != 0) ? 1u : 0u};
      }
    }
  }
}

/// One expression trial: `int main(int x) { return <expr>; }`, the
/// argument x, and the expression's value.
struct ExprTrial {
  std::string program;
  std::int32_t x;
  std::uint32_t value;
};

inline ExprTrial gen_expr_trial(Rng& rng) {
  const std::uint32_t x = rng.next(2000) - 1000;
  const GenResult expr = gen_expr(rng, x, 3);
  return {"int main(int x) { return " + expr.text + "; }", static_cast<std::int32_t>(x),
          expr.value};
}

/// A random chain of assignments over a, b and c, returning their sum;
/// `value` is that sum, tracked by the generator.
inline GenResult gen_statement_program(Rng& rng) {
  std::uint32_t a = rng.next(50), b = rng.next(50), c = rng.next(50);
  std::string body = "int a = " + std::to_string(a) + "; int b = " + std::to_string(b) +
                     "; int c = " + std::to_string(c) + ";\n";
  for (int step = 0; step < 6; ++step) {
    switch (rng.next(4)) {
      case 0: body += "a = a + b * c;\n"; a = a + b * c; break;
      case 1: body += "b = (b ^ a) - c;\n"; b = (b ^ a) - c; break;
      case 2: body += "c = c + (a & 255);\n"; c = c + (a & 255u); break;
      case 3: body += "if (a < b) { a = a + 1; } else { b = b + 1; }\n";
        if (static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b)) ++a; else ++b;
        break;
    }
  }
  return {"int main() { " + body + " return a + b + c; }", a + b + c};
}

/// The fuzz test's parameters: expression seeds, trials per seed, and
/// the statement-level trials and seed.
inline constexpr std::uint32_t kExprSeeds[] = {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u};
inline constexpr int kExprTrials = 40;
inline constexpr int kStatementTrials = 25;
inline constexpr std::uint32_t kStatementSeed = 0xF00D;

/// A source, main's arguments, and whether the optimizer runs first.
struct Program {
  std::string source;
  std::vector<std::int32_t> args;
  bool optimize = false;
};

/// The compiled corpus run on both cores (isa_diff_fuzz_test), each
/// fixture once: the analyze suite's clean fixture set.
inline std::vector<Program> diff_fuzz_fixtures() {
  return {
      {"int main() { return 42; }\n", {}},
      {"int main() { int x = 1; return x; }\n", {}},
      {"int add(int a, int b) { return a + b; }\n"
       "int main() { return add(40, 2); }\n",
       {}},
      {"int fact(int n) {\n"
       "  if (n < 2) { return 1; }\n"
       "  return n * fact(n - 1);\n"
       "}\n"
       "int main() { return fact(5); }\n",
       {}},
      {"int main(int a) {\n"
       "  int s = 0;\n"
       "  int i = 0;\n"
       "  while (i < a) { s = s + i; i = i + 1; }\n"
       "  return s;\n"
       "}\n",
       {10}},
      {"int sign(int x) {\n"
       "  if (x > 0) { return 1; } else { if (x < 0) { return 0 - 1; } else { return 0; } }\n"
       "}\n"
       "int main(int a) { return sign(a); }\n",
       {-7}},
      {"int popcount(int v) {\n"
       "  int n = 0;\n"
       "  while (v != 0) { n = n + (v & 1); v = v >> 1; }\n"
       "  return n;\n"
       "}\n"
       "int main(int a) { return popcount(a); }\n",
       {173}},
      {"int both(int a, int b) { return a && b || !a; }\n"
       "int main(int a, int b) { return both(a, b); }\n",
       {1, 0}},
  };
}

/// Every program of the three sets, in a fixed order:
///   - loadgen's mini_c_body for the first 100 variants of seeds 1, 2
///     and 48611 (variant = index + seed * 7919, as loadgen numbers
///     them);
///   - the diff-fuzz fixtures with the optimizer off, then on;
///   - the fuzz test's expression trials at both optimizer levels and
///     its statement-level programs.
inline std::vector<Program> lowering_corpus() {
  std::vector<Program> out;
  for (const std::uint32_t seed : {1u, 2u, 48611u}) {
    for (std::uint32_t i = 0; i < 100; ++i) {
      out.push_back({grader::mini_c_body(i + seed * 7919u), {}});
    }
  }
  for (const bool optimize : {false, true}) {
    for (Program p : diff_fuzz_fixtures()) {
      p.optimize = optimize;
      out.push_back(std::move(p));
    }
  }
  for (const std::uint32_t seed : kExprSeeds) {
    Rng rng{seed | 1u};
    for (int trial = 0; trial < kExprTrials; ++trial) {
      const ExprTrial t = gen_expr_trial(rng);
      out.push_back({t.program, {t.x}, false});
      out.push_back({t.program, {t.x}, true});
    }
  }
  Rng rng{kStatementSeed};
  for (int trial = 0; trial < kStatementTrials; ++trial) {
    out.push_back({gen_statement_program(rng).text, {}});
  }
  return out;
}

}  // namespace cs31::cc::corpus
