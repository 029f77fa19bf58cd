// Differential testing for the mini-C compiler: generate random
// expression programs, evaluate them with an independent reference
// evaluator (host integer arithmetic with C's wraparound semantics),
// and require the compiled program — running on the emulated IA-32
// subset — to produce the same value.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "ccomp/codegen.hpp"
#include "ccomp_corpus.hpp"

namespace cs31::cc {
namespace {

using corpus::ExprTrial;
using corpus::GenResult;
using corpus::Rng;

class CompilerFuzz : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CompilerFuzz, CompiledExpressionsMatchReferenceEvaluator) {
  Rng rng{GetParam() | 1u};
  for (int trial = 0; trial < corpus::kExprTrials; ++trial) {
    const ExprTrial t = corpus::gen_expr_trial(rng);
    const std::int32_t got = run_mini_c(t.program, {t.x});
    ASSERT_EQ(static_cast<std::uint32_t>(got), t.value) << "x=" << t.x << "\n" << t.program;
    // The optimizer must preserve the same semantics.
    const std::int32_t opt = run_mini_c(t.program, {t.x}, true);
    ASSERT_EQ(static_cast<std::uint32_t>(opt), t.value)
        << "optimizer broke: x=" << t.x << "\n" << t.program;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompilerFuzz,
                         ::testing::ValuesIn(corpus::kExprSeeds));

TEST(CompilerFuzz, StatementLevelDifferential) {
  // Random chains of assignments with a final accumulator, checked the
  // same way: the generator tracks the variables.
  Rng rng{corpus::kStatementSeed};
  for (int trial = 0; trial < corpus::kStatementTrials; ++trial) {
    const GenResult program = corpus::gen_statement_program(rng);
    const std::int32_t got = run_mini_c(program.text);
    ASSERT_EQ(static_cast<std::uint32_t>(got), program.value) << program.text;
  }
}

}  // namespace
}  // namespace cs31::cc
