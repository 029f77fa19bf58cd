// Machine (emulator) tests: arithmetic and flag semantics cross-checked
// against host 32-bit arithmetic, addressing modes, the stack
// discipline, call/ret/leave frames, and all conditional jumps.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analyze/cfg.hpp"
#include "common/error.hpp"
#include "isa/machine.hpp"
#include "isa/maze.hpp"
#include "isa/predecode.hpp"
#include "isa/program_gen.hpp"

namespace cs31::isa {
namespace {

/// Assemble, load, run to halt, and hand back the machine.
Machine run_source(const std::string& src, std::size_t max_steps = 100000) {
  Machine m;
  m.load(assemble(src));
  m.run(max_steps);
  return m;
}

TEST(Machine, MovAndArithmetic) {
  const Machine m = run_source(R"(
    movl $20, %eax
    movl $22, %ebx
    addl %ebx, %eax
    hlt
)");
  EXPECT_EQ(m.reg(Reg::Eax), 42u);
}

TEST(Machine, ImulSignedMultiply) {
  const Machine m = run_source(R"(
    movl $-6, %eax
    movl $7, %ebx
    imull %ebx, %eax
    hlt
)");
  EXPECT_EQ(static_cast<std::int32_t>(m.reg(Reg::Eax)), -42);
}

// Flag semantics sweep: cmp against host comparison for signed and
// unsigned relations, across a grid of interesting values.
class CmpFlags : public ::testing::TestWithParam<std::pair<std::int32_t, std::int32_t>> {};

TEST_P(CmpFlags, ConditionCodesMatchHostComparisons) {
  const auto [a, b] = GetParam();
  Machine m;
  m.load(assemble("cmpl $" + std::to_string(b) + ", %eax\nhlt\n"));
  m.set_reg(Reg::Eax, static_cast<std::uint32_t>(a));
  m.run();
  const Eflags f = m.flags();
  const std::uint32_t ua = static_cast<std::uint32_t>(a), ub = static_cast<std::uint32_t>(b);
  EXPECT_EQ(f.zf, a == b);
  EXPECT_EQ(f.cf, ua < ub);                 // unsigned below
  EXPECT_EQ(f.sf != f.of, a < b);           // signed less-than identity
  EXPECT_EQ(!f.zf && f.sf == f.of, a > b);  // signed greater-than identity
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CmpFlags,
    ::testing::Values(std::pair{0, 0}, std::pair{1, 2}, std::pair{2, 1},
                      std::pair{-1, 1}, std::pair{1, -1}, std::pair{-5, -3},
                      std::pair{-3, -5}, std::pair{2147483647, -2147483648},
                      std::pair{-2147483648, 2147483647}, std::pair{-1, -1}));

TEST(Machine, ConditionalJumpsFollowFlags) {
  // Signed vs unsigned comparison: -1 < 1 signed, but 0xFFFFFFFF > 1 unsigned.
  const Machine m = run_source(R"(
    movl $-1, %eax
    cmpl $1, %eax
    jl signed_less
    movl $0, %ebx
    jmp unsigned_part
signed_less:
    movl $1, %ebx
unsigned_part:
    movl $-1, %eax
    cmpl $1, %eax
    ja unsigned_above
    movl $0, %ecx
    hlt
unsigned_above:
    movl $1, %ecx
    hlt
)");
  EXPECT_EQ(m.reg(Reg::Ebx), 1u) << "-1 < 1 signed";
  EXPECT_EQ(m.reg(Reg::Ecx), 1u) << "0xffffffff > 1 unsigned";
}

TEST(Machine, AddressingModes) {
  Machine m;
  m.load(assemble(R"(
    movl $0x2000, %eax
    movl $2, %ebx
    movl $7, 0(%eax)
    movl $8, 4(%eax)
    movl $9, 8(%eax)
    movl (%eax,%ebx,4), %ecx   # mem[0x2000 + 2*4] = 9
    movl 4(%eax), %edx
    hlt
)"));
  m.run();
  EXPECT_EQ(m.reg(Reg::Ecx), 9u);
  EXPECT_EQ(m.reg(Reg::Edx), 8u);
  EXPECT_EQ(m.load32(0x2000), 7u);
}

TEST(Machine, LeaComputesWithoutMemoryAccess) {
  const Machine m = run_source(R"(
    movl $0x10, %eax
    movl $3, %ebx
    leal 5(%eax,%ebx,2), %ecx
    hlt
)");
  EXPECT_EQ(m.reg(Reg::Ecx), 0x10u + 3 * 2 + 5);
}

TEST(Machine, PushPopStackDiscipline) {
  Machine m;
  m.load(assemble(R"(
    movl $11, %eax
    movl $22, %ebx
    pushl %eax
    pushl %ebx
    popl %ecx
    popl %edx
    hlt
)"));
  const std::uint32_t esp0 = 0;  // captured after load below
  m.run();
  EXPECT_EQ(m.reg(Reg::Ecx), 22u) << "LIFO order";
  EXPECT_EQ(m.reg(Reg::Edx), 11u);
  (void)esp0;
  // Balanced pushes/pops restore ESP to the load-time top.
  Machine fresh;
  fresh.load(assemble("hlt\n"));
  EXPECT_EQ(m.reg(Reg::Esp), fresh.reg(Reg::Esp));
}

TEST(Machine, CallRetAndFramePointerDiscipline) {
  // The canonical prologue/epilogue the course traces for a week.
  const Machine m = run_source(R"(
main:
    movl $5, %eax
    pushl %eax          # argument
    call square
    addl $4, %esp       # caller cleans up
    hlt
square:
    pushl %ebp
    movl %esp, %ebp
    movl 8(%ebp), %ebx  # the argument
    imull %ebx, %ebx
    movl %ebx, %eax
    leave
    ret
)");
  EXPECT_EQ(m.reg(Reg::Eax), 25u);
}

TEST(Machine, NestedCallsReturnCorrectly) {
  const Machine m = run_source(R"(
main:
    call f
    hlt
f:
    pushl %ebp
    movl %esp, %ebp
    call g
    addl $1, %eax
    leave
    ret
g:
    movl $10, %eax
    ret
)");
  EXPECT_EQ(m.reg(Reg::Eax), 11u);
}

TEST(Machine, RetFromOutermostFrameHalts) {
  Machine m;
  m.load(assemble("movl $1, %eax\nret\n"));
  m.run();
  EXPECT_TRUE(m.halted());
  EXPECT_EQ(m.reg(Reg::Eax), 1u);
}

TEST(Machine, ShiftsSetCarryFromShiftedBit) {
  const Machine m = run_source(R"(
    movl $1, %eax
    shll $31, %eax      # eax = 0x80000000
    sarl $31, %eax      # arithmetic: eax = -1
    movl $1, %ebx
    shrl $1, %ebx       # logical: CF gets the 1
    hlt
)");
  EXPECT_EQ(m.reg(Reg::Eax), 0xFFFFFFFFu);
  EXPECT_TRUE(m.flags().cf);
}

TEST(Machine, IncDecPreserveCarry) {
  Machine m;
  m.load(assemble(R"(
    movl $-1, %eax
    addl $1, %eax       # sets CF
    incl %ebx           # must not clear CF
    hlt
)"));
  m.run();
  EXPECT_TRUE(m.flags().cf);
}

TEST(Machine, TestAndCmpDoNotWriteOperands) {
  const Machine m = run_source(R"(
    movl $7, %eax
    testl %eax, %eax
    cmpl $3, %eax
    hlt
)");
  EXPECT_EQ(m.reg(Reg::Eax), 7u);
}

TEST(Machine, SegfaultOnWildAccess) {
  Machine m(4096);
  m.load(assemble("movl $100000, %eax\nmovl (%eax), %ebx\nhlt\n", 0));
  EXPECT_THROW(m.run(), Error);
}

TEST(Machine, EipOutsideImageThrows) {
  Machine m;
  m.load(assemble("nop\nnop\n"));  // falls off the end
  EXPECT_THROW(m.run(), Error);
}

TEST(Machine, WritingToImmediateThrows) {
  Machine m;
  m.load(assemble("movl %eax, $5\nhlt\n"));
  EXPECT_THROW(m.run(), Error);
}

TEST(Machine, StartSymbolSelectsEntryPoint) {
  Machine m;
  m.load(assemble("helper:\n  hlt\n_start:\n  movl $9, %eax\n  hlt\n"));
  m.run();
  EXPECT_EQ(m.reg(Reg::Eax), 9u);
}

TEST(Machine, RunawayGuardThrows) {
  Machine m;
  m.load(assemble("loop:\n  jmp loop\n"));
  EXPECT_THROW(m.run(1000), Error);
}

TEST(Machine, TooSmallMemoryRejected) {
  EXPECT_THROW(Machine(100), Error);
}

/// The what() of `f`'s cs31::Error, or "" when it does not throw one.
template <typename F>
std::string error_text(F f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Machine, RequireFitsIsTheCheckLoadRuns) {
  Machine m(4096);
  Image fits;
  fits.bytes.assign(4096, 0);
  Image too_big;
  too_big.bytes.assign(4097, 0);
  EXPECT_NO_THROW(m.require_fits(fits));
  EXPECT_EQ(error_text([&] { m.require_fits(too_big); }), "image does not fit in memory");
  EXPECT_EQ(error_text([&] { m.load(too_big); }), "image does not fit in memory");
}

TEST(Machine, MovedInLoadEqualsCopiedLoad) {
  // The grader moves each image into its machine; a program must run
  // the same as when the machine copies the image, including onto a
  // machine that last held another program or the same one.
  const Image image = assemble(
      "helper:\n  movl 4(%esp), %eax\n  addl $5, %eax\n  ret\n"
      "_start:\n  pushl $37\n  call helper\n  movl %eax, 2048(%ebx)\n  hlt\n");
  const auto digest = [](const Machine& m) {
    std::uint64_t h = 14695981039346656037ull;
    for (std::uint32_t addr = 0; addr < m.memory_size(); ++addr) {
      h = (h ^ m.load8(addr)) * 1099511628211ull;
    }
    return h;
  };
  for (const char* before : {"", "nop\nhlt\n", "same"}) {
    Machine copied(1u << 16), moved(1u << 16);
    if (std::string(before) == "same") {
      copied.load(image);
      moved.load(image);
    } else if (*before != '\0') {
      copied.load(assemble(before));
      moved.load(assemble(before));
    }
    Image taken = image;
    copied.load(image);
    moved.load(std::move(taken));
    EXPECT_EQ(moved.image().bytes, image.bytes) << before;
    EXPECT_EQ(moved.image().symbols, image.symbols) << before;
    EXPECT_EQ(moved.reg(Reg::Eip), image.symbol("_start")) << before;
    EXPECT_EQ(moved.reg(Reg::Eip), copied.reg(Reg::Eip)) << before;
    EXPECT_EQ(moved.reg(Reg::Esp), copied.reg(Reg::Esp)) << before;
    EXPECT_EQ(digest(moved), digest(copied)) << before;
    EXPECT_EQ(moved.run(1000), copied.run(1000)) << before;
    EXPECT_EQ(moved.reg(Reg::Eax), 42u) << before;
    for (const Reg r : {Reg::Eax, Reg::Ecx, Reg::Edx, Reg::Ebx, Reg::Esp, Reg::Ebp, Reg::Esi,
                        Reg::Edi, Reg::Eip}) {
      EXPECT_EQ(moved.reg(r), copied.reg(r)) << before;
    }
    EXPECT_EQ(digest(moved), digest(copied)) << before;
  }
}

TEST(Machine, StepFaultMessagesAreExact) {
  Machine m;
  m.load(assemble("nop\nhlt\n"));
  const std::uint32_t entry = m.reg(Reg::Eip);
  m.store8(entry, 0xFF);
  EXPECT_EQ(error_text([&] { m.step(); }), "bad opcode 255");
  const std::uint8_t bad[kInstrBytes] = {0xFF};
  EXPECT_EQ(error_text([&] { (void)decode(bad); }), "bad opcode 255");
  m.set_reg(Reg::Eip, entry + 2 * kInstrBytes);
  EXPECT_EQ(error_text([&] { m.step(); }),
            "EIP 0x" + std::to_string(entry + 2 * kInstrBytes) + " outside the loaded program");
}

// --- run_limited: the grading service's resource budgets ---------------

TEST(RunLimited, HaltedWellUnderBothLimits) {
  Machine m;
  m.load(assemble("movl $5, %eax\n  hlt\n"));
  const auto outcome = m.run_limited({1000, 10.0});
  EXPECT_EQ(outcome.reason, Machine::StopReason::Halted);
  EXPECT_EQ(outcome.instructions, 2u);
  EXPECT_TRUE(m.halted());
  EXPECT_EQ(m.reg(Reg::Eax), 5u);
}

TEST(RunLimited, InstructionLimitIsAnOutcomeNotAnException) {
  Machine m;
  m.load(assemble("loop:\n  jmp loop\n"));
  const auto outcome = m.run_limited({1000, 0.0});
  EXPECT_EQ(outcome.reason, Machine::StopReason::InstructionLimit);
  EXPECT_EQ(outcome.instructions, 1000u);
  EXPECT_FALSE(m.halted());
}

TEST(RunLimited, WallClockLimitStopsARunawayLoop) {
  Machine m;
  m.load(assemble("loop:\n  jmp loop\n"));
  // No instruction limit at all: only the wall clock can stop this.
  const auto outcome = m.run_limited({0, 0.05});
  EXPECT_EQ(outcome.reason, Machine::StopReason::TimeLimit);
  EXPECT_FALSE(m.halted());
}

TEST(RunLimited, InstructionLimitBindsBeforeAGenerousWallClock) {
  // The grading service's configuration: a deterministic instruction
  // budget far below a generous wall-clock backstop must be the limit
  // that fires, or report streams would depend on machine load.
  Machine m;
  m.load(assemble("loop:\n  jmp loop\n"));
  const auto outcome = m.run_limited({5000, 60.0});
  EXPECT_EQ(outcome.reason, Machine::StopReason::InstructionLimit);
  EXPECT_EQ(outcome.instructions, 5000u);
}

TEST(RunLimited, BothLimitsZeroRejected) {
  Machine m;
  m.load(assemble("hlt\n"));
  EXPECT_THROW(m.run_limited({0, 0.0}), Error);
}

TEST(RunLimited, ResumableAfterALimitStop) {
  // A limited run leaves the machine in a valid paused state: granting
  // more budget continues from where it stopped.
  Machine m;
  m.load(assemble("movl $0, %eax\nloop:\n  incl %eax\n  cmpl $100, %eax\n  jne loop\n  hlt\n"));
  const auto first = m.run_limited({10, 0.0});
  EXPECT_EQ(first.reason, Machine::StopReason::InstructionLimit);
  const auto rest = m.run_limited({100000, 0.0});
  EXPECT_EQ(rest.reason, Machine::StopReason::Halted);
  EXPECT_EQ(m.reg(Reg::Eax), 100u);
}

// --- the two execution cores: edge cases the fuzzer can't aim at ------
//
// Machine::run defaults to the predecoded core; set_core(Switch) pins
// the reference interpreter. Each case here runs on both and compares,
// so the suite documents *which* semantics the block cache must get
// right: self-modifying stores, jumps into the middle of a cached
// block, flag recipes on boundary operands, and budgets that cut a
// block mid-stride.

/// Run the same source to halt on each core and hand both machines back.
std::pair<Machine, Machine> run_both(const std::string& src, std::size_t max_steps = 100000) {
  std::pair<Machine, Machine> pair;
  pair.first.load(assemble(src));  // default: predecoded
  pair.second.set_core(Machine::Core::Switch);
  pair.second.load(assemble(src));
  pair.first.run(max_steps);
  pair.second.run(max_steps);
  return pair;
}

void expect_same_state(const Machine& fast, const Machine& slow) {
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(fast.reg(static_cast<Reg>(i)), slow.reg(static_cast<Reg>(i)))
        << reg_name(static_cast<Reg>(i));
  }
  EXPECT_EQ(fast.reg(Reg::Eip), slow.reg(Reg::Eip));
  EXPECT_EQ(fast.flags() == slow.flags(), true);
  EXPECT_EQ(fast.instructions_executed(), slow.instructions_executed());
  EXPECT_EQ(fast.halted(), slow.halted());
}

/// Source for a program that overwrites the instruction at `patch_me`
/// with `replacement` (a single instruction) before reaching it.
std::string self_modifying_source(const std::string& replacement) {
  // The replacement's 16 encoded bytes, as four store immediates.
  const Image encoded = assemble(replacement + "\n");
  std::uint32_t words[4];
  for (int w = 0; w < 4; ++w) {
    std::uint32_t v = 0;
    for (int b = 0; b < 4; ++b) {
      v |= static_cast<std::uint32_t>(encoded.bytes[4 * w + b]) << (8 * b);
    }
    words[w] = v;
  }
  // Two-pass trick: label addresses depend only on instruction count,
  // so assemble once with dummy immediates to learn patch_me's address,
  // then emit the real source.
  const auto source_with = [&](std::uint32_t addr) {
    std::string src = "_start:\n    movl $" + std::to_string(addr) + ", %esi\n";
    for (int w = 0; w < 4; ++w) {
      src += "    movl $" + std::to_string(static_cast<std::int32_t>(words[w])) + ", " +
             std::to_string(4 * w) + "(%esi)\n";
    }
    src += "patch_me:\n    movl $1, %ebx\n    hlt\n";
    return src;
  };
  return source_with(assemble(source_with(0)).symbol("patch_me"));
}

TEST(TwoCores, SelfModifyingStoreIsExecutedFromFreshBytes) {
  const std::string src = self_modifying_source("movl $99, %ebx");
  auto [fast, slow] = run_both(src);
  expect_same_state(fast, slow);
  // The patched instruction, not the original, must have executed.
  EXPECT_EQ(fast.reg(Reg::Ebx), 99u);
  // Every one of the four code-range stores flushed the block cache.
  EXPECT_GE(fast.code_cache_stats().invalidations, 4u);
}

TEST(TwoCores, SelfModifyingNextFetchSeesTheNewOpcode) {
  // The patch turns the *immediately next* instruction into an addl —
  // the store and its consumer are back to back, so the fast core must
  // cut its block at the store, not just eventually notice.
  const std::string src = self_modifying_source("addl $7, %ebx");
  auto [fast, slow] = run_both(src);
  expect_same_state(fast, slow);
  EXPECT_EQ(fast.reg(Reg::Ebx), slow.reg(Reg::Ebx));
}

TEST(TwoCores, ExternalStore32IntoCodeInvalidatesTheCache) {
  // Machine::store32 is the debugger's poke; landing it in the image
  // must flush predecoded blocks just like an executed store.
  Machine m;
  m.load(assemble("_start:\n    movl $1, %eax\n    movl $2, %ebx\n    hlt\n"));
  (void)m.run_limited({1, 0.0});  // populate the cache
  const std::size_t before = m.code_cache_stats().invalidations;
  const Image patch = assemble("movl $42, %ebx\n");
  const std::uint32_t target = m.image().base + 16;  // the movl $2 slot
  for (int w = 0; w < 4; ++w) {
    std::uint32_t v = 0;
    for (int b = 0; b < 4; ++b) {
      v |= static_cast<std::uint32_t>(patch.bytes[4 * w + b]) << (8 * b);
    }
    m.store32(target + 4 * w, v);
  }
  EXPECT_GT(m.code_cache_stats().invalidations, before);
  m.run(100);
  EXPECT_EQ(m.reg(Reg::Ebx), 42u);
}

TEST(TwoCores, JumpIntoTheMiddleOfACachedBlock) {
  // The loop re-enters at `mid`, inside the block predecoded from
  // _start: the cache must serve an overlapping block, not misexecute.
  const std::string src = R"(
_start:
    movl $1, %eax
mid:
    addl $1, %eax
    cmpl $10, %eax
    jl mid
    hlt
)";
  auto [fast, slow] = run_both(src);
  expect_same_state(fast, slow);
  EXPECT_EQ(fast.reg(Reg::Eax), 10u);
  const auto& stats = fast.code_cache_stats();
  // Blocks at _start, at mid (overlapping), and at the hlt.
  EXPECT_GE(stats.predecodes, 3u);
  // The loop body reused the cached mid block on every iteration.
  EXPECT_GT(stats.lookups, stats.predecodes);
  EXPECT_EQ(stats.invalidations, 0u);
}

TEST(TwoCores, FlagRecipesOnBoundaryOperands) {
  // Each source ends halted with the interesting flags still set; the
  // cores must agree bit-for-bit, and the values pin x86 semantics.
  const std::string cases[] = {
      // negl INT_MIN: result is INT_MIN again, OF and CF both set.
      "movl $-2147483648, %eax\n    negl %eax\n    hlt\n",
      // INT_MAX + 1 overflows to the sign bit.
      "movl $2147483647, %eax\n    addl $1, %eax\n    hlt\n",
      // Shift by zero leaves every flag untouched (cmp sets them first).
      "movl $5, %eax\n    cmpl $5, %eax\n    shll $0, %eax\n    hlt\n",
      // Shift count is masked to 5 bits: 32 behaves like 0.
      "movl $-1, %eax\n    cmpl $1, %eax\n    shrl $32, %eax\n    hlt\n",
      // incl wraps 0xffffffff to zero, preserving CF (set by the cmp's
      // borrow: 0 < 1 unsigned).
      "movl $-1, %eax\n    movl $0, %ebx\n    cmpl $1, %ebx\n    incl %eax\n    hlt\n",
      // decl of zero borrows into the sign bit, CF again preserved.
      "movl $0, %eax\n    cmpl $1, %eax\n    decl %eax\n    hlt\n",
  };
  for (const std::string& src : cases) {
    auto [fast, slow] = run_both(src);
    expect_same_state(fast, slow);
  }
  // Spot-pin the recipes themselves (not just core agreement).
  const Machine neg_min = run_both(cases[0]).first;
  EXPECT_EQ(neg_min.reg(Reg::Eax), 0x80000000u);
  EXPECT_TRUE(neg_min.flags().of);
  EXPECT_TRUE(neg_min.flags().cf);
  const Machine inc_wrap = run_both(cases[4]).first;
  EXPECT_EQ(inc_wrap.reg(Reg::Eax), 0u);
  EXPECT_TRUE(inc_wrap.flags().zf);
  EXPECT_TRUE(inc_wrap.flags().cf) << "incl must preserve the borrow from cmpl";
}

TEST(TwoCores, BudgetStopExactlyAtABlockBoundary) {
  // Four instructions up to and including the jmp, then a second block.
  const std::string src = R"(
_start:
    movl $1, %eax
    movl $2, %ebx
    movl $3, %ecx
    jmp next
next:
    movl $4, %edx
    hlt
)";
  const Image image = assemble(src);
  for (const Machine::Core core : {Machine::Core::Predecoded, Machine::Core::Switch}) {
    Machine m;
    m.set_core(core);
    m.load(image);
    const auto outcome = m.run_limited({4, 0.0});
    EXPECT_EQ(outcome.reason, Machine::StopReason::InstructionLimit);
    EXPECT_EQ(outcome.instructions, 4u);
    EXPECT_EQ(m.reg(Reg::Eip), image.symbol("next")) << "stopped on the block boundary";
    EXPECT_EQ(m.reg(Reg::Edx), 0u) << "the next block must not have started";
    const auto rest = m.run_limited({100, 0.0});
    EXPECT_EQ(rest.reason, Machine::StopReason::Halted);
    EXPECT_EQ(rest.instructions, 2u);
    EXPECT_EQ(m.reg(Reg::Edx), 4u);
  }
}

TEST(TwoCores, BudgetStopMidBlock) {
  const std::string src = R"(
_start:
    movl $1, %eax
    movl $2, %ebx
    movl $3, %ecx
    jmp next
next:
    movl $4, %edx
    hlt
)";
  const Image image = assemble(src);
  for (const Machine::Core core : {Machine::Core::Predecoded, Machine::Core::Switch}) {
    Machine m;
    m.set_core(core);
    m.load(image);
    const auto outcome = m.run_limited({2, 0.0});
    EXPECT_EQ(outcome.reason, Machine::StopReason::InstructionLimit);
    EXPECT_EQ(outcome.instructions, 2u);
    // Stopped between the second and third instruction of the block.
    EXPECT_EQ(m.reg(Reg::Eip), image.base + 32u);
    EXPECT_EQ(m.reg(Reg::Ebx), 2u);
    EXPECT_EQ(m.reg(Reg::Ecx), 0u);
    const auto rest = m.run_limited({100, 0.0});
    EXPECT_EQ(rest.reason, Machine::StopReason::Halted);
    EXPECT_EQ(rest.instructions, 4u);
  }
}

TEST(TwoCores, StepAlwaysUsesTheSwitchInterpreter) {
  // Single-stepping is the debugger's teaching view: it must work (and
  // agree with run) regardless of the selected core, and stepping a
  // machine must interleave cleanly with fast-core runs.
  Machine m;
  m.load(assemble("movl $1, %eax\n    addl $2, %eax\n    imull $3, %eax\n    hlt\n"));
  EXPECT_TRUE(m.step());
  EXPECT_EQ(m.reg(Reg::Eax), 1u);
  (void)m.run_limited({1, 0.0});  // fast core continues mid-program
  EXPECT_EQ(m.reg(Reg::Eax), 3u);
  EXPECT_TRUE(m.step());
  EXPECT_EQ(m.reg(Reg::Eax), 9u);
  (void)m.run_limited({10, 0.0});
  EXPECT_TRUE(m.halted());
  EXPECT_EQ(m.instructions_executed(), 4u);
}

TEST(TwoCores, MemoryTracingFallsBackToTheReferenceCore) {
  // The memory trace is defined by the reference interpreter's access
  // order; with tracing on, run() must produce it even though the
  // machine still reports the predecoded core as selected.
  Machine traced;
  traced.set_trace_memory(true);
  traced.load(assemble("pushl $7\n    popl %eax\n    hlt\n"));
  traced.run(100);
  ASSERT_EQ(traced.memory_trace().size(), 2u);
  EXPECT_TRUE(traced.memory_trace()[0].is_write);
  EXPECT_FALSE(traced.memory_trace()[1].is_write);
  EXPECT_EQ(traced.core(), Machine::Core::Predecoded);
}

TEST(TwoCores, ReloadingTheSameImageKeepsTheBlockCacheWarm) {
  // The maze-attempt / grader-regrade pattern: load, run, load the same
  // image again. The code bytes in memory are untouched, so every
  // predecoded block is still exact — the reload must keep them.
  const Image image = assemble("_start:\n    movl $5, %eax\n    addl $2, %eax\n    hlt\n");
  Machine m;
  m.load(image);
  m.run(100);
  const std::size_t warm = m.code_cache_stats().predecodes;
  EXPECT_GE(warm, 1u);
  for (int rep = 0; rep < 3; ++rep) {
    m.load(image);
    EXPECT_EQ(m.instructions_executed(), 0u);  // architectural reset still full
    m.run(100);
    EXPECT_EQ(m.reg(Reg::Eax), 7u);
  }
  // Reused, never re-predecoded.
  EXPECT_EQ(m.code_cache_stats().predecodes, warm);
  EXPECT_GT(m.code_cache_stats().lookups, warm);
}

TEST(TwoCores, ReloadingADifferentImageResetsTheCache) {
  const Image first = assemble("movl $1, %eax\n    hlt\n");
  // Same length, same base, different bytes.
  const Image second = assemble("movl $2, %eax\n    hlt\n");
  Machine m;
  m.load(first);
  m.run(100);
  EXPECT_EQ(m.reg(Reg::Eax), 1u);
  m.load(second);
  m.run(100);
  EXPECT_EQ(m.reg(Reg::Eax), 2u);
  // Identical bytes but different symbols must also be treated as a new
  // image: the entry label moved even though the encoding did not.
  const Image late_entry = assemble("skip:\n    movl $3, %eax\n_start:\n    hlt\n");
  const Image early_entry = assemble("_start:\n    movl $3, %eax\nskip:\n    hlt\n");
  ASSERT_EQ(late_entry.bytes, early_entry.bytes);
  m.load(early_entry);
  m.run(100);
  EXPECT_EQ(m.reg(Reg::Eax), 3u);
  m.load(late_entry);
  m.run(100);
  EXPECT_EQ(m.reg(Reg::Eax), 0u);  // entered at the hlt directly
}

TEST(TwoCores, ReloadAfterSelfModificationRestoresTheImageBytes) {
  // A run that patched its own code dirtied memory: the next load of
  // the same image must notice, re-copy the pristine bytes, and drop
  // the cache rather than reuse blocks decoded from patched code.
  const Image image = assemble(self_modifying_source("movl $99, %ebx"));
  Machine m;
  m.load(image);
  m.run(100000);
  EXPECT_EQ(m.reg(Reg::Ebx), 99u);
  m.load(image);
  m.run(100000);
  EXPECT_EQ(m.reg(Reg::Ebx), 99u);  // original movl $1 patched again, not stale
  // And the cores still agree after the reload cycle.
  Machine slow;
  slow.set_core(Machine::Core::Switch);
  slow.load(image);
  slow.run(100000);
  expect_same_state(m, slow);
}

TEST(TwoCores, LazyBlockDiscoveryAgreesWithTheStaticCfg) {
  // predecode.hpp's block rule (entry to first control transfer) is
  // the same leader rule cs31::analyze uses for its ISA CFGs; this
  // pins the lazy, jump-target-driven discovery against the static
  // whole-image pass. The one sanctioned difference: a static block
  // also ends where the *next leader* begins (a fallthrough target),
  // while a lazy block keeps going to the control transfer — so every
  // static block must be a prefix of the lazy block at its leader.
  const auto is_control = [](Mnemonic op) {
    return (op >= Mnemonic::Jmp && op <= Mnemonic::Jns) || op == Mnemonic::Call ||
           op == Mnemonic::Ret || op == Mnemonic::Hlt;
  };
  const Image images[] = {Maze(12).image(), assemble(generate_program(7).source)};
  for (const Image& image : images) {
    const analyze::IsaCfg cfg = analyze::build_cfg(image);
    std::vector<std::uint8_t> mem(1u << 16, 0);
    std::copy(image.bytes.begin(), image.bytes.end(), mem.begin() + image.base);
    predecode::BlockCache cache;
    cache.reset(image.base, static_cast<std::uint32_t>(image.bytes.size()));
    for (const analyze::IsaBlock& block : cfg.blocks) {
      const predecode::PredecodedBlock& lazy = cache.obtain(block.start, mem.data());
      ASSERT_EQ(lazy.start, block.start);
      ASSERT_GE(lazy.ops.size(), block.instrs.size()) << "static block at " << block.start;
      for (std::size_t i = 0; i < block.instrs.size(); ++i) {
        EXPECT_EQ(lazy.ops[i].addr, block.instrs[i].addr);
      }
      const std::uint32_t static_end =
          block.start + static_cast<std::uint32_t>(block.instrs.size()) * kInstrBytes;
      if (is_control(block.instrs.back().ins.op)) {
        // Both discoveries cut the block at the control transfer.
        EXPECT_EQ(lazy.ops.size(), block.instrs.size()) << "static block at " << block.start;
        EXPECT_TRUE(lazy.ends_in_control);
      } else if (static_end < image.base + image.bytes.size()) {
        // The static block stopped at a fallthrough leader; the lazy
        // block ran on and must itself end at a control transfer.
        EXPECT_GT(lazy.ops.size(), block.instrs.size());
        EXPECT_TRUE(lazy.ends_in_control);
      }
    }
  }
}


// --- reset: a reused Machine is a new Machine ----------------------------
//
// reset() zeroes only the pages marked dirty, so each write path must
// mark what it writes. Each case writes through one path, resets, and
// compares every observable field (all of memory included) with a
// freshly constructed Machine of the same size.

void expect_like_new(const Machine& m) {
  const Machine fresh(m.memory_size());
  std::size_t stale = 0;
  std::uint32_t first_stale = 0;
  for (std::uint32_t a = 0; a < m.memory_size(); ++a) {
    if (m.load8(a) != fresh.load8(a) && stale++ == 0) first_stale = a;
  }
  EXPECT_EQ(stale, 0u) << "first stale byte at " << first_stale;
  expect_same_state(m, fresh);
  EXPECT_EQ(m.core(), fresh.core());
  EXPECT_TRUE(m.image().bytes.empty());
  EXPECT_TRUE(m.memory_trace().empty());
  const predecode::CacheStats& got = m.code_cache_stats();
  const predecode::CacheStats& want = fresh.code_cache_stats();
  EXPECT_EQ(got.blocks, want.blocks);
  EXPECT_EQ(got.predecodes, want.predecodes);
  EXPECT_EQ(got.lookups, want.lookups);
  EXPECT_EQ(got.invalidations, want.invalidations);
}

/// Stores to a far address, across a page boundary and deep in the
/// stack, then pushes.
const char* const kScribbler = R"(
_start:
    movl $0, %eax
    movl $1234, 600000(%eax)
    movl $-1, 8190(%eax)
    movl %esp, %ebx
    movl $5678, -40000(%ebx)
    pushl $9
    pushl $10
    call leaf
    hlt
leaf:
    pushl %ebp
    movl %esp, %ebp
    leave
    ret
)";

TEST(Reset, StorePokesIncludingAPageStraddle) {
  Machine m;
  m.store32(4094, 0xdeadbeefu);  // bytes 4094..4097: pages 0 and 1
  m.store32(700000, 7);
  m.store8(m.memory_size() - 1, 0xff);
  m.reset();
  expect_like_new(m);
}

TEST(Reset, FastAndSwitchCoreStoresAndPushes) {
  for (const Machine::Core core : {Machine::Core::Predecoded, Machine::Core::Switch}) {
    Machine m;
    m.set_core(core);
    m.set_trace_memory(core == Machine::Core::Switch);
    m.load(assemble(kScribbler));
    m.run();
    ASSERT_EQ(m.load32(600000), 1234u);
    m.reset();
    expect_like_new(m);
  }
}

TEST(Reset, SelfModifyingStore) {
  Machine m;
  m.load(assemble(self_modifying_source("movl $99, %ebx")));
  m.run();
  ASSERT_EQ(m.reg(Reg::Ebx), 99u);
  m.reset();
  expect_like_new(m);
}

TEST(Reset, MidRunFault) {
  Machine m;
  m.load(assemble("_start:\n    movl $0, %eax\n    movl $3, 500000(%eax)\n"
                  "    pushl $4\n    movl 2000000000(%eax), %ebx\n    hlt\n"));
  EXPECT_THROW(m.run(), Error);
  m.reset();
  expect_like_new(m);
}

TEST(Reset, InstructionBudgetStop) {
  Machine m;
  m.load(assemble("_start:\n    pushl $1\n    jmp _start\n"));
  ASSERT_EQ(m.run_limited({1000, 0.0}).reason, Machine::StopReason::InstructionLimit);
  m.reset();
  expect_like_new(m);
}

TEST(Reset, LargeImageThenASmallerOne) {
  // 600 instructions span three pages; the small program must not run
  // into (or leave behind) any of the large image's bytes.
  std::string large = "_start:\n";
  for (int i = 0; i < 600; ++i) large += "    movl $" + std::to_string(i) + ", %eax\n";
  large += "    hlt\n";
  // 0x1000 + 4096 is the large image's 257th instruction.
  const Image small = assemble("_start:\n    movl $0, %eax\n    movl 8192(%eax), %ecx\n    hlt\n");
  Machine m;
  m.load(assemble(large));
  m.run();
  m.reset();
  expect_like_new(m);
  m.load(small);
  m.run();
  Machine fresh;
  fresh.load(small);
  fresh.run();
  expect_same_state(m, fresh);
  EXPECT_EQ(m.reg(Reg::Ecx), 0u);
  EXPECT_EQ(m.code_cache_stats().predecodes, fresh.code_cache_stats().predecodes);
}

TEST(Reset, MemorySizeThatIsNotAPageMultiple) {
  Machine m(4096 + 6);
  m.store32(4098, 0x01020304u);  // the last four bytes, in the partial page
  m.load(assemble("_start:\n    pushl $5\n    call f\n    hlt\nf:\n    ret\n", 0));
  m.run();
  m.reset();
  expect_like_new(m);
  EXPECT_THROW(m.store32(4099, 0), Error);  // bounds unchanged by the reset
}

}  // namespace
}  // namespace cs31::isa
