// Differential execution fuzzing: the proof-by-bombardment that the
// predecoded threaded-dispatch core and the switch interpreter are the
// same machine. Over a thousand seeded generated programs — plus the
// bundled Lab 4 routines under a call harness, every floor of a
// 16-floor maze, and the compiled mini-C corpus at both optimizer
// levels — run on both cores in randomly sized run_limited chunks, and
// the architectural trajectories must be byte-identical: same
// registers, same EFLAGS, same EIP at every chunk boundary, same
// instruction counts, same stop reasons at exact budget-exhaustion
// points, same memory image, and the same error text when a program
// faults.
//
// Reproducing a divergence: every failure message carries the seed (and
// for generated programs the full source via to_string()).
// `generate_program(seed, config_for(seed))` regenerates the exact
// program; the chunk schedule is derived from the same seed.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "ccomp/driver.hpp"
#include "ccomp_corpus.hpp"
#include "common/error.hpp"
#include "isa/assembler.hpp"
#include "isa/machine.hpp"
#include "isa/maze.hpp"
#include "isa/program_gen.hpp"
#include "isa/samples.hpp"

namespace cs31::isa {
namespace {

/// splitmix64, for the chunk schedule — same generator family as
/// program_gen, so the whole repro is two seeds (here they coincide).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::uint32_t below(std::uint32_t bound) {
    return bound == 0 ? 0 : static_cast<std::uint32_t>(next() % bound);
  }

 private:
  std::uint64_t state_;
};

/// Everything architecturally observable about a machine short of its
/// memory image, as one comparable, printable value.
struct Snapshot {
  std::array<std::uint32_t, 8> regs{};
  std::uint32_t eip = 0;
  Eflags flags;
  std::size_t executed = 0;
  bool halted = false;

  friend bool operator==(const Snapshot&, const Snapshot&) = default;

  [[nodiscard]] std::string to_string() const {
    std::ostringstream out;
    for (std::size_t i = 0; i < regs.size(); ++i) {
      out << reg_name(static_cast<Reg>(i)) << "=" << regs[i] << " ";
    }
    out << "eip=" << eip << " cf=" << flags.cf << " zf=" << flags.zf << " sf=" << flags.sf
        << " of=" << flags.of << " executed=" << executed << " halted=" << halted;
    return out.str();
  }
};

Snapshot snap(const Machine& m) {
  Snapshot s;
  for (std::size_t i = 0; i < s.regs.size(); ++i) s.regs[i] = m.reg(static_cast<Reg>(i));
  s.eip = m.reg(Reg::Eip);
  s.flags = m.flags();
  s.executed = m.instructions_executed();
  s.halted = m.halted();
  return s;
}

/// FNV-1a over the whole memory image, word at a time.
std::uint64_t memory_digest(const Machine& m) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint32_t addr = 0; addr + 4 <= m.memory_size(); addr += 4) {
    std::uint32_t w = m.load32(addr);
    for (int i = 0; i < 4; ++i) {
      h ^= (w >> (8 * i)) & 0xffu;
      h *= 1099511628762211ULL;
    }
  }
  return h;
}

/// Drive two already-loaded machines through the same program in
/// randomly sized run_limited chunks and assert the trajectories are
/// identical at every boundary. `chunk_span` bounds the chunk sizes
/// (small spans cut blocks mid-stride constantly; large spans keep the
/// digesting affordable for long corpus runs).
void run_pair(Machine& fast, Machine& slow, std::uint64_t seed, std::uint32_t chunk_span,
              const std::string& repro) {
  ASSERT_EQ(fast.core(), Machine::Core::Predecoded) << repro;
  slow.set_core(Machine::Core::Switch);
  SplitMix64 rng(seed ^ 0xD1FFF022ULL);
  constexpr std::size_t kMaxTotal = 4'000'000;  // runaway guard, never a comparison
  std::size_t total = 0;
  while (total < kMaxTotal) {
    const Machine::RunLimits limits{1 + rng.below(chunk_span), 0.0};
    std::string fast_error, slow_error;
    Machine::RunOutcome fast_outcome{}, slow_outcome{};
    try {
      fast_outcome = fast.run_limited(limits);
    } catch (const Error& e) {
      fast_error = e.what();
    }
    try {
      slow_outcome = slow.run_limited(limits);
    } catch (const Error& e) {
      slow_error = e.what();
    }
    ASSERT_EQ(fast_error, slow_error) << repro;
    ASSERT_EQ(snap(fast).to_string(), snap(slow).to_string()) << repro;
    const bool done = !fast_error.empty() || fast_outcome.reason == Machine::StopReason::Halted;
    // Registers are cheap and compared every chunk; the full memory
    // image periodically and always at the end of the run.
    if (done || rng.below(16) == 0) {
      ASSERT_EQ(memory_digest(fast), memory_digest(slow)) << repro;
    }
    if (!fast_error.empty()) return;  // both cores faulted identically
    ASSERT_EQ(static_cast<int>(fast_outcome.reason), static_cast<int>(slow_outcome.reason))
        << repro;
    ASSERT_EQ(fast_outcome.instructions, slow_outcome.instructions) << repro;
    if (done) return;
    total += fast_outcome.instructions;
  }
  FAIL() << "program still running after " << kMaxTotal << " instructions\n" << repro;
}

/// Load the image into a fast/slow pair and run them in lockstep.
void expect_lockstep(const Image& image, std::uint32_t mem_bytes, std::uint64_t seed,
                     std::uint32_t chunk_span, const std::string& repro) {
  Machine fast(mem_bytes);
  Machine slow(mem_bytes);
  fast.load(image);
  slow.load(image);
  ASSERT_NO_FATAL_FAILURE(run_pair(fast, slow, seed, chunk_span, repro));
}

/// Vary the generator knobs with the seed so the sweep covers programs
/// from tiny straight-line bursts to call-ladder/loop tangles — not
/// just one shape. Deterministic: the config is part of the repro.
ProgramGenConfig config_for(std::uint64_t seed) {
  ProgramGenConfig cfg;
  cfg.segments = 4 + seed % 11;             // 4..14
  cfg.functions = (seed / 3) % 4;           // 0..3
  cfg.ops_per_block = 2 + (seed / 7) % 6;   // 2..7
  cfg.max_trip = 1 + (seed / 11) % 12;      // 1..12
  cfg.mem_words = 8 + (seed / 13) % 57;     // 8..64
  return cfg;
}

// The acceptance-criterion sweep: >= 1000 seeded programs, zero
// trajectory divergence. Tier-1 as part of `isa_diff_fuzz_smoke`
// (fixed seeds, so exactly as deterministic as any unit test).
TEST(DiffFuzz, ThousandSeededPrograms) {
  constexpr std::uint64_t kPrograms = 1100;
  std::size_t with_calls = 0, with_loops = 0, with_memory = 0;
  for (std::uint64_t seed = 1; seed <= kPrograms; ++seed) {
    const GeneratedProgram program = generate_program(seed, config_for(seed));
    const std::string repro = "seed=" + std::to_string(seed) + "\n" + program.to_string();
    Image image;
    try {
      image = assemble(program.source);
    } catch (const Error& e) {
      FAIL() << "generated program must assemble: " << e.what() << "\n" << repro;
    }
    ASSERT_NO_FATAL_FAILURE(expect_lockstep(image, 1u << 16, seed, 17, repro));

    with_calls += program.source.find("call ") != std::string::npos;
    with_loops += program.source.find("gen_loop") != std::string::npos;
    with_memory += program.source.find("(%esi") != std::string::npos;
  }
  // The sweep only proves equivalence where it exercises the hazards.
  EXPECT_GT(with_calls, kPrograms / 10) << "generator must produce call ladders";
  EXPECT_GT(with_loops, kPrograms / 10) << "and counted loops";
  EXPECT_GT(with_memory, kPrograms / 2) << "and scratch-region memory traffic";
}

TEST(DiffFuzz, GeneratorIsDeterministicFromItsSeed) {
  for (const std::uint64_t seed : {1ull, 42ull, 31337ull}) {
    const GeneratedProgram a = generate_program(seed, config_for(seed));
    const GeneratedProgram b = generate_program(seed, config_for(seed));
    EXPECT_EQ(a.to_string(), b.to_string()) << "same seed, same program";
  }
}

// The Lab 4 routines under a cdecl call harness, with staged array
// data so the pointer-walking samples traverse real values.
TEST(DiffFuzz, Lab4SamplesUnderCallHarness) {
  for (const AsmSample& s : lab4_samples()) {
    const std::string harness =
        "_start:\n"
        // Stage a little array at 4096 (three words, then a 0 so the
        // string walker terminates).
        "    movl $4096, %esi\n"
        "    movl $7, (%esi)\n"
        "    movl $3, 4(%esi)\n"
        "    movl $7, 8(%esi)\n"
        "    movl $0, 12(%esi)\n"
        // cdecl: (4096, 3, 7) covers every sample's signature.
        "    pushl $7\n"
        "    pushl $3\n"
        "    pushl $4096\n"
        "    call " + s.name + "\n"
        "    hlt\n" + s.source;
    ASSERT_NO_FATAL_FAILURE(
        expect_lockstep(assemble(harness), 1u << 16, 0xAB4 + s.name.size(), 7, s.name));
  }
}

// Every floor of a full-height maze, with the real solution and with a
// wrong guess (the explode path), on both cores.
TEST(DiffFuzz, MazeFloorsOnBothCores) {
  const Maze maze(16);
  for (unsigned floor = 0; floor < maze.floors(); ++floor) {
    for (const bool correct : {true, false}) {
      const std::uint32_t guess = correct ? maze.solution(floor) : maze.solution(floor) ^ 0x5A5A;
      Machine fast;
      Machine slow;
      fast.load(maze.image());
      slow.load(maze.image());
      for (Machine* m : {&fast, &slow}) {
        m->set_reg(Reg::Eip, maze.image().symbol("floor_" + std::to_string(floor)));
        m->set_reg(Reg::Eax, guess);
      }
      const std::string repro =
          "floor=" + std::to_string(floor) + " guess=" + std::to_string(guess);
      ASSERT_NO_FATAL_FAILURE(run_pair(fast, slow, floor * 2 + correct, 257, repro));
    }
  }
}

// The compiled mini-C corpus (the analyze suite's clean fixture set)
// at both optimizer levels, run to completion under an entry stub.
TEST(DiffFuzz, CompiledMiniCAtBothOptLevels) {
  std::uint64_t seed = 0xC0DE;
  for (const cc::corpus::Program& fixture : cc::corpus::diff_fuzz_fixtures()) {
    for (const bool optimize : {false, true}) {
      cc::PipelineOptions opts;
      opts.optimize = optimize;
      const cc::PipelineResult compiled = cc::compile_pipeline(fixture.source, opts);
      std::ostringstream stub;
      stub << "_start:\n";
      for (auto it = fixture.args.rbegin(); it != fixture.args.rend(); ++it) {
        stub << "    pushl $" << *it << "\n";
      }
      stub << "    call main\n    hlt\n";
      const Image image = assemble(compiled.assembly + stub.str());
      const std::string repro =
          "(optimize=" + std::to_string(optimize) + ")\n" + fixture.source;
      ASSERT_NO_FATAL_FAILURE(expect_lockstep(image, 1u << 16, ++seed, 13, repro));
    }
  }
}

// Programs that *fault* must fault identically: same error text, same
// partial state, same instruction count at the throw.
TEST(DiffFuzz, FaultingProgramsDivergeNowhere) {
  const std::vector<std::string> faulty = {
      // Wild store far outside memory.
      "_start:\n    movl $123456789, %esi\n    movl $1, (%esi)\n    hlt\n",
      // Wild load.
      "_start:\n    movl $4294967000, %esi\n    movl (%esi), %eax\n    hlt\n",
      // Walks off the end of the image (no hlt): EIP leaves the program.
      "_start:\n    movl $1, %eax\n    addl $2, %eax\n",
      // Pop with ESP already at the top of memory: the read is out of bounds.
      "_start:\n    popl %eax\n    hlt\n",
      // Push with ESP near zero: the store address wraps around.
      "_start:\n    movl $2, %esp\n    pushl %eax\n    hlt\n",
      // Flags written before the write faults: add into a bad address.
      "_start:\n    movl $99999999, %esi\n    addl $5, (%esi)\n    hlt\n",
  };
  std::uint64_t seed = 0xFA17;
  for (const std::string& src : faulty) {
    ASSERT_NO_FATAL_FAILURE(expect_lockstep(assemble(src), 1u << 16, ++seed, 5, src));
  }
}

}  // namespace
}  // namespace cs31::isa
