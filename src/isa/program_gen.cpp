#include "isa/program_gen.hpp"

#include <array>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "isa/ia32.hpp"

namespace cs31::isa {
namespace {

// The ALU-play register pool. %ecx is reserved for loop counters,
// %esp/%ebp for the stack discipline; everything else is fair game —
// the generator never needs a value to survive, only to be the same
// value on both cores.
constexpr std::array<const char*, 5> kFreeRegs = {"%eax", "%ebx", "%edx", "%esi", "%edi"};

// Immediates mix small arithmetic values with the operand boundaries
// the flag recipes care about (sign bit, carry out, full shift counts).
constexpr std::array<std::uint32_t, 8> kEdgeImms = {0u,   1u,     31u,        32u,
                                                    255u, 65535u, 0x7fffffffu, 65521u};

/// Emits assembly lines and counts emitted instructions, so the
/// generator can assert the image stays clear of the scratch region.
class Emitter {
 public:
  void label(const std::string& name) { out_ += name + ":\n"; }

  void ins(const std::string& text) {
    out_ += "    " + text + "\n";
    ++count_;
  }

  [[nodiscard]] const std::string& text() const { return out_; }
  [[nodiscard]] std::size_t instructions() const { return count_; }

 private:
  std::string out_;
  std::size_t count_ = 0;
};

class Generator {
 public:
  Generator(std::uint64_t seed, const ProgramGenConfig& config) : rng_(seed), config_(config) {}

  std::string generate() {
    require(config_.mem_words > 0, "program generator needs a nonempty scratch region");
    // _start first so the loader picks it as the entry point; helper
    // functions follow the final hlt and are only reachable by call.
    emit_.label("_start");
    for (std::size_t s = 0; s < config_.segments; ++s) emit_segment();
    emit_.ins("hlt");
    for (std::size_t f = 0; f < config_.functions; ++f) emit_function(f);

    // The program must not overwrite itself: a store into the image
    // range is *valid* execution (the cores handle it identically) but
    // would turn later code into undecodable bytes, breaking the
    // "never faults" contract. 0x1000 is assemble()'s default base.
    require(0x1000 + emit_.instructions() * kInstrBytes <= config_.data_base,
            "generated program image would overlap the scratch data region");
    return emit_.text();
  }

 private:
  const char* reg() {
    return kFreeRegs[rng_.below(kFreeRegs.size())];
  }

  std::string imm() {
    // Mostly small values (loop-ish arithmetic), sometimes a boundary.
    if (rng_.below(4) == 0) {
      return std::to_string(kEdgeImms[rng_.below(kEdgeImms.size())]);
    }
    return std::to_string(rng_.below(100000));
  }

  std::string fresh_label(const char* stem) {
    return std::string("gen_") + stem + "_" + std::to_string(label_counter_++);
  }

  /// One straight-line ALU instruction over the free registers.
  void emit_alu() {
    const char* d = reg();
    switch (rng_.below(12)) {
      case 0: emit_.ins(std::string("movl $") + imm() + ", " + d); break;
      case 1: emit_.ins(std::string("movl ") + reg() + ", " + d); break;
      case 2: emit_.ins(std::string("addl $") + imm() + ", " + d); break;
      case 3: emit_.ins(std::string("addl ") + reg() + ", " + d); break;
      case 4: emit_.ins(std::string("subl ") + reg() + ", " + d); break;
      case 5: emit_.ins(std::string("imull $") + imm() + ", " + d); break;
      case 6: {
        const char* logic = (rng_.below(3) == 0) ? "andl" : (rng_.below(2) == 0 ? "orl" : "xorl");
        emit_.ins(std::string(logic) + " " + reg() + ", " + d);
        break;
      }
      case 7: {
        const char* shift = (rng_.below(3) == 0) ? "shll" : (rng_.below(2) == 0 ? "shrl" : "sarl");
        emit_.ins(std::string(shift) + " $" + std::to_string(rng_.below(34)) + ", " + d);
        break;
      }
      case 8: emit_.ins(std::string("notl ") + d); break;
      case 9: emit_.ins(std::string("negl ") + d); break;
      case 10: emit_.ins(std::string(rng_.below(2) ? "incl " : "decl ") + d); break;
      default:
        emit_.ins(std::string(rng_.below(2) ? "cmpl " : "testl ") + reg() + ", " + d);
        break;
    }
  }

  /// One scratch-region memory access. The address register is loaded
  /// immediately before use, so the access is in bounds no matter what
  /// earlier ALU play left in the registers.
  void emit_mem() {
    const auto word = static_cast<std::uint32_t>(rng_.below(config_.mem_words));
    const std::uint32_t addr = config_.data_base + 4 * word;
    const char* v = reg();
    switch (rng_.below(4)) {
      case 0:  // register-indirect load / store
        emit_.ins("movl $" + std::to_string(addr) + ", %esi");
        emit_.ins(rng_.below(2) ? std::string("movl (%esi), ") + v
                                : std::string("movl ") + v + ", (%esi)");
        break;
      case 1:  // displacement form off the region base
        emit_.ins("movl $" + std::to_string(config_.data_base) + ", %esi");
        emit_.ins("movl " + std::to_string(4 * word) + "(%esi), " + v);
        break;
      case 2:  // base + index*4, the array-walk shape
        emit_.ins("movl $" + std::to_string(config_.data_base) + ", %esi");
        emit_.ins("movl $" + std::to_string(word) + ", %edi");
        emit_.ins(std::string("addl (%esi,%edi,4), ") + v);
        break;
      default:  // read-modify-write against memory
        emit_.ins("movl $" + std::to_string(addr) + ", %esi");
        emit_.ins(std::string(rng_.below(2) ? "addl " : "xorl ") + v + ", (%esi)");
        break;
    }
  }

  void emit_body_op() {
    if (rng_.below(3) == 0) {
      emit_mem();
    } else {
      emit_alu();
    }
  }

  /// movl $trip, %ecx / body / decl %ecx / jne — the canonical counted
  /// loop. The body never touches %ecx, and decl is the last flag
  /// writer before the jne, so the loop always terminates.
  void emit_loop() {
    const auto trip = static_cast<std::uint32_t>(1 + rng_.below(config_.max_trip));
    const std::string top = fresh_label("loop");
    emit_.ins("movl $" + std::to_string(trip) + ", %ecx");
    emit_.label(top);
    const std::size_t body = 1 + rng_.below(config_.ops_per_block);
    for (std::size_t i = 0; i < body; ++i) emit_body_op();
    emit_.ins("decl %ecx");
    emit_.ins("jne " + top);
  }

  /// cmp + jcc diamond: whichever arm the seeded data picks, both
  /// cores must pick the same one.
  void emit_diamond() {
    static constexpr std::array<const char*, 12> kJcc = {"je",  "jne", "jg", "jge", "jl",  "jle",
                                                         "ja",  "jae", "jb", "jbe", "js",  "jns"};
    const std::string then_label = fresh_label("then");
    const std::string join_label = fresh_label("join");
    emit_.ins(std::string("cmpl $") + imm() + ", " + reg());
    emit_.ins(std::string(kJcc[rng_.below(kJcc.size())]) + " " +
              then_label);
    const auto else_ops = static_cast<std::uint32_t>(1 + rng_.below(3));
    for (std::uint32_t i = 0; i < else_ops; ++i) emit_alu();
    emit_.ins("jmp " + join_label);
    emit_.label(then_label);
    const auto then_ops = static_cast<std::uint32_t>(1 + rng_.below(3));
    for (std::uint32_t i = 0; i < then_ops; ++i) emit_alu();
    emit_.label(join_label);
  }

  /// Balanced push/pop play: n pushes (registers and immediates),
  /// then exactly n pops back into free registers.
  void emit_stack_play() {
    const auto depth = static_cast<std::uint32_t>(1 + rng_.below(4));
    for (std::uint32_t i = 0; i < depth; ++i) {
      emit_.ins(rng_.below(2) ? std::string("pushl ") + reg() : "pushl $" + imm());
    }
    for (std::uint32_t i = 0; i < depth; ++i) emit_.ins(std::string("popl ") + reg());
  }

  /// cdecl call into the helper ladder: push the argument, call,
  /// caller pops the argument.
  void emit_call() {
    const std::size_t callee = rng_.below(config_.functions);
    emit_.ins(rng_.below(2) ? std::string("pushl ") + reg() : "pushl $" + imm());
    emit_.ins("call f" + std::to_string(callee));
    emit_.ins("addl $4, %esp");
  }

  void emit_segment() {
    switch (rng_.below(config_.functions > 0 ? 6u : 5u)) {
      case 0:
        for (std::size_t i = 0; i < config_.ops_per_block; ++i) emit_alu();
        break;
      case 1:
        for (std::size_t i = 0; i < 1 + config_.ops_per_block / 2; ++i) emit_mem();
        break;
      case 2: emit_loop(); break;
      case 3: emit_diamond(); break;
      case 4: emit_stack_play(); break;
      default: emit_call(); break;
    }
  }

  /// Helper function f<index> with a full cdecl frame. f_i may only
  /// call f_j with j < i, so the call graph is acyclic and every
  /// execution terminates.
  void emit_function(std::size_t index) {
    emit_.label("f" + std::to_string(index));
    emit_.ins("pushl %ebp");
    emit_.ins("movl %esp, %ebp");
    emit_.ins("movl 8(%ebp), %eax");
    const std::size_t body = 1 + rng_.below(config_.ops_per_block);
    for (std::size_t i = 0; i < body; ++i) emit_body_op();
    if (index > 0 && rng_.below(2) == 0) {
      emit_.ins("pushl %eax");
      emit_.ins("call f" + std::to_string(rng_.below(index)));
      emit_.ins("addl $4, %esp");
    }
    emit_.ins("leave");
    emit_.ins("ret");
  }

  common::SplitMix64 rng_;
  ProgramGenConfig config_;
  Emitter emit_;
  std::size_t label_counter_ = 0;
};

}  // namespace

std::string GeneratedProgram::to_string() const {
  return "# seed=" + std::to_string(seed) + "\n" + source;
}

GeneratedProgram generate_program(std::uint64_t seed, ProgramGenConfig config) {
  GeneratedProgram program;
  program.seed = seed;
  program.config = config;
  program.source = Generator(seed, config).generate();
  return program;
}

}  // namespace cs31::isa
