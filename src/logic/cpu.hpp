// The "complete simple CPU" of CS 31 Lab 3 and the architecture lectures:
// a 16-bit von Neumann machine with eight registers, a program counter,
// an instruction register, and control logic that sequences the fetch /
// decode / execute / store cycle. Arithmetic runs through the gate-level
// Lab 3 ALU, so every ADD a student traces really flows through gates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "logic/alu.hpp"
#include "logic/circuit.hpp"

namespace cs31::logic {

/// MiniCpu opcodes. Register format: op(4) rd(3) rs(3) rt(3) pad(3).
/// Immediate format: op(4) rd(3) imm(9, two's complement).
/// Branch format: op(4) rs(3) addr(9). Jump format: op(4) addr(12).
enum class Op : unsigned {
  Halt = 0,
  Add = 1, Sub = 2, And = 3, Or = 4, Xor = 5,
  Not = 6, Shl = 7, Sra = 8,
  LoadI = 9,   ///< rd = sign-extended imm9
  Load = 10,   ///< rd = mem[R[rs]]
  Store = 11,  ///< mem[R[rd]] = R[rs]
  Jmp = 12,    ///< pc = addr12
  Beqz = 13,   ///< if R[rs] == 0 then pc = addr9
  Mov = 14,    ///< rd = R[rs]
};

/// One decoded instruction, as the control unit sees it after the
/// decode stage.
struct Decoded {
  Op op = Op::Halt;
  unsigned rd = 0, rs = 0, rt = 0;
  std::int32_t imm = 0;     ///< sign-extended imm9
  unsigned addr = 0;        ///< jump/branch target
};

/// Encode helpers (the course's hand-assembly exercises).
[[nodiscard]] std::uint16_t encode_reg(Op op, unsigned rd, unsigned rs, unsigned rt);
[[nodiscard]] std::uint16_t encode_imm(Op op, unsigned rd, std::int32_t imm9);
[[nodiscard]] std::uint16_t encode_branch(Op op, unsigned rs, unsigned addr9);
[[nodiscard]] std::uint16_t encode_jump(unsigned addr12);

/// Decode one instruction word. Throws cs31::Error on an unknown opcode.
[[nodiscard]] Decoded decode(std::uint16_t word);

/// Render a decoded instruction in the course's assembly notation.
[[nodiscard]] std::string to_string(const Decoded& d);

/// What one executed instruction read and wrote — consumed by the
/// pipeline timing model (experiment E5) and by trace-reading homework.
struct ExecRecord {
  unsigned pc = 0;
  Decoded instr;
  bool wrote_reg = false;
  unsigned dest = 0;
  std::vector<unsigned> sources;
  bool is_load = false;
  bool is_branch = false;  ///< Jmp or Beqz
  bool taken = false;
};

/// The simple CPU. Word size 16 bits, 4096-word memory, registers R0..R7
/// (R0 is writable, unlike MIPS — the course's machine is simpler).
class MiniCpu {
 public:
  MiniCpu();

  /// Load a program at address 0 and reset pc/halt state (registers and
  /// the rest of memory keep their contents so experiments can stage
  /// data first). Throws if the program exceeds memory.
  void load_program(const std::vector<std::uint16_t>& program);

  /// Run one full fetch/decode/execute/store cycle. Returns false once
  /// halted. Throws cs31::Error on pc/memory out of range.
  bool step();

  /// Run until Halt or `max_steps` instructions; returns instructions
  /// executed. Throws cs31::Error when the limit is hit (runaway loop).
  std::size_t run(std::size_t max_steps = 100000);

  [[nodiscard]] bool halted() const { return halted_; }
  [[nodiscard]] unsigned pc() const { return pc_; }
  [[nodiscard]] std::uint16_t reg(unsigned r) const;
  [[nodiscard]] std::uint16_t mem(unsigned addr) const;
  void set_mem(unsigned addr, std::uint16_t value);

  /// Flags latched from the last ALU operation (the condition codes).
  [[nodiscard]] AluReading last_alu() const { return last_alu_; }

  /// Trace of every instruction executed since load_program.
  [[nodiscard]] const std::vector<ExecRecord>& trace() const { return trace_; }

  static constexpr unsigned kMemWords = 4096;
  static constexpr unsigned kNumRegs = 8;

 private:
  Circuit circuit_;
  Alu alu_;
  std::vector<std::uint16_t> memory_;
  std::vector<std::uint16_t> regs_;
  unsigned pc_ = 0;
  bool halted_ = true;
  AluReading last_alu_;
  std::vector<ExecRecord> trace_;
};

/// A tiny structured assembler for MiniCpu programs, enough for the
/// examples and tests: each element is already an encoded word; this
/// helper assembles a "sum the array at `base`, length in R1" routine
/// used by several experiments.
[[nodiscard]] std::vector<std::uint16_t> sample_sum_program(unsigned base, unsigned count);

}  // namespace cs31::logic
