#include "logic/cpu.hpp"

#include <sstream>

#include "common/error.hpp"

namespace cs31::logic {

namespace {
void check_reg(unsigned r) { require(r < MiniCpu::kNumRegs, "register number out of range"); }
}  // namespace

std::uint16_t encode_reg(Op op, unsigned rd, unsigned rs, unsigned rt) {
  check_reg(rd); check_reg(rs); check_reg(rt);
  return static_cast<std::uint16_t>((static_cast<unsigned>(op) << 12) | (rd << 9) |
                                    (rs << 6) | (rt << 3));
}

std::uint16_t encode_imm(Op op, unsigned rd, std::int32_t imm9) {
  check_reg(rd);
  require(imm9 >= -256 && imm9 <= 255, "immediate out of 9-bit signed range");
  return static_cast<std::uint16_t>((static_cast<unsigned>(op) << 12) | (rd << 9) |
                                    (static_cast<unsigned>(imm9) & 0x1FFu));
}

std::uint16_t encode_branch(Op op, unsigned rs, unsigned addr9) {
  check_reg(rs);
  require(addr9 < 512, "branch target out of 9-bit range");
  return static_cast<std::uint16_t>((static_cast<unsigned>(op) << 12) | (rs << 9) | addr9);
}

std::uint16_t encode_jump(unsigned addr12) {
  require(addr12 < 4096, "jump target out of 12-bit range");
  return static_cast<std::uint16_t>((static_cast<unsigned>(Op::Jmp) << 12) | addr12);
}

Decoded decode(std::uint16_t word) {
  Decoded d;
  const unsigned opcode = word >> 12;
  if (opcode > static_cast<unsigned>(Op::Mov)) {
    throw Error("unknown opcode " + std::to_string(opcode));
  }
  d.op = static_cast<Op>(opcode);
  d.rd = (word >> 9) & 0x7u;
  d.rs = (word >> 6) & 0x7u;
  d.rt = (word >> 3) & 0x7u;
  const unsigned imm9 = word & 0x1FFu;
  d.imm = imm9 & 0x100u ? static_cast<std::int32_t>(imm9) - 512 : static_cast<std::int32_t>(imm9);
  d.addr = d.op == Op::Jmp ? (word & 0xFFFu) : imm9;
  return d;
}

std::string to_string(const Decoded& d) {
  std::ostringstream out;
  auto r = [](unsigned n) { return "R" + std::to_string(n); };
  switch (d.op) {
    case Op::Halt: out << "halt"; break;
    case Op::Add: out << "add " << r(d.rd) << ", " << r(d.rs) << ", " << r(d.rt); break;
    case Op::Sub: out << "sub " << r(d.rd) << ", " << r(d.rs) << ", " << r(d.rt); break;
    case Op::And: out << "and " << r(d.rd) << ", " << r(d.rs) << ", " << r(d.rt); break;
    case Op::Or: out << "or " << r(d.rd) << ", " << r(d.rs) << ", " << r(d.rt); break;
    case Op::Xor: out << "xor " << r(d.rd) << ", " << r(d.rs) << ", " << r(d.rt); break;
    case Op::Not: out << "not " << r(d.rd) << ", " << r(d.rs); break;
    case Op::Shl: out << "shl " << r(d.rd) << ", " << r(d.rs); break;
    case Op::Sra: out << "sra " << r(d.rd) << ", " << r(d.rs); break;
    case Op::LoadI: out << "loadi " << r(d.rd) << ", " << d.imm; break;
    case Op::Load: out << "load " << r(d.rd) << ", (" << r(d.rs) << ")"; break;
    case Op::Store: out << "store (" << r(d.rd) << "), " << r(d.rs); break;
    case Op::Jmp: out << "jmp " << d.addr; break;
    case Op::Beqz: out << "beqz " << r((d.rd)) << ", " << d.addr; break;
    case Op::Mov: out << "mov " << r(d.rd) << ", " << r(d.rs); break;
  }
  return out.str();
}

MiniCpu::MiniCpu()
    : alu_(build_alu(circuit_, 16)),
      memory_(kMemWords, 0),
      regs_(kNumRegs, 0) {}

void MiniCpu::load_program(const std::vector<std::uint16_t>& program) {
  require(program.size() <= kMemWords, "program larger than memory");
  for (std::size_t i = 0; i < program.size(); ++i) {
    memory_[i] = program[i];
  }
  pc_ = 0;
  halted_ = false;
  trace_.clear();
}

std::uint16_t MiniCpu::reg(unsigned r) const {
  check_reg(r);
  return regs_[r];
}

std::uint16_t MiniCpu::mem(unsigned addr) const {
  require(addr < kMemWords, "memory address out of range");
  return memory_[addr];
}

void MiniCpu::set_mem(unsigned addr, std::uint16_t value) {
  require(addr < kMemWords, "memory address out of range");
  memory_[addr] = value;
}

bool MiniCpu::step() {
  if (halted_) return false;
  require(pc_ < kMemWords, "pc out of range");

  // Fetch + decode.
  const std::uint16_t word = memory_[pc_];
  const Decoded d = decode(word);
  ExecRecord rec;
  rec.pc = pc_;
  rec.instr = d;
  unsigned next_pc = pc_ + 1;

  // Execute + store. Arithmetic goes through the gate-level ALU so the
  // latched condition flags are exactly the circuit's flag outputs.
  auto alu2 = [&](AluOp op, unsigned rd, unsigned rs, unsigned rt) {
    last_alu_ = run_alu(circuit_, alu_, op, regs_[rs], regs_[rt]);
    regs_[rd] = static_cast<std::uint16_t>(last_alu_.result);
    rec.wrote_reg = true;
    rec.dest = rd;
    rec.sources = {rs, rt};
  };
  auto alu1 = [&](AluOp op, unsigned rd, unsigned rs) {
    last_alu_ = run_alu(circuit_, alu_, op, regs_[rs], 0);
    regs_[rd] = static_cast<std::uint16_t>(last_alu_.result);
    rec.wrote_reg = true;
    rec.dest = rd;
    rec.sources = {rs};
  };

  switch (d.op) {
    case Op::Halt:
      halted_ = true;
      trace_.push_back(rec);
      return false;
    case Op::Add: alu2(AluOp::Add, d.rd, d.rs, d.rt); break;
    case Op::Sub: alu2(AluOp::Sub, d.rd, d.rs, d.rt); break;
    case Op::And: alu2(AluOp::And, d.rd, d.rs, d.rt); break;
    case Op::Or: alu2(AluOp::Or, d.rd, d.rs, d.rt); break;
    case Op::Xor: alu2(AluOp::Xor, d.rd, d.rs, d.rt); break;
    case Op::Not: alu1(AluOp::Not, d.rd, d.rs); break;
    case Op::Shl: alu1(AluOp::Shl, d.rd, d.rs); break;
    case Op::Sra: alu1(AluOp::Sra, d.rd, d.rs); break;
    case Op::LoadI:
      regs_[d.rd] = static_cast<std::uint16_t>(d.imm & 0xFFFF);
      rec.wrote_reg = true;
      rec.dest = d.rd;
      break;
    case Op::Load:
      require(regs_[d.rs] < kMemWords, "load address out of range");
      regs_[d.rd] = memory_[regs_[d.rs]];
      rec.wrote_reg = true;
      rec.dest = d.rd;
      rec.sources = {d.rs};
      rec.is_load = true;
      break;
    case Op::Store:
      require(regs_[d.rd] < kMemWords, "store address out of range");
      memory_[regs_[d.rd]] = regs_[d.rs];
      rec.sources = {d.rd, d.rs};
      break;
    case Op::Jmp:
      next_pc = d.addr;
      rec.is_branch = true;
      rec.taken = true;
      break;
    case Op::Beqz: {
      // The branch condition runs through the ALU: OR(rs, rs) sets the
      // zero flag exactly when the register is zero.
      last_alu_ = run_alu(circuit_, alu_, AluOp::Or, regs_[d.rd], regs_[d.rd]);
      rec.is_branch = true;
      rec.sources = {d.rd};
      if (last_alu_.zero) {
        next_pc = d.addr;
        rec.taken = true;
      }
      break;
    }
    case Op::Mov:
      regs_[d.rd] = regs_[d.rs];
      rec.wrote_reg = true;
      rec.dest = d.rd;
      rec.sources = {d.rs};
      break;
  }

  pc_ = next_pc;
  trace_.push_back(rec);
  return true;
}

std::size_t MiniCpu::run(std::size_t max_steps) {
  std::size_t steps = 0;
  while (!halted_) {
    require(steps < max_steps, "instruction limit exceeded (runaway program?)");
    step();
    ++steps;
  }
  return steps;
}

std::vector<std::uint16_t> sample_sum_program(unsigned base, unsigned count) {
  require(base + count <= MiniCpu::kMemWords, "array does not fit in memory");
  require(count < 256, "sample program supports < 256 elements");
  // R1 = base pointer, R2 = remaining count, R3 = running sum,
  // R4 = current element, R5 = constant 1.
  std::vector<std::uint16_t> p;
  p.push_back(encode_imm(Op::LoadI, 1, static_cast<std::int32_t>(base) & 0xFF));
  // Bases above 255 need a shift-and-or sequence; keep the sample simple.
  require(base <= 255, "sample program supports base <= 255");
  p.push_back(encode_imm(Op::LoadI, 2, static_cast<std::int32_t>(count)));
  p.push_back(encode_imm(Op::LoadI, 3, 0));
  p.push_back(encode_imm(Op::LoadI, 5, 1));
  const unsigned loop = static_cast<unsigned>(p.size());
  p.push_back(encode_branch(Op::Beqz, 2, loop + 6));  // while (R2 != 0)
  p.push_back(encode_reg(Op::Load, 4, 1, 0));         //   R4 = mem[R1]
  p.push_back(encode_reg(Op::Add, 3, 3, 4));          //   R3 += R4
  p.push_back(encode_reg(Op::Add, 1, 1, 5));          //   R1 += 1
  p.push_back(encode_reg(Op::Sub, 2, 2, 5));          //   R2 -= 1
  p.push_back(encode_jump(loop));
  p.push_back(encode_reg(Op::Halt, 0, 0, 0));
  return p;
}

}  // namespace cs31::logic
