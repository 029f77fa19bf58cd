// Handler specialization and block predecoding for the fast core.
//
// Every handler below mirrors one case of the switch interpreter in
// machine.cpp *exactly* — same evaluation order (destination before
// source for arithmetic, source before destination for shifts), same
// flag recipes, same fault messages, same state left behind when a
// fault throws mid-instruction. The operand-kind dispatch the
// interpreter does per step (read_operand / write_operand switches)
// happens here once, at predecode time, by instantiating exec_op over
// (mnemonic, dst kind, src kind) and selecting the instantiation that
// matches the decoded instruction. The differential fuzz harness
// (tests/isa_diff_fuzz_test.cpp) and the golden traces are the proof
// that the mirror is faithful; any drift fails those tier-1 tests.
#include "isa/predecode.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"

namespace cs31::isa::predecode {

namespace {

enum class K : std::uint8_t { None = 0, Imm = 1, Reg = 2, Mem = 3 };

// ---------------------------------------------------------------------------
// Memory access — the switch interpreter's load32/store32 with the same
// bounds checks and messages, plus the code-range check that keeps the
// block cache honest under self-modifying stores.
// ---------------------------------------------------------------------------

inline std::uint32_t ea(const ExecState& st, const MemSpec& m) {
  std::uint32_t addr = static_cast<std::uint32_t>(m.disp);
  if (m.has_base) addr += st.regs[m.base];
  if (m.has_index) addr += st.regs[m.index] << m.scale_shift;
  return addr;
}

inline std::uint32_t fast_load32(const ExecState& st, std::uint32_t addr) {
  if (!(addr + 4 <= st.mem_size && addr + 4 > addr)) {
    throw Error("segmentation violation: read of 4 bytes at 0x" + std::to_string(addr));
  }
  // Byte assembly, not memcpy: identical to the interpreter on any
  // endianness; compilers fold this into one load on little-endian.
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(st.mem[addr + i]) << (8 * i);
  return v;
}

inline void fast_store32(ExecState& st, std::uint32_t addr, std::uint32_t value) {
  if (!(addr + 4 <= st.mem_size && addr + 4 > addr)) {
    throw Error("segmentation violation: write of 4 bytes at 0x" + std::to_string(addr));
  }
  for (int i = 0; i < 4; ++i) st.mem[addr + i] = static_cast<std::uint8_t>(value >> (8 * i));
  st.dirty[addr >> kPageShift] = 1;
  st.dirty[(addr + 3) >> kPageShift] = 1;  // a store may straddle two pages
  if (addr < st.code_end && addr + 4 > st.code_base) {
    // The store touched loaded code: finish this instruction, then the
    // runner flushes the cache and re-decodes from fresh bytes — the
    // switch interpreter's per-step decode, recovered on demand.
    st.code_dirty = true;
    st.stop = true;
  }
}

inline void fast_push(ExecState& st, std::uint32_t value) {
  const std::uint32_t esp = st.regs[static_cast<std::size_t>(Reg::Esp)] - 4;
  fast_store32(st, esp, value);  // faults leave ESP unchanged, like Machine::push
  st.regs[static_cast<std::size_t>(Reg::Esp)] = esp;
}

inline std::uint32_t fast_pop(ExecState& st) {
  const std::uint32_t esp = st.regs[static_cast<std::size_t>(Reg::Esp)];
  const std::uint32_t v = fast_load32(st, esp);
  st.regs[static_cast<std::size_t>(Reg::Esp)] = esp + 4;
  return v;
}

// ---------------------------------------------------------------------------
// Flag recipes — byte-for-byte the private helpers in machine.cpp.
// ---------------------------------------------------------------------------

inline void set_logic_flags(Eflags& f, std::uint32_t result) {
  f.cf = false;
  f.of = false;
  f.zf = result == 0;
  f.sf = (result >> 31) & 1u;
}

inline void set_add_flags(Eflags& f, std::uint32_t a, std::uint32_t b, std::uint64_t wide) {
  const std::uint32_t r = static_cast<std::uint32_t>(wide);
  f.cf = (wide >> 32) != 0;
  f.zf = r == 0;
  f.sf = (r >> 31) & 1u;
  const bool sa = (a >> 31) & 1u, sb = (b >> 31) & 1u, sr = (r >> 31) & 1u;
  f.of = (sa == sb) && (sr != sa);
}

inline void set_sub_flags(Eflags& f, std::uint32_t a, std::uint32_t b) {
  const std::uint32_t r = a - b;
  f.cf = a < b;  // borrow
  f.zf = r == 0;
  f.sf = (r >> 31) & 1u;
  const bool sa = (a >> 31) & 1u, sb = (b >> 31) & 1u, sr = (r >> 31) & 1u;
  f.of = (sa != sb) && (sr != sa);
}

// ---------------------------------------------------------------------------
// Kind-specialized operand accessors. The None/Imm error paths throw at
// execution time with the interpreter's read_operand/write_operand
// messages — predecoding must not reject shapes early, or the two cores
// would fault at different instructions.
// ---------------------------------------------------------------------------

template <K SK>
inline std::uint32_t read_src(ExecState& st, const DecodedOp& op) {
  if constexpr (SK == K::Imm) {
    return op.src_imm;
  } else if constexpr (SK == K::Reg) {
    return st.regs[op.src_reg];
  } else if constexpr (SK == K::Mem) {
    return fast_load32(st, ea(st, op.src_mem));
  } else {
    throw Error("instruction read a missing operand");
  }
}

template <K DK>
inline std::uint32_t read_dst(ExecState& st, const DecodedOp& op) {
  if constexpr (DK == K::Imm) {
    return op.dst_imm;  // read_operand returns the immediate; the write faults later
  } else if constexpr (DK == K::Reg) {
    return st.regs[op.dst_reg];
  } else if constexpr (DK == K::Mem) {
    return fast_load32(st, ea(st, op.dst_mem));
  } else {
    throw Error("instruction read a missing operand");
  }
}

template <K DK>
inline void write_dst(ExecState& st, const DecodedOp& op, std::uint32_t value) {
  if constexpr (DK == K::Reg) {
    st.regs[op.dst_reg] = value;
  } else if constexpr (DK == K::Mem) {
    fast_store32(st, ea(st, op.dst_mem), value);
  } else if constexpr (DK == K::Imm) {
    throw Error("destination operand cannot be an immediate");
  } else {
    throw Error("instruction wrote a missing operand");
  }
}

// ---------------------------------------------------------------------------
// The handlers. Straight-line handlers leave st.eip alone (the runner
// maintains it); control handlers set st.eip and st.control and always
// st.stop. jump() mirrors the `next = ins.target` pattern.
// ---------------------------------------------------------------------------

inline void jump(ExecState& st, const DecodedOp& op, bool taken) {
  st.eip = taken ? op.target : op.addr + kInstrBytes;
  st.control = true;
  st.stop = true;
}

template <Mnemonic M, K DK, K SK>
void exec_op(ExecState& st, const DecodedOp& op) {
  Eflags& f = *st.flags;
  if constexpr (M == Mnemonic::Mov) {
    write_dst<DK>(st, op, read_src<SK>(st, op));
  } else if constexpr (M == Mnemonic::Lea) {
    if constexpr (SK != K::Mem) {
      throw Error("lea source must be a memory operand");
    } else {
      write_dst<DK>(st, op, ea(st, op.src_mem));
    }
  } else if constexpr (M == Mnemonic::Add) {
    const std::uint32_t a = read_dst<DK>(st, op), b = read_src<SK>(st, op);
    const std::uint64_t wide = static_cast<std::uint64_t>(a) + b;
    set_add_flags(f, a, b, wide);
    write_dst<DK>(st, op, static_cast<std::uint32_t>(wide));
  } else if constexpr (M == Mnemonic::Sub) {
    const std::uint32_t a = read_dst<DK>(st, op), b = read_src<SK>(st, op);
    set_sub_flags(f, a, b);
    write_dst<DK>(st, op, a - b);
  } else if constexpr (M == Mnemonic::Imul) {
    const std::int64_t a = static_cast<std::int32_t>(read_dst<DK>(st, op));
    const std::int64_t b = static_cast<std::int32_t>(read_src<SK>(st, op));
    const std::int64_t wide = a * b;
    const std::uint32_t r = static_cast<std::uint32_t>(wide);
    f.cf = f.of = wide != static_cast<std::int32_t>(r);
    f.zf = r == 0;
    f.sf = (r >> 31) & 1u;
    write_dst<DK>(st, op, r);
  } else if constexpr (M == Mnemonic::And) {
    const std::uint32_t r = read_dst<DK>(st, op) & read_src<SK>(st, op);
    set_logic_flags(f, r);
    write_dst<DK>(st, op, r);
  } else if constexpr (M == Mnemonic::Or) {
    const std::uint32_t r = read_dst<DK>(st, op) | read_src<SK>(st, op);
    set_logic_flags(f, r);
    write_dst<DK>(st, op, r);
  } else if constexpr (M == Mnemonic::Xor) {
    const std::uint32_t r = read_dst<DK>(st, op) ^ read_src<SK>(st, op);
    set_logic_flags(f, r);
    write_dst<DK>(st, op, r);
  } else if constexpr (M == Mnemonic::Shl) {
    const std::uint32_t count = read_src<SK>(st, op) & 31u;
    std::uint32_t v = read_dst<DK>(st, op);
    if (count != 0) {
      f.cf = (v >> (32 - count)) & 1u;
      v <<= count;
      f.zf = v == 0;
      f.sf = (v >> 31) & 1u;
    }
    write_dst<DK>(st, op, v);
  } else if constexpr (M == Mnemonic::Shr) {
    const std::uint32_t count = read_src<SK>(st, op) & 31u;
    std::uint32_t v = read_dst<DK>(st, op);
    if (count != 0) {
      f.cf = (v >> (count - 1)) & 1u;
      v >>= count;
      f.zf = v == 0;
      f.sf = false;
    }
    write_dst<DK>(st, op, v);
  } else if constexpr (M == Mnemonic::Sar) {
    const std::uint32_t count = read_src<SK>(st, op) & 31u;
    std::int32_t v = static_cast<std::int32_t>(read_dst<DK>(st, op));
    if (count != 0) {
      f.cf = (static_cast<std::uint32_t>(v) >> (count - 1)) & 1u;
      v >>= count;
      f.zf = v == 0;
      f.sf = v < 0;
    }
    write_dst<DK>(st, op, static_cast<std::uint32_t>(v));
  } else if constexpr (M == Mnemonic::Cmp) {
    const std::uint32_t a = read_dst<DK>(st, op), b = read_src<SK>(st, op);
    set_sub_flags(f, a, b);
  } else if constexpr (M == Mnemonic::Test) {
    const std::uint32_t a = read_dst<DK>(st, op), b = read_src<SK>(st, op);
    set_logic_flags(f, a & b);
  } else if constexpr (M == Mnemonic::Not) {
    // x86 NOT does not touch the flags.
    write_dst<DK>(st, op, ~read_dst<DK>(st, op));
  } else if constexpr (M == Mnemonic::Neg) {
    const std::uint32_t a = read_dst<DK>(st, op);
    set_sub_flags(f, 0, a);
    write_dst<DK>(st, op, 0u - a);
  } else if constexpr (M == Mnemonic::Inc) {
    const std::uint32_t a = read_dst<DK>(st, op);
    const bool cf = f.cf;  // INC preserves CF
    const std::uint64_t wide = static_cast<std::uint64_t>(a) + 1;
    set_add_flags(f, a, 1, wide);
    f.cf = cf;
    write_dst<DK>(st, op, static_cast<std::uint32_t>(wide));
  } else if constexpr (M == Mnemonic::Dec) {
    const std::uint32_t a = read_dst<DK>(st, op);
    const bool cf = f.cf;  // DEC preserves CF
    set_sub_flags(f, a, 1);
    f.cf = cf;
    write_dst<DK>(st, op, a - 1);
  } else if constexpr (M == Mnemonic::Push) {
    fast_push(st, read_dst<DK>(st, op));
  } else if constexpr (M == Mnemonic::Pop) {
    write_dst<DK>(st, op, fast_pop(st));
  } else {
    static_assert(M == Mnemonic::Mov, "mnemonic needs a dedicated handler");
  }
}

void exec_call(ExecState& st, const DecodedOp& op) {
  fast_push(st, op.addr + kInstrBytes);
  ++st.call_depth;
  st.eip = op.target;
  st.control = true;
  st.stop = true;
}

void exec_ret(ExecState& st, const DecodedOp& op) {
  (void)op;
  if (st.call_depth == 0) {
    // Returning from the outermost frame halts, eip stays on the ret.
    st.halted = true;
    st.control = true;
    st.stop = true;
    return;
  }
  --st.call_depth;
  st.eip = fast_pop(st);
  st.control = true;
  st.stop = true;
}

void exec_leave(ExecState& st, const DecodedOp& op) {
  (void)op;
  st.regs[static_cast<std::size_t>(Reg::Esp)] = st.regs[static_cast<std::size_t>(Reg::Ebp)];
  st.regs[static_cast<std::size_t>(Reg::Ebp)] = fast_pop(st);
}

void exec_nop(ExecState& st, const DecodedOp& op) {
  (void)st;
  (void)op;
}

void exec_hlt(ExecState& st, const DecodedOp& op) {
  (void)op;
  st.halted = true;
  st.control = true;  // eip stays on the hlt, as the interpreter leaves it
  st.stop = true;
}

void exec_jmp(ExecState& st, const DecodedOp& op) { jump(st, op, true); }
void exec_je(ExecState& st, const DecodedOp& op) { jump(st, op, st.flags->zf); }
void exec_jne(ExecState& st, const DecodedOp& op) { jump(st, op, !st.flags->zf); }
void exec_jg(ExecState& st, const DecodedOp& op) {
  jump(st, op, !st.flags->zf && st.flags->sf == st.flags->of);
}
void exec_jge(ExecState& st, const DecodedOp& op) { jump(st, op, st.flags->sf == st.flags->of); }
void exec_jl(ExecState& st, const DecodedOp& op) { jump(st, op, st.flags->sf != st.flags->of); }
void exec_jle(ExecState& st, const DecodedOp& op) {
  jump(st, op, st.flags->zf || st.flags->sf != st.flags->of);
}
void exec_ja(ExecState& st, const DecodedOp& op) { jump(st, op, !st.flags->cf && !st.flags->zf); }
void exec_jae(ExecState& st, const DecodedOp& op) { jump(st, op, !st.flags->cf); }
void exec_jb(ExecState& st, const DecodedOp& op) { jump(st, op, st.flags->cf); }
void exec_jbe(ExecState& st, const DecodedOp& op) { jump(st, op, st.flags->cf || st.flags->zf); }
void exec_js(ExecState& st, const DecodedOp& op) { jump(st, op, st.flags->sf); }
void exec_jns(ExecState& st, const DecodedOp& op) { jump(st, op, !st.flags->sf); }

// ---------------------------------------------------------------------------
// Handler selection: collapse the decoded operand kinds into template
// arguments. Two nested runtime switches here, zero at execution time.
// ---------------------------------------------------------------------------

template <Mnemonic M, K DK>
ExecFn pick_src(Operand::Kind sk) {
  switch (sk) {
    case Operand::Kind::None: return &exec_op<M, DK, K::None>;
    case Operand::Kind::Imm: return &exec_op<M, DK, K::Imm>;
    case Operand::Kind::Reg: return &exec_op<M, DK, K::Reg>;
    case Operand::Kind::Mem: return &exec_op<M, DK, K::Mem>;
  }
  throw Error("bad operand kind");
}

template <Mnemonic M>
ExecFn pick(Operand::Kind dk, Operand::Kind sk) {
  switch (dk) {
    case Operand::Kind::None: return pick_src<M, K::None>(sk);
    case Operand::Kind::Imm: return pick_src<M, K::Imm>(sk);
    case Operand::Kind::Reg: return pick_src<M, K::Reg>(sk);
    case Operand::Kind::Mem: return pick_src<M, K::Mem>(sk);
  }
  throw Error("bad operand kind");
}

ExecFn select_handler(const Instruction& ins) {
  const Operand::Kind dk = ins.dst.kind;
  const Operand::Kind sk = ins.src.kind;
  switch (ins.op) {
    case Mnemonic::Mov: return pick<Mnemonic::Mov>(dk, sk);
    case Mnemonic::Lea: return pick<Mnemonic::Lea>(dk, sk);
    case Mnemonic::Add: return pick<Mnemonic::Add>(dk, sk);
    case Mnemonic::Sub: return pick<Mnemonic::Sub>(dk, sk);
    case Mnemonic::Imul: return pick<Mnemonic::Imul>(dk, sk);
    case Mnemonic::And: return pick<Mnemonic::And>(dk, sk);
    case Mnemonic::Or: return pick<Mnemonic::Or>(dk, sk);
    case Mnemonic::Xor: return pick<Mnemonic::Xor>(dk, sk);
    case Mnemonic::Shl: return pick<Mnemonic::Shl>(dk, sk);
    case Mnemonic::Shr: return pick<Mnemonic::Shr>(dk, sk);
    case Mnemonic::Sar: return pick<Mnemonic::Sar>(dk, sk);
    case Mnemonic::Cmp: return pick<Mnemonic::Cmp>(dk, sk);
    case Mnemonic::Test: return pick<Mnemonic::Test>(dk, sk);
    // Unary stack/ALU ops only touch the destination operand; the
    // source kind never matters, so one instantiation per dst kind.
    case Mnemonic::Not: return pick<Mnemonic::Not>(dk, Operand::Kind::None);
    case Mnemonic::Neg: return pick<Mnemonic::Neg>(dk, Operand::Kind::None);
    case Mnemonic::Inc: return pick<Mnemonic::Inc>(dk, Operand::Kind::None);
    case Mnemonic::Dec: return pick<Mnemonic::Dec>(dk, Operand::Kind::None);
    case Mnemonic::Push: return pick<Mnemonic::Push>(dk, Operand::Kind::None);
    case Mnemonic::Pop: return pick<Mnemonic::Pop>(dk, Operand::Kind::None);
    case Mnemonic::Call: return &exec_call;
    case Mnemonic::Ret: return &exec_ret;
    case Mnemonic::Leave: return &exec_leave;
    case Mnemonic::Jmp: return &exec_jmp;
    case Mnemonic::Je: return &exec_je;
    case Mnemonic::Jne: return &exec_jne;
    case Mnemonic::Jg: return &exec_jg;
    case Mnemonic::Jge: return &exec_jge;
    case Mnemonic::Jl: return &exec_jl;
    case Mnemonic::Jle: return &exec_jle;
    case Mnemonic::Ja: return &exec_ja;
    case Mnemonic::Jae: return &exec_jae;
    case Mnemonic::Jb: return &exec_jb;
    case Mnemonic::Jbe: return &exec_jbe;
    case Mnemonic::Js: return &exec_js;
    case Mnemonic::Jns: return &exec_jns;
    case Mnemonic::Nop: return &exec_nop;
    case Mnemonic::Hlt: return &exec_hlt;
  }
  throw Error("bad opcode " + std::to_string(static_cast<int>(ins.op)));
}

MemSpec resolve_mem(const MemRef& m) {
  MemSpec spec;
  spec.disp = m.disp;
  if (m.base) {
    spec.has_base = true;
    spec.base = static_cast<std::uint8_t>(*m.base);
  }
  if (m.index) {
    spec.has_index = true;
    spec.index = static_cast<std::uint8_t>(*m.index);
  }
  switch (m.scale) {
    case 1: spec.scale_shift = 0; break;
    case 2: spec.scale_shift = 1; break;
    case 4: spec.scale_shift = 2; break;
    case 8: spec.scale_shift = 3; break;
    default: spec.scale_shift = 0; break;  // decode never produces others
  }
  return spec;
}

bool is_control(Mnemonic m) {
  return (m >= Mnemonic::Jmp && m <= Mnemonic::Jns) || m == Mnemonic::Call ||
         m == Mnemonic::Ret || m == Mnemonic::Hlt;
}

}  // namespace

DecodedOp predecode_one(const Instruction& ins, std::uint32_t addr) {
  DecodedOp op;
  op.fn = select_handler(ins);
  op.addr = addr;
  op.target = ins.target;
  op.src_imm = static_cast<std::uint32_t>(ins.src.imm);
  op.dst_imm = static_cast<std::uint32_t>(ins.dst.imm);
  op.src_reg = static_cast<std::uint8_t>(ins.src.reg);
  op.dst_reg = static_cast<std::uint8_t>(ins.dst.reg);
  if (ins.src.kind == Operand::Kind::Mem) op.src_mem = resolve_mem(ins.src.mem);
  if (ins.dst.kind == Operand::Kind::Mem) op.dst_mem = resolve_mem(ins.dst.mem);
  return op;
}

void BlockCache::reset(std::uint32_t image_base, std::uint32_t image_size) {
  base_ = image_base;
  size_ = image_size;
  slot_.assign(image_size / kInstrBytes, -1);
  blocks_.clear();
  stats_ = CacheStats{};
}

void BlockCache::invalidate() {
  std::fill(slot_.begin(), slot_.end(), -1);
  blocks_.clear();
  ++stats_.invalidations;
  stats_.blocks = 0;
}

const PredecodedBlock& BlockCache::obtain(std::uint32_t eip, const std::uint8_t* mem) {
  // The switch interpreter's per-step fetch checks (including the
  // decimal rendering after "0x", which its message has always had).
  // This is the fast core's hottest edge — every block transition lands
  // here — so the failure message is only built when it will be thrown.
  if (eip < base_ || eip + kInstrBytes > base_ + size_) {
    throw Error("EIP 0x" + std::to_string(eip) + " outside the loaded program");
  }
  if ((eip - base_) % kInstrBytes != 0) throw Error("EIP misaligned");
  ++stats_.lookups;
  const std::size_t slot = (eip - base_) / kInstrBytes;
  if (slot_[slot] >= 0) {
    const PredecodedBlock& hit = blocks_[static_cast<std::size_t>(slot_[slot])];
    if (hit.ops.empty()) {
      // Cached decode fault at the block's first instruction: re-run
      // decode so the throw carries the interpreter's exact error.
      (void)decode(mem + eip);
      throw Error("cached decode fault vanished");  // memory changed only via invalidation
    }
    return hit;
  }

  PredecodedBlock block;
  block.start = eip;
  std::uint32_t addr = eip;
  while (addr >= base_ && addr + kInstrBytes <= base_ + size_) {
    Instruction ins;
    try {
      ins = decode(mem + addr);
    } catch (const Error&) {
      // Stop *before* the undecodable instruction: earlier ops in the
      // block must execute before the fault, exactly as the switch
      // interpreter would reach it step by step.
      block.decode_fault = true;
      break;
    }
    block.ops.push_back(predecode_one(ins, addr));
    if (is_control(ins.op)) {
      block.ends_in_control = true;
      break;
    }
    addr += kInstrBytes;
  }

  if (block.ops.empty()) {
    // First instruction of the block does not decode. Cache the empty
    // block (so repeated entry stays O(1)) but throw now.
    slot_[slot] = static_cast<std::int32_t>(blocks_.size());
    blocks_.push_back(std::move(block));
    ++stats_.predecodes;
    stats_.blocks = blocks_.size();
    (void)decode(mem + eip);  // throws the genuine decode error
    throw Error("decode fault vanished");
  }

  slot_[slot] = static_cast<std::int32_t>(blocks_.size());
  blocks_.push_back(std::move(block));
  ++stats_.predecodes;
  stats_.blocks = blocks_.size();
  return blocks_.back();
}

}  // namespace cs31::isa::predecode
