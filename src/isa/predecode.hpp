// Predecoded instruction streams for the fast execution core.
//
// The teaching interpreter in machine.cpp re-decodes 16 bytes and walks
// two operand-kind switches on every step — perfect for the debugger's
// one-instruction-at-a-time view, and exactly the cost every downstream
// workload (mazes, graded runs, compiled corpora) pays per instruction.
// This layer hoists all of that to decode time: each instruction is
// resolved once into a DecodedOp whose handler function is *specialized
// for its (mnemonic, dst kind, src kind) shape*, so execution is one
// indirect call per instruction with direct register-index / resolved
// effective-address accessors and no per-step string building.
//
// Blocks, not single instructions, are the predecode unit: a
// PredecodedBlock runs from its entry address to the first control
// transfer (jmp/jcc/call/ret/hlt), the same leader rule cs31::analyze
// uses for its ISA CFGs (the fast core discovers blocks lazily from
// jump targets rather than from a whole-image CFG pass, because the
// cs31_analyze library sits *above* cs31_isa in the link order; a test
// pins the two discoveries against each other). The BlockCache maps
// code addresses to predecoded blocks with a direct-mapped index —
// addresses are dense multiples of kInstrBytes — and is invalidated
// whenever a store lands in the code range, which is what keeps
// self-modifying programs bit-identical to the switch interpreter.
//
// Everything here is a value type with no pointers into any Machine:
// DecodedOps hold register *indices* and displacement fields, so a
// copied Machine's cache stays valid for the copied memory.
#pragma once

#include <cstdint>
#include <vector>

#include "isa/ia32.hpp"

namespace cs31::isa::predecode {

/// Resolved memory operand: optional<Reg> flattened to index + flag,
/// scale to a shift, so the effective-address computation is two
/// predictable branches and no optional unwrapping.
struct MemSpec {
  std::int32_t disp = 0;
  std::uint8_t base = 0;
  std::uint8_t index = 0;
  std::uint8_t scale_shift = 0;  ///< scale 1/2/4/8 -> shift 0/1/2/3
  bool has_base = false;
  bool has_index = false;
};

struct DecodedOp;

/// Machine memory is tracked for reset in pages of 1 << kPageShift
/// bytes: every store marks the page(s) it touches in a dirty map.
inline constexpr std::uint32_t kPageShift = 12;

/// Mutable machine-state view the handlers execute against. Built by
/// the fast core from a Machine at run entry and synced back at every
/// exit (including exceptional ones), so faults leave the Machine in
/// exactly the state the switch interpreter would.
struct ExecState {
  std::uint32_t* regs = nullptr;  ///< the 8 GPRs (never Eip; decode rejects it)
  std::uint8_t* mem = nullptr;
  std::uint32_t mem_size = 0;
  std::uint8_t* dirty = nullptr;  ///< the Machine's dirty-page map
  Eflags* flags = nullptr;
  std::uint32_t code_base = 0;  ///< loaded image range, for invalidation
  std::uint32_t code_end = 0;
  std::uint32_t eip = 0;
  std::size_t executed = 0;
  std::size_t call_depth = 0;
  bool halted = false;
  // Per-block-walk signals (reset by the runner each block).
  bool stop = false;        ///< end this block walk after the current op
  bool control = false;     ///< the handler set eip itself
  bool code_dirty = false;  ///< a store landed in [code_base, code_end)
};

using ExecFn = void (*)(ExecState&, const DecodedOp&);

/// One predecoded instruction: the specialized handler plus every
/// operand field it can need, resolved from the 16-byte encoding once.
struct DecodedOp {
  ExecFn fn = nullptr;
  std::uint32_t addr = 0;     ///< code address (restores eip on faults)
  std::uint32_t target = 0;   ///< jump/call target
  std::uint32_t src_imm = 0;  ///< immediate source value
  std::uint32_t dst_imm = 0;  ///< immediate destination value (pushl $5; cmpl reads it)
  std::uint8_t src_reg = 0;   ///< register index when src is a register
  std::uint8_t dst_reg = 0;
  MemSpec src_mem;
  MemSpec dst_mem;
};

/// Predecode one already-decoded instruction at `addr`: resolve operand
/// fields and select the specialized handler. Never throws for shapes
/// the switch interpreter would reject at *execution* time (missing or
/// immediate destinations, non-memory lea sources): those select a
/// handler that throws the interpreter's exact error when executed, so
/// the two cores fault at the same instruction with the same message.
[[nodiscard]] DecodedOp predecode_one(const Instruction& ins, std::uint32_t addr);

/// A straight-line run of predecoded instructions starting at `start`.
/// Ends at the first control transfer (ends_in_control), at the image
/// end, or just before an instruction whose bytes do not decode
/// (decode_fault) — execution re-runs decode() there so the fault
/// throws exactly where and what the switch interpreter would.
struct PredecodedBlock {
  std::uint32_t start = 0;
  std::vector<DecodedOp> ops;
  bool ends_in_control = false;
  bool decode_fault = false;
};

/// Decode statistics, exposed through Machine for tests of the block
/// cache's invalidation and reuse paths.
struct CacheStats {
  std::size_t blocks = 0;         ///< blocks currently cached
  std::size_t predecodes = 0;     ///< blocks predecoded since load
  std::size_t lookups = 0;        ///< block transitions served
  std::size_t invalidations = 0;  ///< cache flushes from code-range stores
};

/// Direct-mapped block cache over one loaded image. Key is the block's
/// entry eip; a jump into the middle of a cached block simply predecodes
/// a new (overlapping) block from that address, which is how mid-block
/// entry stays exact without any block-splitting machinery.
class BlockCache {
 public:
  /// Bind to a freshly loaded image (drops all cached blocks).
  void reset(std::uint32_t image_base, std::uint32_t image_size);

  /// Drop every cached block (self-modifying store or external poke).
  void invalidate();

  /// The block starting at `eip`, predecoding it on a miss. Validates
  /// range and alignment with the switch interpreter's exact errors.
  /// `mem` is the machine memory the image bytes live in.
  const PredecodedBlock& obtain(std::uint32_t eip, const std::uint8_t* mem);

  [[nodiscard]] const CacheStats& stats() const { return stats_; }

 private:
  std::uint32_t base_ = 0;
  std::uint32_t size_ = 0;
  std::vector<std::int32_t> slot_;  ///< (eip - base)/kInstrBytes -> block index, -1 = empty
  std::vector<PredecodedBlock> blocks_;
  CacheStats stats_;
};

}  // namespace cs31::isa::predecode
